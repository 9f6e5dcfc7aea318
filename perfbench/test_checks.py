"""The benchmark's checkers reject wrong rows and wrong programs.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as wl  # noqa: E402

HEADER = "a,b,target,final_abs_error,rho_hat,r_squared,termination,status"


def sweep(expr, mode, **axes):
    return wl.sweep_op(expr, mode, {k: list(v) for k, v in axes.items()})


def csv(*rows):
    return "\n".join([HEADER, *rows]) + "\n# rho_hat over n points\n"


GOOD = "2,3,6,1e-11,0.99,0.9999,completed,ok"


def test_good_row_passes():
    assert wl.check_sweep(sweep("a * b", "nonneg", a=[2.0], b=[3.0]), csv(GOOD)) == (0, [])


@pytest.mark.parametrize("row, why", [
    ("2,3,5,1e-11,0.99,0.9999,completed,ok", "target"),
    ("2,3,6,2e-6,0.99,0.9999,completed,ok", "final error"),
    ("2,3,6,1e-11,0.84,0.9999,completed,ok", "rho_hat"),
    ("2,3,6,1e-11,0.99,0.9999,blowup,ok", "blowup"),
    ("2,3,6,1e-11,0.99,0.9999,stiff_failure,ok", "termination"),
    ("2,4,8,1e-11,0.99,0.9999,completed,ok", "input column"),
])
def test_wrong_row_is_rejected(row, why):
    with pytest.raises(wl.CheckError, match=why):
        wl.check_sweep(sweep("a * b", "nonneg", a=[2.0], b=[3.0]), csv(row))


def test_missing_row_is_rejected():
    with pytest.raises(wl.CheckError, match="rows"):
        wl.check_sweep(sweep("a * b", "nonneg", a=[2.0, 1.0], b=[3.0]), csv(GOOD))


def test_blowup_allowed_at_a_tie_only():
    op = sweep("max(a, b)", "nonneg", a=[2.0], b=[2.0])
    assert wl.check_sweep(op, csv("2,2,2,1e-9,1.02,0.9999,blowup,ok")) == (0, [])
    op = sweep("max(a, b)", "nonneg", a=[2.0], b=[3.0])
    with pytest.raises(wl.CheckError, match="blowup"):
        wl.check_sweep(op, csv("2,3,3,1e-9,1.02,0.9999,blowup,ok"))


def test_failures_are_counted_and_classified():
    zero_rail = sweep("a/b", "real", a=[0.144], b=[-36.15])
    status = "EstimationError: only 0 samples with error in [1e-09, 0.01]"
    failed, notes = wl.check_sweep(zero_rail, csv(f"0.144,-36.15,,,,,completed,{status}"))
    assert failed == 1 and notes[0].startswith("expected")
    seeded = sweep("a/b", "real", a=[2.0], b=[-4.0])
    failed, notes = wl.check_sweep(seeded, csv(f"2,-4,,,,,completed,{status}"))
    assert failed == 1 and notes[0].startswith("UNEXPECTED")


def program_op(expr, mode="nonneg"):
    nodes = {"a + b": ("add", ("var", "a"), ("var", "b")),
             "a * b": ("mul", ("var", "a"), ("var", "b")),
             "a * b + c": ("add", ("mul", ("var", "a"), ("var", "b")), ("var", "c"))}
    return wl.Op(["compile", f"--expr={expr}", "--mode", mode], expr, mode,
                 tree=nodes[expr], terms=1)


def program_text(expr, mode="nonneg"):
    from crncalc.circuit import compile_expression, format_program
    return format_program(compile_expression(expr, mode))


def test_program_that_does_not_load_is_rejected():
    with pytest.raises(wl.CheckError, match="does not load"):
        wl.check_program_text(program_op("a + b"), "species: A[input]\nA -> ; k=1\n")


def test_program_with_other_inputs_is_rejected():
    with pytest.raises(wl.CheckError, match="inputs"):
        wl.check_program_text(program_op("a * b + c"), program_text("a * b"))


def test_program_in_other_mode_is_rejected():
    with pytest.raises(wl.CheckError, match="rails"):
        wl.check_program_text(program_op("a + b", "real"), program_text("a + b"))


def test_program_computing_another_value_is_rejected():
    op = program_op("a * b")
    prog = wl.check_program_text(op, program_text("a + b"))
    with pytest.raises(wl.CheckError, match="output"):
        wl.check_program_value(op, prog, {"a": 2.0, "b": 3.0})
    assert wl.check_program_value(op, wl.check_program_text(op, program_text("a * b")),
                                  {"a": 2.0, "b": 3.0})


def test_python_value_follows_the_grammar():
    assert wl.python_value("-a * b + rsub(a, 3) + root(3, 8) + abs(a - b)",
                           {"a": 2.0, "b": 5.0}) == -10 + 0 + 2.0 + 3


def test_workloads_repeat_for_a_seed():
    for make in wl.WORKLOADS.values():
        assert [op.argv for op in make(7)] == [op.argv for op in make(7)]
    assert [op.argv for op in wl.compile_ops(7)] != [op.argv for op in wl.compile_ops(8)]
    real = wl.real_ops(7)
    zero_rail = [p for op in real for p in op.points if wl.is_expected_failure(op, p)]
    assert zero_rail == wl.REAL_ZERO_RAIL
