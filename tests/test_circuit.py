"""Expression parsing, lowering to gate circuits, flattening, speed analysis."""

import contextlib
import importlib.util
import io
import pickle
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import crncalc.circuit
import crncalc.gates
from crncalc import cli
from crncalc.crn import FormatError, format_network, mass_action
from crncalc.gates import DomainError
from crncalc.circuit import (
    Add,
    CircuitBuilder,
    CompiledProgram,
    Const,
    ModeError,
    Mul,
    Neg,
    ParseError,
    RectSub,
    Root,
    Sub,
    Var,
    compile_expression,
    eval_expr,
    format_program,
    flatten,
    free_vars,
    input_rails,
    load_program,
    lower_to_circuit,
    parse_expression,
    predict_speed,
)

F = Fraction


def shape(circuit):
    return [(g.kind.tag, [s.id for s in g.inputs], g.output.id)
            for g in circuit.gates]


# --- parsing ----------------------------------------------------------------

def test_parse_precedence_and_sugar():
    e = parse_expression("a + b * c")
    assert e == Add(Var("a"), Mul(Var("b"), Var("c")))
    assert parse_expression("(a + b) * c") == Mul(Add(Var("a"), Var("b")), Var("c"))
    assert parse_expression("sqrt(a)") == Root(2, Var("a"))
    assert parse_expression("root(5, a)") == Root(5, Var("a"))
    assert parse_expression("0.5") == Const(F(1, 2))
    assert parse_expression("-3") == Const(F(-3))
    assert parse_expression("a - b") == Sub(Var("a"), Var("b"))
    assert free_vars(parse_expression("a*b + sqrt(a)")) == {"a", "b"}


def test_parse_errors_carry_positions():
    cases = [("a+", 2), ("max(a)", 5), ("sqrt(a,b)", 6), ("a b", 2),
             ("2^x", 1), ("((a)", 4), ("foo(a)", 3)]
    for src, pos in cases:
        with pytest.raises(ParseError) as exc:
            parse_expression(src)
        assert exc.value.pos == pos, src
        assert f"col {pos + 1}" in str(exc.value)


def test_parse_root_degree_validation():
    for src in ["root(1, a)", "root(0.5, a)", "root(a, 2)"]:
        with pytest.raises(ParseError, match="root degree"):
            parse_expression(src)


def test_parse_abs_needs_difference():
    with pytest.raises(ParseError, match="difference"):
        parse_expression("abs(a)")
    parse_expression("abs(a - b)")  # fine


def test_eval_expr():
    assert eval_expr("max(2, 3) + rsub(1, 5)", {}) == 3.0
    assert eval_expr("rsub(5, 1)", {}) == 4.0
    assert eval_expr("abs(a - b)", {"a": 1, "b": 5}) == 4.0
    assert eval_expr("root(3, 8)", {}) == pytest.approx(2.0)
    assert eval_expr("sqrt(a) / b", {"a": 9, "b": 6}) == pytest.approx(0.5)
    assert eval_expr("-a + 2", {"a": 0.5}) == 1.5


# --- lowering shapes --------------------------------------------------------

def test_division_lowers_to_two_gates():
    c = lower_to_circuit("a/b")
    assert shape(c) == [("inversion", ["B"], "X1"),
                        ("multiplication", ["A", "X1"], "X2")]


def test_division_lowers_denominator_first():
    # the inversion gate is numbered before the numerator's gates
    c = lower_to_circuit("(a + b)/(c + d)")
    assert shape(c) == [("addition", ["C", "D"], "X1"),
                        ("inversion", ["X1"], "X2"),
                        ("addition", ["A", "B"], "X3"),
                        ("multiplication", ["X3", "X2"], "X4")]


def test_reciprocal_peephole():
    c = lower_to_circuit("1/e")
    assert shape(c) == [("inversion", ["E"], "X1")]


def test_max_lowering():
    # max(a, b) = a + rsub(b, a): two gates, five species, no constant
    c = lower_to_circuit("max(a, b)")
    assert shape(c) == [("rectified_subtraction", ["B", "A"], "X1"),
                        ("addition", ["A", "X1"], "X2")]
    assert c.consts == {}
    assert len(flatten(c).species_ids) == 5


def test_shared_subexpression_lowered_once():
    c = lower_to_circuit("(a + b) * (a + b)")
    assert shape(c) == [("addition", ["A", "B"], "X1"),
                        ("multiplication", ["X1", "X1"], "X2")]


def test_bare_variable_gets_identification():
    c = lower_to_circuit("a")
    assert shape(c) == [("identification", ["A"], "X1")]
    assert c.output.id == "X1"


def test_real_subtraction_shape():
    c = lower_to_circuit("a - b", mode="real")
    # negation swaps b's rails; it allocates no gate
    assert shape(c) == [("addition", ["A_p", "B_n"], "X1"),
                        ("addition", ["A_n", "B_p"], "X2"),
                        ("rectified_subtraction", ["X1", "X2"], "X3"),
                        ("rectified_subtraction", ["X2", "X1"], "X4")]
    prog = compile_expression("a - b", mode="real")
    assert len(prog.network.reactions) == 20
    assert len(prog.network.species) == 10
    assert prog.bindings.output == ("X3", "X4")
    assert prog.bindings.positive_init == ("Y3", "X3", "Y4", "X4")


def test_real_multiplication_shape():
    c = lower_to_circuit("a * b", mode="real")
    assert shape(c) == [("multiplication", ["A_p", "B_p"], "X1"),
                        ("multiplication", ["A_n", "B_n"], "X2"),
                        ("multiplication", ["A_p", "B_n"], "X3"),
                        ("multiplication", ["A_n", "B_p"], "X4"),
                        ("addition", ["X1", "X2"], "X5"),
                        ("addition", ["X3", "X4"], "X6")]


def test_negative_constant_in_real_mode():
    c = lower_to_circuit("-3", mode="real")
    assert c.consts == {"K1": F(0), "K2": F(3)}
    sa = predict_speed(flatten(c), {})
    assert sa.output_values == (0.0, 3.0)
    assert sa.output_value == -3.0


def test_mode_errors():
    nonneg_bad = ["a - b", "-a", "-3"]
    for src in nonneg_bad:
        with pytest.raises(ModeError):
            lower_to_circuit(src)
    real_bad = ["sqrt(a)", "root(3, a)", "abs(a - b)", "max(a, b)", "rsub(a, b)"]
    for src in real_bad:
        with pytest.raises(ModeError):
            lower_to_circuit(src, mode="real")
    with pytest.raises(ValueError):
        lower_to_circuit("a", mode="complex")


# --- flattening -------------------------------------------------------------

DIVISION_REACTIONS = ["X1 -> 2X1 ; k=1",
                      "B + 2X1 -> B + X1 ; k=1",
                      "A + X1 -> A + X1 + X2 ; k=1",
                      "X2 -> 0 ; k=1"]


def test_flatten_division_network():
    prog = compile_expression("a/b")
    text = format_network(prog.network)
    for line in DIVISION_REACTIONS:
        assert line in text
    assert len(prog.network.reactions) == 4
    assert prog.bindings.inputs == (("a", ("A",)), ("b", ("B",)))
    assert prog.bindings.output == ("X2",)
    assert prog.bindings.positive_init == ("X1",)


def test_flatten_addition_network():
    prog = compile_expression("a + b")
    assert len(prog.network.reactions) == 3
    assert prog.bindings.positive_init == ()


def test_compile_is_deterministic():
    a = format_program(compile_expression("sqrt(abs(a - b)) + a/b"))
    b = format_program(compile_expression("sqrt(abs(a - b)) + a/b"))
    assert a == b


def test_program_text_round_trip():
    prog = compile_expression("sqrt(abs(a - b))")
    text = format_program(prog)
    again = load_program(text)
    assert again.bindings == prog.bindings
    assert format_network(again.network) == format_network(prog.network)
    assert format_program(again) == text


@pytest.mark.parametrize("src,mode", [("a*a", "nonneg"), ("a + a", "nonneg"),
                                      ("rsub(a, a)", "nonneg"), ("max(a, a)", "nonneg"),
                                      ("a*a", "real"), ("a/(a - b)", "real")])
def test_shared_input_programs_round_trip(src, mode):
    # gates fed one species on both inputs come from their own templates
    prog = compile_expression(src, mode)
    text = format_program(prog)
    again = load_program(text)
    assert again.network == prog.network
    assert hash(again.network) == hash(prog.network)
    back = pickle.loads(pickle.dumps(prog))
    assert back.network == prog.network and hash(back.network) == hash(prog.network)
    assert format_program(back) == text


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _compile_ops(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.compile_ops(seed)


def _rendered_from_network(prog):
    """The program text as format_network writes the built network."""
    return format_program(CompiledProgram(prog.species, prog.bindings,
                                          network=prog.network))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gate_templates_render_the_network(seed):
    # the benchmark's compile expressions, both modes, sums of 1 to 64
    # terms (seed 0 up to 300)
    for op in _compile_ops(seed):
        if op.terms <= 64 or seed == 0:
            prog = compile_expression(op.expr, op.mode)
            assert format_program(prog) == _rendered_from_network(prog), op.expr


@pytest.mark.parametrize("src,mode", [
    ("a*a", "nonneg"), ("a/a", "nonneg"), ("abs(a - a)", "nonneg"),
    ("rsub(a, a)", "nonneg"), ("max(a, a)", "nonneg"), ("root(3, a*a)", "nonneg"),
    ("a - a", "real"), ("a/a", "real"), ("b*a + rsub(b, a) + abs(b - a)", "nonneg"),
    ("b/a - a*b", "real"), ("1/(a - a)", "real")])
def test_every_sharing_pattern_renders_the_network(src, mode):
    prog = compile_expression(src, mode)
    assert format_program(prog) == _rendered_from_network(prog)


@pytest.fixture
def builds(monkeypatch):
    """Records each read of a gate's reactions and each program network
    parsed, but not the cached parses of the gate templates."""
    calls = []
    reactions = crncalc.gates.GateInstance.reactions
    parse = crncalc.circuit.parse_network

    def read(g):
        calls.append(("reactions", g))
        return reactions.fget(g)

    def parsed(text):
        calls.append(("parse_network", text))
        return parse(text)

    monkeypatch.setattr(crncalc.gates.GateInstance, "reactions", property(read))
    monkeypatch.setattr(crncalc.circuit, "parse_network", parsed)
    return calls


def test_compiling_builds_no_reaction(builds):
    for src, mode in [("sqrt(abs(a - b)) + max(a, b)/c", "nonneg"), ("a*b - c/a", "real")]:
        prog = flatten(lower_to_circuit(parse_expression(src), mode))
        text = format_program(prog)
        assert builds == []
        assert len(prog.network.reactions) > 0  # parsed on the first read
        assert [name for name, _ in builds] == ["parse_network"]
        assert text.endswith(builds[0][1])
        assert prog.network is prog.network
        assert len(builds) == 1
        builds.clear()


def test_compile_sweep_and_verify_build_no_reaction(builds):
    for argv in (["compile", "--expr", "a/b + sqrt(a)"],
                 ["sweep", "--expr", "a*b", "--grid", "a=1,2;b=3", "--t-end", "20"],
                 ["verify", "--mode", "real", "--expr", "a*b - c",
                  "--in", "a=1.3,b=-2.1,c=0.7"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert builds == []


def test_load_program_validation():
    prog = compile_expression("a + b")
    text = format_program(prog)
    with pytest.raises(FormatError, match="output"):
        load_program("\n".join(l for l in text.splitlines()
                               if not l.startswith("# output")))
    with pytest.raises(FormatError, match="undeclared"):
        load_program(text.replace("# output -> X1", "# output -> X9"))
    # a line whose first word is a binding keyword is a binding line: it
    # must have its form, and binds its name once
    network = "species: A[input], K1[input], X1\nA -> A + X1 ; k=1\nX1 -> 0 ; k=1\n"
    for header, message in [
            ("# output X1\n", "line 1: bad binding line '# output X1'"),
            ("# input a -> A\n# ouput -> X1\n# output X1\n", "line 3: bad binding line"),
            ("#init+ A\n# output -> X1\n", "line 1: bad binding line '#init+ A'"),
            ("# input a -> A\n# input a -> X1\n# output -> X1\n", "line 2: input a bound twice"),
            ("# const K1 = 1\n# const K1 = 2\n# output -> X1\n", "line 2: const K1 bound twice"),
            ("# output -> X1\n# output -> A\n", "line 2: output bound twice"),
            ("# output -> X1\n# init+ : X1\n# init+ :\n", "line 3: init+ bound twice"),
            ("# const K1 = abc\n# output -> X1\n",
             "line 1: const K1: could not convert string to float: 'abc'")]:
        with pytest.raises(FormatError, match=re.escape(message)):
            load_program(header + network)
    # other words, "outputs" or "inputs:" among them, start plain comments
    bare = load_program("# outputs and inputs: none\n# initial\n" + network)
    assert bare.bindings is None
    # no binding line, a comment or not: a bare network
    bare = load_program("# a comment\n" + "\n".join(l for l in text.splitlines()
                                                     if not l.startswith("# ")))
    assert bare.bindings is None and bare.gates is None
    assert bare.species_ids == prog.species_ids


def test_inputs_stay_constant_in_compiled_networks():
    for src, mode in [("a/b", "nonneg"), ("sqrt(abs(a - b))", "nonneg"),
                      ("max(a, b)", "nonneg"), ("a*b - b", "real")]:
        prog = compile_expression(src, mode)
        f = mass_action(prog.network)
        held = [sid for _, rails in prog.bindings.inputs for sid in rails]
        held += [sid for sid, _ in prog.bindings.consts]
        for sid in held:
            assert f[prog.network.species_ids.index(sid)] == {}, (src, sid)


# --- speed prediction -------------------------------------------------------

def test_predict_speed_plain_addition():
    c = lower_to_circuit("a + b")
    sa = predict_speed(flatten(c), {"a": 1, "b": 2})
    assert sa.bound.value == 1.0
    assert sa.output_value == 3.0


def test_predict_speed_root_of_tie():
    c = lower_to_circuit("sqrt(abs(a - b))")
    sa = predict_speed(flatten(c), {"a": 4, "b": 4})
    assert sa.bound.value == 0.5
    assert sa.output_value == 0.0
    # away from the tie the full unit rate is predicted
    assert predict_speed(flatten(c), {"a": 4, "b": 1}).bound.value == 1.0
    c2 = lower_to_circuit("sqrt(sqrt(abs(a - b)))")
    assert predict_speed(flatten(c2), {"a": 2, "b": 2}).bound.value == 0.25


def test_predict_speed_domain_error_names_gate():
    c = lower_to_circuit("1/a")
    with pytest.raises(DomainError, match="X1"):
        predict_speed(flatten(c), {"a": 0})
    with pytest.raises(ValueError, match="missing value for input 'a'"):
        predict_speed(flatten(c), {})


def test_predict_speed_needs_gates():
    # loaded program text and a bare network carry no gates to predict from
    text = format_program(compile_expression("a + b"))
    bare = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    for prog in (load_program(text), load_program(bare)):
        with pytest.raises(ValueError, match="needs a compiled program's gates"):
            predict_speed(prog, {"a": 1, "b": 2})


def test_predict_speed_real_multiplication():
    c = lower_to_circuit("a * b", mode="real")
    sa = predict_speed(flatten(c), {"a": 2, "b": -3})
    assert sa.output_values == (0.0, 6.0)
    assert sa.output_value == -6.0
    assert sa.bound.value == 1.0


def test_deep_expressions_hash_compare_and_pickle():
    # hashing must not walk the subtree: a chain far deeper than the
    # recursion limit still hashes and works as a dict key
    e = Var("a")
    for i in range(5000):
        e = Add(e, Const(Fraction(i)))
    assert {e: 1}[e] == 1
    assert hash(Add(Var("a"), Var("b"))) == hash(parse_expression("a + b"))
    assert Add(Var("a"), Var("b")) != Sub(Var("a"), Var("b"))
    small = parse_expression("sqrt(a*b + 1/(c + 2)) - rsub(a, 3)")
    back = pickle.loads(pickle.dumps(small))
    assert back == small and hash(back) == hash(small)


def test_deep_expressions_lower_and_evaluate():
    # lowering, free_vars and eval_expr walk an explicit stack, so a
    # left-deep chain far beyond the recursion limit still works
    text = " + ".join(f"a{i}*b{i}" for i in range(5000))
    e = parse_expression(text)
    names = free_vars(e)
    assert len(names) == 10000
    assert eval_expr(e, dict.fromkeys(names, 2.0)) == 20000.0
    # the second parse is the same object, so lowering shares it
    twice = Mul(e, parse_expression(text))
    assert twice.left == twice.right and twice.left is twice.right
    c = lower_to_circuit(twice)
    assert len(c.gates) == 10000
    assert shape(c)[-1] == ("multiplication", ["X9999", "X9999"], "X10000")


def test_equal_expressions_are_one_object():
    text = "sqrt(a*b + 1/(c + 2)) - rsub(a, 3)"
    assert parse_expression(text) is parse_expression(text)
    one = Const(Fraction(1))  # a second construction must not reset its value
    assert Const(1) is one and type(one.value) is Fraction
    assert Add(Var("a"), Var("b")) is not Sub(Var("a"), Var("b"))
    e = parse_expression(text)
    assert pickle.loads(pickle.dumps(e)) is e


@pytest.mark.parametrize("src,mode,cls", [("(a - b) + -b", "real", Neg),
                                          ("max(a, b) + rsub(b, a)", "nonneg", RectSub)])
def test_lowering_reuses_the_parsed_nodes(src, mode, cls):
    # real a - b lowers a + Neg(b), and max(a, b) lowers RectSub(b, a):
    # both are the nodes the parser made for the right-hand operand
    e = parse_expression(src)
    b = CircuitBuilder(mode)
    b.lower(e)
    (built,) = [node for node in b._cse if isinstance(node, cls)]
    assert built is e.right


def test_dropped_expressions_leave_the_intern_table():
    before = len(crncalc.circuit._INTERNED)
    e = parse_expression(" + ".join(f"a{i}*b{i}" for i in range(5000)))
    assert len(crncalc.circuit._INTERNED) > before + 15000
    del e
    assert len(crncalc.circuit._INTERNED) == before


def test_parser_nesting_limit():
    parse_expression("(" * 100 + "a" + ")" * 100)
    for src in ["(" * 101 + "a" + ")" * 101, "sqrt(" * 101 + "a" + ")" * 101,
                "-" * 101 + "a"]:
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse_expression(src)


def test_encode_dual_rail():
    # a point gives one number per input; a dual-rail input holds a signed
    # value v as (v, 0) or (0, -v)
    rails = {"a": ("A_p", "A_n")}
    assert input_rails(rails, {"a": 2}) == {"A_p": 2.0, "A_n": 0.0}
    assert input_rails(rails, {"a": -3}) == {"A_p": 0.0, "A_n": 3.0}
    assert input_rails(rails, {"a": 0}) == {"A_p": 0.0, "A_n": 0.0}
    assert input_rails({"a": ("A",)}, {"a": 2}) == {"A": 2.0}
    with pytest.raises(DomainError, match="non-negative"):
        input_rails({"a": ("A",)}, {"a": -1})


# --- consistency between evaluation and limit propagation --------------------

vals = st.floats(min_value=0.1, max_value=9.0)


@given(vals, vals)
def test_predicted_limits_match_evaluation(a, b):
    src = "sqrt(abs(a - b)) + a*b + max(a, b)"
    c = lower_to_circuit(src)
    sa = predict_speed(flatten(c), {"a": a, "b": b})
    assert sa.output_value == pytest.approx(eval_expr(src, {"a": a, "b": b}))


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_real_mode_limits_match_evaluation(a, b):
    src = "a*b - b"
    c = lower_to_circuit(src, mode="real")
    sa = predict_speed(flatten(c), {"a": a, "b": b})
    assert sa.output_value == pytest.approx(eval_expr(src, {"a": a, "b": b}), abs=1e-9)


@given(vals, vals)
def test_multiplication_prediction_commutes(a, b):
    left = predict_speed(flatten(lower_to_circuit("a * b", mode="real")), {"a": a, "b": b})
    right = predict_speed(flatten(lower_to_circuit("b * a", mode="real")), {"a": a, "b": b})
    assert left.output_value == pytest.approx(right.output_value)
    assert left.bound.value == right.bound.value
