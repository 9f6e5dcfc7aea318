"""Command line interface: subcommands, exit codes, file outputs.

Exit code contract: 0 success, 2 usage/parse/domain problems, 3 blowup,
4 value not converged / rate not measurable, 5 speed check failed.
"""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crncalc.circuit import (ParseError, compile_expression, format_program, load_program,
                             parse_expression)
from crncalc.simulate import read_trajectory_csv
from crncalc.rates import RateEstimate
import crncalc.cli
import crncalc.rates
import crncalc.simulate
from crncalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compile -------------------------------------------------------------------

def test_compile_to_stdout(capsys):
    code, out, _ = run(capsys, "compile", "--expr", "a/b")
    assert code == 0
    assert "# input a -> A" in out
    assert "# output -> X2" in out
    assert "B + 2X1 -> B + X1 ; k=1" in out


def test_compile_real_mode(capsys):
    code, out, _ = run(capsys, "compile", "--expr", "a - b", "--mode", "real")
    assert code == 0
    assert "# input a -> (A_p, A_n)" in out
    assert "# output -> (X3, X4)" in out


def test_compile_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "compile", "--expr", "a+")
    assert code == 2
    assert "error:" in err and "col 3" in err


def test_compile_mode_error_exits_2(capsys):
    code, _, err = run(capsys, "compile", "--expr", "a - b")
    assert code == 2
    assert "real mode" in err


@pytest.mark.parametrize("sci,plain", [("1e-3*a", "0.001*a"), ("2.5E+0*b", "2.5*b")])
def test_compile_reads_scientific_notation(capsys, sci, plain):
    result = run(capsys, "compile", "--expr", sci)
    assert result[0] == 0 and result == run(capsys, "compile", "--expr", plain)


@pytest.mark.parametrize("expr,message", [
    ("1e400*a", "col 1: number out of a float's range"),
    ("root(2e3, a)", "col 6: root degree must be an integer >= 2"),
    ("root(300, a)", "col 6: root degree must be at most 254"),
    ("root(255, a)", "col 6: root degree must be at most 254"),
    ("_a + b", "col 1: unexpected character '_'"),
])
def test_compile_bad_scientific_literal_exits_2(capsys, expr, message):
    assert run(capsys, "compile", "--expr", expr) == (2, "", f"error: {message}\n")


def test_compile_deep_sum(capsys):
    expr = " + ".join(f"a{i}*b{i}" for i in range(5000))
    code, out, err = run(capsys, "compile", "--expr", expr)
    assert code == 0, err
    assert "# output -> X9999" in out


def test_compile_deep_nesting_exits_2(capsys):
    code, _, err = run(capsys, "compile", "--expr", "(" * 5000 + "a" + ")" * 5000)
    assert code == 2
    assert err.startswith("error:") and "nested deeper" in err
    assert "Traceback" not in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "compile", "--expr", "a", "--frobnicate")
    assert code == 2


# --- simulate / analyze ----------------------------------------------------------

def test_simulate_expression(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--expr", "a + b", "--in", "a=1,b=2",
                     "--t-end", "20", "--out", str(out))
    assert code == 0
    traj = read_trajectory_csv(out.read_text())
    assert traj.species == ("A", "B", "X1")
    assert traj.final("X1") == pytest.approx(3.0, abs=1e-6)


def test_simulate_program_file_round_trip(tmp_path, capsys):
    prog_file = tmp_path / "prog.crn"
    code, _, _ = run(capsys, "compile", "--expr", "1/a", "--out", str(prog_file))
    assert code == 0
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--crn", str(prog_file),
                     "--in", "a=2", "--t-end", "30", "--out", str(out))
    assert code == 0
    traj = read_trajectory_csv(out.read_text())
    assert traj.final("X1") == pytest.approx(0.5, abs=1e-8)


def test_simulate_bare_network(tmp_path, capsys):
    net_file = tmp_path / "net.crn"
    net_file.write_text("species: A[input], X[output]\n"
                        "0 -> X ; k=1\n"
                        "A + X -> A ; k=1\n")
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--crn", str(net_file),
                     "--in", "A=2,X=0", "--t-end", "10", "--out", str(out))
    assert code == 0
    traj = read_trajectory_csv(out.read_text())
    assert traj.final("X") == pytest.approx(0.5, abs=1e-7)


def test_simulate_missing_input_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--expr", "a + b", "--in", "a=1")
    assert code == 2
    assert "missing value" in err


def test_simulate_blowup_exits_3(tmp_path, capsys):
    # a tie blows up Y1 of rsub; the csv still holds the run up to the crossing
    out = tmp_path / "traj.csv"
    code, _, err = run(capsys, "simulate", "--expr", "rsub(a, b)", "--in", "a=1,b=1",
                       "--out", str(out))
    assert code == 3
    assert "note: terminated early: blowup at t=27.63" in err and "(Y1)" in err
    text = out.read_text()
    assert text.splitlines()[-1].startswith("# termination=blowup species=Y1 time=27.63")
    traj = read_trajectory_csv(text)
    assert traj.termination.status == "blowup"
    assert traj.times[-1] == traj.termination.time
    assert traj.final("Y1") == pytest.approx(1e12)


def test_simulate_zero_root_ends(tmp_path):
    # sqrt(0) at loose tolerance: X1's decay rate grows like e^t; the run
    # still ends, early, with the exit code of how it ended
    out = tmp_path / "traj.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "crncalc", "simulate", "--expr", "sqrt(a)",
         "--in", "a=0", "--rtol", "1e-4", "--atol", "1e-6", "--t-end", "40",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    traj = read_trajectory_csv(out.read_text())
    status = traj.termination.status
    assert status in ("blowup", "stiff_failure"), status
    assert proc.returncode == {"blowup": 3, "stiff_failure": 4}[status], proc.stderr
    assert status in proc.stderr
    assert traj.termination.time < 40.0


def test_simulate_refuses_an_input_at_the_blowup_threshold(capsys, tmp_path):
    # an initial value at or above the threshold would end the run before
    # it starts (the product a*b at 1e200 even overflows in the first
    # evaluation): simulate, verify and a sweep row refuse it by name
    code, out, err = run(capsys, "simulate", "--expr", "a*b", "--in", "a=1e200,b=1e200")
    assert code == 2 and out == ""
    assert err == "error: initial value 1e+200 of A is at or above the blowup threshold 1e+12\n"
    code, _, err = run(capsys, "verify", "--expr", "a*b", "--in", "a=1e12,b=1")
    assert code == 2 and "of A is at or above" in err
    code, out, _ = run(capsys, "simulate", "--expr", "a*b", "--in", "a=9.9e11,b=1",
                       "--t-end", "2")
    assert code == 0
    net_file = tmp_path / "net.crn"
    net_file.write_text("species: A[input], X[output]\n0 -> X ; k=1\n")
    code, _, err = run(capsys, "simulate", "--crn", str(net_file), "--in", "X=2e12")
    assert code == 2 and "initial value 2e+12 of X is at or above" in err
    for form in ("linear", "power"):
        code, out, err = run(capsys, "lemma", "--form", form, "--g1", "2", "--g2", "1",
                             "--x0", "1e13")
        assert code == 2 and out == "", form
        assert err == "error: initial value 1e+13 of x is at or above the blowup threshold 1e+12\n"
    code, out, _ = run(capsys, "sweep", "--expr", "a*b", "--grid", "a=1e200,1;b=1")
    _, rows = parse_sweep_csv(out)
    assert rows[0]["status"] == ("ValueError: initial value 1e+200 of A is at or above "
                                 "the blowup threshold 1e+12")
    assert rows[1]["status"] == "ok"


def test_simulate_huge_input_raises_no_warning(capsys):
    # an input above the threshold is refused before anything overflows,
    # so nothing reaches stderr as a numpy warning
    code, out, err = run(capsys, "simulate", "--expr", "a+b", "--in", "a=1e300,b=1")
    assert code == 2 and out == ""
    assert "Warning" not in err and "at or above the blowup threshold" in err


def test_analyze_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    run(capsys, "simulate", "--expr", "1/a", "--in", "a=2",
        "--t-end", "30", "--out", str(out))
    report = tmp_path / "report.json"
    code, text, _ = run(capsys, "analyze", "--traj", str(out), "--species", "X1",
                        "--target", "0.5", "--digits", "6", "--report", str(report))
    assert code == 0
    assert "rho_hat =" in text and "T_6 =" in text
    data = json.loads(report.read_text())
    assert data["rate"]["rho_hat"] == pytest.approx(1.0, abs=0.15)
    assert data["digits"]["time"] == pytest.approx(6 * math.log(10), rel=0.25)


def test_analyze_of_a_simulate_csv_reads_what_verify_reads(tmp_path, capsys):
    # simulate --out writes the samples verify fits, so analyze of that
    # csv at verify's target and floor measures verify's rate exactly
    point = ["--expr", "sqrt(1/(a + b))", "--in", "a=0.1,b=0.1"]
    report = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", *point, "--report", str(report))
    assert code == 0
    (entry,) = json.loads(report.read_text())["outputs"]
    assert entry["species"] == "X3" and entry["target"] == 5 ** 0.5
    traj = tmp_path / "s.csv"
    code, _, _ = run(capsys, "simulate", *point, "--out", str(traj))
    assert code == 0
    assert len(read_trajectory_csv(traj.read_text()).times) == crncalc.simulate._SAMPLES
    floor = crncalc.rates.auto_err_floor(entry["target"], 1e-10, 1e-12)
    analyzed = tmp_path / "analyze.json"
    code, _, _ = run(capsys, "analyze", "--traj", str(traj), "--species", "X3",
                     "--target", repr(entry["target"]), "--floor", repr(floor),
                     "--report", str(analyzed))
    assert code == 0
    assert json.loads(analyzed.read_text())["rate"] == entry["rate"]


def test_analyze_detrend_flag(tmp_path, capsys):
    # two chained identifications give a (c1 + c2 t) e^{-t} error; analyze
    # always fits the prefactor and recovers the unit rate, so the flag that
    # once chose that fit is refused as unknown
    out = tmp_path / "traj.csv"
    run(capsys, "simulate", "--expr", "(a + a) + (a + a)", "--in", "a=1",
        "--t-end", "30", "--out", str(out))
    argv = ["analyze", "--traj", str(out), "--species", "X2", "--target", "4"]
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert float(text.split("rho_hat =")[1].split()[0]) == pytest.approx(1.0, abs=0.1)
    code, _, err = run(capsys, *argv, "--detrend")
    assert code == 2 and "unrecognized arguments: --detrend" in err


def test_analyze_without_rows_exits_2(tmp_path, capsys):
    traj = tmp_path / "h.csv"
    traj.write_text("t,X1\n# termination=completed time=40\n")
    code, _, err = run(capsys, "analyze", "--traj", str(traj), "--target", "1")
    assert code == 2
    assert err.startswith("error:") and "no rows" in err and "Traceback" not in err


@pytest.mark.parametrize("csv_text,argv,message", [
    # samples that share one time: no window of them can show a rate
    ("t,x\n" + "3,1.001\n" * 20, [], "row 2: time 3 does not come after the time 3"),
    ("t,x\n2,1.1\n1,1.01\n0,1.001\n", ["--digits", "1"],
     "row 2: time 1 does not come after the time 2 of the row before"),
    ("t,x\n0,1.1\nnan,1.01\n", [], "row 2: time nan is not finite"),
    ("t,x\n-inf,1.1\n0,1.01\n", [], "row 1: time -inf is not finite"),
    ("t,x,y\n0,1,2\n1,1,2\n", ["--species", "z"],
     "species 'z' is not in the trajectory, whose species are x, y")])
def test_analyze_bad_trajectory_exits_2(tmp_path, capsys, csv_text, argv, message):
    traj = tmp_path / "traj.csv"
    traj.write_text(csv_text)
    code, out, err = run(capsys, "analyze", "--traj", str(traj), "--target", "1", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_analyze_multi_species_without_species_exits_2(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    run(capsys, "simulate", "--expr", "a + b", "--in", "a=1,b=2", "--out", str(traj))
    code, out, err = run(capsys, "analyze", "--traj", str(traj), "--target", "3")
    assert code == 2 and out == ""
    assert err == "error: --species required for multi-species trajectories\n"


def test_digits_307_is_the_threshold_the_report_prints(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, text, _ = run(capsys, "verify", "--expr", "a+b", "--in", "a=1,b=2",
                        "--digits", "307", "--report", str(report))
    assert code == 4 and "> 1e-307" in text
    assert json.loads(report.read_text())["accuracy"]["threshold"] == 1e-307


def test_analyze_not_converged_exits_4(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    run(capsys, "simulate", "--expr", "a + b", "--in", "a=1,b=2",
        "--t-end", "2", "--out", str(out))
    code, text, _ = run(capsys, "analyze", "--traj", str(out), "--species", "X1",
                        "--target", "3", "--digits", "6")
    assert code == 4
    assert "not" in text


@pytest.mark.parametrize("argv,message", [
    # 10^-digits is the accuracy required; a threshold of 1 or more passes anything
    (["verify", "--expr", "a", "--in", "a=1", "--digits", "-3"], "--digits must be at least 1"),
    (["verify", "--expr", "a", "--in", "a=1", "--digits", "0"], "--digits must be at least 1"),
    (["analyze", "--traj", "{traj}", "--target", "1", "--digits", "0"],
     "--digits must be at least 1"),
    (["analyze", "--traj", "{traj}", "--target", "1", "--floor", "1e-2", "--ceil", "1e-3"],
     "got floor 0.01 and ceiling 0.001 for target 1"),
    # 10^-308 is subnormal and 10^-324 is 0.0: a threshold the report
    # would not print as the one applied
    (["verify", "--expr", "a", "--in", "a=1", "--digits", "308"],
     "--digits must be at most 307, since 10^-308 is below the smallest normal double"),
    (["verify", "--expr", "a+b", "--in", "a=1,b=2", "--digits", "400"],
     "--digits must be at most 307"),
    (["analyze", "--traj", "{traj}", "--target", "1", "--digits", "308"],
     "--digits must be at most 307")])
def test_settings_out_of_range_exit_2(tmp_path, capsys, argv, message):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,X\n" + "".join(f"{t},{1 + math.exp(-t)!r}\n" for t in range(30)))
    code, out, err = run(capsys, *(a.format(traj=traj) for a in argv))
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("argv", [
    # refused whatever the run would end in: a blowup, no convergence, a pass
    ["verify", "--expr", "max(a,b)", "--in", "a=2,b=2", "--slack", "7"],
    ["verify", "--expr", "a+b", "--in", "a=2,b=2", "--t-end", "3", "--slack", "7"],
    ["verify", "--expr", "a+b", "--in", "a=2,b=2", "--slack", "-0.1"],
    ["lemma", "--form", "power", "--g1", "1", "--g2", "exp(-4*t)", "--m", "1", "--slack", "7"],
    ["lemma", "--form", "linear", "--g1", "2", "--g2", "1", "--slack", "1"]])
def test_slack_outside_unit_interval_exits_2_before_integrating(capsys, monkeypatch, argv):
    monkeypatch.setattr(crncalc.simulate, "integrate",
                        lambda *a, **k: pytest.fail("integrated despite a bad --slack"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: slack must lie in [0, 1), got {float(argv[-1]):g}\n"


# --- verify ----------------------------------------------------------------------

def test_verify_passes(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--expr", "sqrt(1/(a+b))",
                       "--in", "a=2,b=3", "--t-end", "30",
                       "--report", str(report))
    assert code == 0, out
    assert "pass:" in out
    data = json.loads(report.read_text())
    assert data["verdict"]["passed"] is True
    assert data["target"] == pytest.approx(math.sqrt(0.2))
    assert data["exit_code"] == 0
    assert data["outputs"][0]["rate"]["rho_hat"] >= 0.85


def test_verify_report_has_stats_and_negatives(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--expr", "a/b", "--mode", "real",
                     "--in", "a=1.5,b=-0.5", "--t-end", "40", "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    stats = data["stats"]
    assert stats["steps"] > 0 and stats["rejected"] >= 0
    steps, rejected = stats["steps"], stats["rejected"]
    assert stats["rhs_evals"] == 2 + 12 * (steps + rejected) + 3 * steps
    assert isinstance(data["negatives"], list)
    for entry in data["negatives"]:
        assert set(entry) == {"species", "time", "value"} and entry["value"] < 0


def test_verify_takes_few_steps(tmp_path, capsys):
    # the 8th-order pair at the default tolerances, its steps capped by the
    # circuit's limit spectrum; a 5th-order pair takes 141
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--expr", "a + b", "--in", "a=1,b=2",
                     "--report", str(report))
    assert code == 0
    assert json.loads(report.read_text())["stats"]["steps"] <= 40


def test_verify_blowup_exits_3(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--expr", "rsub(a, b)",
                       "--in", "a=1,b=1", "--t-end", "40",
                       "--report", str(report))
    assert code == 3
    assert "blowup: Y1 crossed 1e+12" in out
    assert "X1 ->" in out and "target 0" in out
    data = json.loads(report.read_text())
    assert data["termination"]["status"] == "blowup"
    assert data["termination"]["time"] == pytest.approx(math.log(1e12), rel=1e-3)


def test_verify_not_converged_exits_4(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "a + b",
                       "--in", "a=1,b=2", "--t-end", "5")
    assert code == 4
    assert "not converged" in out


def test_verify_unmeasurable_rate_exits_4(capsys):
    # the rail X7 of 0.144 / -36.15 never has an error inside the fit window
    code, out, _ = run(capsys, "verify", "--mode", "real", "--expr", "a/b",
                       "--in", "a=0.144,b=-36.15")
    assert code == 4
    assert out == ("rate not measurable for X7: only 0 samples with error in "
                   "[1e-09, 0.01]\n")


def test_verify_fit_floor_follows_atol(tmp_path, capsys):
    # samples good only to about atol are fitted no lower than 10 * atol:
    # at 1e-4 the rate is measured, at 1e-3 that floor meets the ceiling
    report = tmp_path / "report.json"
    point = ["--expr", "a*b", "--in", "a=2,b=3"]
    code, out, _ = run(capsys, "verify", *point, "--atol", "1e-4", "--report", str(report))
    assert code == 0, out
    (entry,) = json.loads(report.read_text())["outputs"]
    assert entry["rate"]["rho_hat"] == pytest.approx(1.0, abs=0.05)
    code, out, _ = run(capsys, "verify", *point, "--atol", "1e-3")
    assert code == 4
    assert out == ("rate not measurable for X1: need 0 < error floor < error ceiling, "
                   "got floor 0.01 and ceiling 0.01 for target 6\n")


def test_verify_attempt_budget_exits_4(tmp_path, capsys, monkeypatch):
    # at these tolerances Y1 blows up after 31 attempts; a budget of 10 ends it first
    monkeypatch.setattr(crncalc.simulate, "_MAX_ATTEMPTS", 10)
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--expr", "sqrt(a)", "--in", "a=0",
                       "--rtol", "1e-4", "--atol", "1e-6", "--report", str(report))
    assert code == 4
    assert "integration failed: Step attempt budget of 10" in err
    data = json.loads(report.read_text())
    assert data["termination"]["status"] == "stiff_failure"
    assert data["stats"]["steps"] + data["stats"]["rejected"] >= 10


def test_verify_speed_failure_exits_5(capsys, monkeypatch):
    # a correctly built program cannot honestly miss its bound, so pin the
    # estimator to a low value for every row of the block to exercise the
    # failure path
    monkeypatch.setattr(crncalc.rates, "estimate_rate",
                        lambda trajs, *a, **k: [RateEstimate(0.3, (5.0, 20.0), 0.999, 50)]
                        * len(trajs))
    code, out, _ = run(capsys, "verify", "--expr", "a + b",
                       "--in", "a=1,b=2", "--t-end", "30")
    assert code == 5
    assert "FAIL" in out


def test_verify_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--expr", "1/a", "--in", "a=0")
    assert code == 2
    assert "X1" in err


def test_verify_sigma_scales_required_bound(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--expr", "a + b", "--in", "a=1,b=2",
                       "--sigma", "2", "--t-end", "20", "--report", str(report))
    assert code == 0, out
    data = json.loads(report.read_text())
    assert data["predicted_bound"]["value"] == 2.0
    assert "sigma=2" in data["predicted_bound"]["case"]


def test_sigma_3_is_a_time_change_end_to_end(tmp_path, capsys):
    # sigma = 3 divides times inexactly, unlike a power of two.  A sweep at
    # sigma = 3 measures the rates of the program text whose rate
    # constants are all 3, swept at sigma = 1 on its expanded field;
    # verify passes against bound 3; simulate ends at t_end
    prog = compile_expression("1/(a + b)")
    scaled = tmp_path / "scaled.crn"
    scaled.write_text(format_program(prog).replace("; k=1\n", "; k=3\n"))
    code, out, _ = run(capsys, "sweep", "--expr", "1/(a + b)", "--grid", "a=0.5,2;b=1,3",
                       "--sigma", "3", "--t-end", "10")
    assert code == 0
    code, ref, _ = run(capsys, "sweep", "--crn", str(scaled), "--grid", "a=0.5,2;b=1,3",
                       "--target", "1/(a + b)", "--species", "X2", "--t-end", "10")
    assert code == 0
    for row, want in zip(parse_sweep_csv(out)[1], parse_sweep_csv(ref)[1], strict=True):
        assert row["status"] == want["status"] == "ok" and row["target"] == want["target"]
        assert float(row["rho_hat"]) == pytest.approx(float(want["rho_hat"]), rel=1e-6)
        assert float(row["rho_hat"]) > 3
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--expr", "a + b", "--in", "a=1,b=2",
                       "--sigma", "3", "--report", str(report))
    assert code == 0, out
    data = json.loads(report.read_text())
    assert data["predicted_bound"]["value"] == 3.0 and data["verdict"]["passed"]
    code, out, _ = run(capsys, "simulate", "--expr", "a + b", "--in", "a=1,b=2",
                       "--sigma", "3", "--t-end", "10")
    assert code == 0
    *_, last, term = out.splitlines()
    assert last.startswith("10,") and term == "# termination=completed time=10"


@pytest.mark.parametrize("values, message", [
    ("a=1", "ValueError: missing value for input 'b'"),
    ("a=-1,b=1", "DomainError: input a must be non-negative in nonneg mode"),
    ("a=1,b=1,c=2", "ValueError: unknown inputs ['c']")])
def test_a_bad_input_has_one_message(capsys, values, message):
    # verify, simulate and a sweep row bind a point's values to rails by
    # one rule, so they say the same
    text = message.partition(": ")[2]
    for command in ("verify", "simulate"):
        code, _, err = run(capsys, command, "--expr", "a + b", "--in", values)
        assert (code, err) == (2, f"error: {text}\n"), command
    code, out, _ = run(capsys, "sweep", "--expr", "a + b", "--grid", values.replace(",", ";"))
    assert code == 0 and parse_sweep_csv(out)[1][0]["status"] == message


def test_verify_plot_data(tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    code, _, _ = run(capsys, "verify", "--expr", "1/a", "--in", "a=2",
                     "--t-end", "30", "--plot-data", str(plot))
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "t,ln_err_X1"
    assert len(lines) > 20


def test_verify_out_writes_the_simulate_csv(tmp_path, capsys):
    for values in ("a=1,b=2", "a=3,b=0.5", "a=2,b=2"):
        argv = ["--expr", "a/b", "--in", values, "--t-end", "20"]
        verified, simulated = tmp_path / "v.csv", tmp_path / "s.csv"
        run(capsys, "verify", *argv, "--out", str(verified))
        assert run(capsys, "simulate", *argv, "--out", str(simulated))[0] == 0
        assert verified.read_text() == simulated.read_text(), values


# --- lemma -----------------------------------------------------------------------

def test_lemma_linear(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "lemma", "--form", "linear",
                       "--g1", "2 + exp(-3*t)", "--g2", "1", "--report", str(report))
    assert code == 0
    assert "driven_linear" in out and "pass" in out
    assert "target 2" in out
    rate = json.loads(report.read_text())["rate"]
    assert set(rate) == {"rho_hat", "fit_window", "r_squared", "samples"}
    assert rate["samples"] >= crncalc.rates.MIN_FIT_SAMPLES


def test_lemma_power(capsys):
    code, out, _ = run(capsys, "lemma", "--form", "power",
                       "--g1", "1", "--g2", "4", "--m", "2")
    assert code == 0, out
    assert "driven_power" in out
    assert "target 0.5" in out


def test_lemma_growth_family(capsys):
    code, out, _ = run(capsys, "lemma", "--form", "power", "--g1", "1",
                       "--g2", "exp(-0.6*t)", "--m", "2", "--t-end", "30")
    assert code == 0, out
    assert out.startswith("unbounded_growth: 1/x -> 0  pass: rho_hat=")


def test_lemma_slow_growth_is_measured_or_refused(tmp_path, capsys):
    # bound 0.05: by t = 80 x has grown only to about e^4, so 1/x never
    # enters the fit window and the rate is not measurable; by t = 400 it
    # is measured at the bound
    argv = ["lemma", "--form", "power", "--g1", "1", "--g2", "exp(-0.05*t)", "--m", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 4
    assert out.startswith("rate not measurable: only 0 samples with error in")
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--t-end", "400", "--report", str(report))
    assert code == 0, out
    assert out.startswith("unbounded_growth: 1/x -> 0  pass: rho_hat=0.05 vs required 0.0425")
    data = json.loads(report.read_text())
    assert data["target"] is None and data["verdict"] == {"passed": True, "required": 0.0425}
    assert data["rate"]["rho_hat"] == pytest.approx(0.05, rel=1e-3)


@pytest.mark.parametrize("form", ["linear", "power"])
def test_lemma_m_below_1_exits_2_naming_m(capsys, form):
    code, out, err = run(capsys, "lemma", "--form", form, "--g1", "1", "--g2", "1", "--m", "0")
    assert (code, out, err) == (2, "", "error: m must be at least 1, got 0\n")


def test_lemma_precondition_exits_2(capsys):
    code, _, err = run(capsys, "lemma", "--form", "power",
                       "--g1", "2", "--g2", "exp(-1*t)")
    assert code == 2
    assert "not covered" in err


def test_lemma_blowup_outside_the_growth_family_exits_3(capsys):
    # the power target (2 / 1e-300)^1 lies above the blowup threshold
    code, out, _ = run(capsys, "lemma", "--form", "power", "--g1", "2", "--g2", "1e-300")
    assert code == 3
    assert out == "blowup at t=13.8155\n"


@pytest.mark.parametrize("argv", [
    ["--form", "linear", "--g1", "2", "--g2", "1000000"],
    ["--form", "power", "--g1", "1", "--g2", "exp(-0.6*t)", "--m", "2"]])
def test_lemma_attempt_budget_exits_4(tmp_path, capsys, monkeypatch, argv):
    # a run that used up its attempts is judged as verify judges it, before
    # the driven or growth family is checked
    monkeypatch.setattr(crncalc.simulate, "_MAX_ATTEMPTS", 10)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "lemma", *argv, "--report", str(report))
    assert code == 4
    assert "integration failed: Step attempt budget of 10" in err
    assert "pass" not in out and "FAIL" not in out
    assert json.loads(report.read_text())["termination"] == "stiff_failure"


def test_lemma_unmeasurable_target_exits_4(tmp_path, capsys):
    # the target 2e8 puts the error floor (10 rtol (1 + target)) above the
    # ceiling, so no fit window exists: the rate cannot be measured
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "lemma", "--form", "linear", "--g1", "2", "--g2", "1e-8",
                         "--report", str(report))
    assert code == 4 and err == ""
    assert out.startswith("rate not measurable:")
    assert "floor 0.2 and ceiling 0.01 for target 2e+08" in out
    assert json.loads(report.read_text())["rate_error"] in out


def test_lemma_rate_too_fast_to_resolve_exits_4(capsys):
    # at m = 300 (bound 600) the error falls from above the floor to below
    # it within the 1% settle margin: no rate was measured, so none passes
    code, out, err = run(capsys, "lemma", "--form", "power", "--g1", "2", "--g2", "1",
                         "--m", "300")
    assert code == 4 and err == ""
    assert out.startswith("rate not measurable: error fell below the floor")
    assert "inf" not in out


def test_lemma_bad_forcing_exits_2(capsys):
    code, _, err = run(capsys, "lemma", "--form", "linear",
                       "--g1", "3*t", "--g2", "1")
    assert code == 2


@pytest.mark.parametrize("r,m,c", [(1, 1, 1.0), (2, 2, 2.0)])
def test_lemma_growth_resonance_passes_at_default_settings(capsys, r, m, c):
    # criterion 6's resonances r == m: 1/x decays as (c1 + c2 t) e^{-t},
    # whose prefactor the fit takes out; the window closes at x = 1e9 and
    # the run ends in a blowup at 1e12
    code, out, _ = run(capsys, "lemma", "--form", "power", "--g1", "1",
                       "--g2", f"{c}*exp(-{r}*t)", "--m", str(m))
    assert code == 0, out
    assert out.startswith("unbounded_growth: 1/x -> 0  pass: rho_hat=1")
    assert out.endswith("vs required 0.85 = (1-0.15)*1 [min{rho_g2/m, 1}]\n")


LEMMA_DRIVEN = ["lemma", "--form", "linear", "--g1", "2 + exp(-3*t)", "--g2", "1 + exp(-0.5*t)"]


def test_lemma_driven_output_is_kept_and_horizon_defaults_to_80(tmp_path, capsys):
    code, out, _ = run(capsys, *LEMMA_DRIVEN, "--t-end", "60",
                       "--report", str(tmp_path / "60.json"))
    assert code == 0
    assert out == ("driven_linear: target 2  pass: rho_hat=0.5035 vs required 0.425 "
                   "= (1-0.15)*0.5 [min{rho_g1, rho_g2, g2*}]\n")
    report = json.loads((tmp_path / "60.json").read_text())
    rate = report.pop("rate")
    assert report == {"family": "driven_linear", "form": "linear", "g1": "2 + exp(-3*t)",
                      "g2": "1 + exp(-0.5*t)", "m": 1, "x0": 1.0, "target": 2.0,
                      "predicted_bound": {"case": "min{rho_g1, rho_g2, g2*}", "value": 0.5},
                      "termination": "completed",
                      "verdict": {"passed": True, "required": 0.425}}
    assert rate["samples"] == 820
    assert rate["rho_hat"] == pytest.approx(0.5035422798915258, rel=1e-9)
    assert rate["fit_window"] == pytest.approx([11.969981238273922, 40.67542213883678], rel=1e-9)
    assert rate["r_squared"] == pytest.approx(0.9999963981036241, rel=1e-9)
    # without --t-end the run goes to 80, the growth family's horizon
    runs = []
    for name, argv in [("default", []), ("80", ["--t-end", "80"])]:
        path = tmp_path / f"{name}.json"
        runs.append((*run(capsys, *LEMMA_DRIVEN, *argv, "--report", str(path)), path.read_text()))
    assert runs[0] == runs[1] and runs[0][1] != out


# --- sweep -----------------------------------------------------------------------

def parse_sweep_csv(text):
    header, *rows = csv.reader(l for l in text.splitlines() if l and not l.startswith("#"))
    return header, [dict(zip(header, cells)) for cells in rows]


def test_sweep_expression_grid(tmp_path, capsys):
    # a=1 is skipped: the default init starts the output exactly at the
    # fixed point there, which reports an infinite rate
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--expr", "1/a",
                     "--grid", "a=0.5,2,4,8", "--t-end", "60", "--out", str(out))
    assert code == 0
    text = out.read_text()
    header, rows = parse_sweep_csv(text)
    assert header[:2] == ["a", "target"]
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    rhos = [float(r["rho_hat"]) for r in rows]
    for rho in rhos:
        assert abs(rho - 1.0) < 0.1
    spread = (max(rhos) - min(rhos)) / (sum(rhos) / len(rhos))
    assert spread < 0.1
    assert "# rho_hat over 4 points" in text


def test_sweep_network_grid_input_independence(tmp_path, capsys):
    net_file = tmp_path / "designed.crn"
    net_file.write_text("species: A[input], X[output]\n"
                        "X -> 2X ; k=1\n"
                        "A + 2X -> A + X ; k=1\n")
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--crn", str(net_file),
                       "--grid", "A=0.1,1,10,100;X=0.5",
                       "--target", "1/A", "--species", "X",
                       "--t-end", "60", "--out", str(out))
    assert code == 0, err
    _, rows = parse_sweep_csv(out.read_text())
    assert len(rows) == 4
    rhos = [float(r["rho_hat"]) for r in rows if r["status"] == "ok"]
    assert len(rhos) == 4
    spread = (max(rhos) - min(rhos)) / (sum(rhos) / len(rhos))
    assert spread < 0.1


def test_sweep_row_failures_do_not_abort(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # a=0 turns the inversion domain error into a failed row, not an abort
    code, _, _ = run(capsys, "sweep", "--expr", "1/a", "--grid", "a=0,1",
                     "--t-end", "40", "--out", str(out))
    assert code == 0
    _, rows = parse_sweep_csv(out.read_text())
    assert len(rows) == 2
    statuses = sorted(r["status"] for r in rows)
    assert statuses[0].startswith("DomainError: gate X1 (inversion)")
    assert statuses[1] == "ok"


@pytest.mark.parametrize("argv,status", [
    (["--expr", "a+b", "--grid", "a=1;b=1;c=2;d=3"], "ValueError: unknown inputs ['c', 'd']"),
    # a fit that raised: the point verify exits 4 on
    (["--expr", "a/b", "--mode", "real", "--grid", "a=0.144;b=-36.15"],
     "EstimationError: only 0 samples with error in [1e-09, 0.01]"),
], ids=["unknown_inputs", "fit_raised"])
def test_sweep_row_status_is_one_quoted_cell(capsys, argv, status):
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert [len(row) for row in rows] == [len(header)]
    assert rows[0][-1] == status


def test_sweep_attempt_budget_fails_the_row(capsys, monkeypatch):
    monkeypatch.setattr(crncalc.simulate, "_MAX_ATTEMPTS", 10)
    code, out, _ = run(capsys, "sweep", "--expr", "a + b", "--grid", "a=1,2;b=3")
    assert code == 0
    header, rows = parse_sweep_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert row["termination"] == "stiff_failure"
        assert row["status"] == "stiff_failure: Step attempt budget of 10 used up."
        assert row["target"] == row["rho_hat"] == row["final_abs_error"] == ""
    assert "# rho_hat over" not in out


def test_sweep_summary_counts_inf_rows(capsys):
    # at a = b = 1e-5 the error of a*b starts below the fit floor, so the
    # row is ok with rho_hat inf; the summary says so instead of dropping it
    code, out, _ = run(capsys, "sweep", "--expr", "a*b", "--grid", "a=1e-5,1;b=1e-5")
    assert code == 0
    _, rows = parse_sweep_csv(out)
    assert [(r["status"], r["rho_hat"]) for r in rows][0] == ("ok", "inf")
    assert math.isfinite(float(rows[1]["rho_hat"]))
    assert out.splitlines()[-2].startswith("# rho_hat over 1 points: ")
    assert out.splitlines()[-1] == ("# rho_hat inf at 1 of 2 ok points: "
                                    "the error never reached the fit floor")
    code, out, _ = run(capsys, "sweep", "--expr", "a*b", "--grid", "a=1e-5;b=1e-5")
    assert code == 0 and "# rho_hat over" not in out
    assert out.endswith("# rho_hat inf at 1 of 1 ok points: "
                        "the error never reached the fit floor\n")


def test_sweep_reruns_a_stiff_lane_alone(capsys, monkeypatch):
    # the tie a*b = c takes every step attempt its batch can afford, so the
    # whole batch ends in stiff_failure; each of its lanes runs again alone
    # and gets the row of its own one-point sweep, and the tie stays stiff
    monkeypatch.setattr(crncalc.simulate, "_MAX_ATTEMPTS", 300)
    real = crncalc.simulate.integrate
    calls = []

    def spy(rhs, y0, *args, **kwargs):
        lanes = real(rhs, y0, *args, **kwargs)
        calls.append([lane.termination.status for lane in lanes])
        return lanes

    monkeypatch.setattr(crncalc.simulate, "integrate", spy)
    code, out, _ = run(capsys, "sweep", "--expr", "max(a*b, c)", "--grid", "a=0.5,1;b=1;c=50,1")
    assert code == 0
    assert calls == [["stiff_failure"] * 4, ["completed"], ["completed"], ["completed"],
                     ["stiff_failure"]]
    lines = out.splitlines()
    for line in lines[1:5]:
        a, b, c = line.split(",")[:3]
        _, solo, _ = run(capsys, "sweep", "--expr", "max(a*b, c)", "--grid", f"a={a};b={b};c={c}")
        assert solo.splitlines()[1] == line
    assert lines[4].endswith(",stiff_failure,stiff_failure: Step attempt budget of 300 used up.")
    assert [line.split(",")[-1] for line in lines[1:4]] == ["ok"] * 3
    # a block in which no lane ends stiff is integrated once
    calls.clear()
    code, out, _ = run(capsys, "sweep", "--expr", "max(a*b, c)", "--grid", "a=0.5,1;b=1;c=50")
    assert code == 0 and calls == [["completed"] * 2]


def test_sweep_crn_requires_target_and_species(tmp_path, capsys):
    net_file = tmp_path / "net.crn"
    net_file.write_text("species: A[input], X[output]\n0 -> X ; k=1\n")
    code, _, err = run(capsys, "sweep", "--crn", str(net_file), "--grid", "A=1")
    assert code == 2
    assert "--target" in err


def test_sweep_expr_refuses_target_and_species(capsys, monkeypatch):
    # they measure a --crn sweep; an expression sweep would ignore them
    monkeypatch.setattr(crncalc.simulate, "integrate",
                        lambda *a, **k: pytest.fail("integrated despite --target or --species"))
    for flags in (["--target", "x"], ["--species", "Q"], ["--target", "x", "--species", "Q"]):
        code, out, err = run(capsys, "sweep", "--expr", "a", "--grid", "a=1", *flags)
        assert code == 2 and out == "", flags
        assert err == "error: --target and --species apply to --crn sweeps only\n", flags


@pytest.mark.parametrize("expr,grid,target", [("1/a", "a=2", 0.5), ("2*a", "a=1.5", 3.0)])
def test_sweep_crn_reads_program_text(tmp_path, capsys, expr, grid, target):
    # the program's bindings hold: 1/a's X1 starts at 1 (init+) and 2*a's
    # constant K1 at 2, and the grid binds the program's inputs
    path = tmp_path / "prog.crn"
    path.write_text(format_program(compile_expression(expr)))
    code, out, err = run(capsys, "sweep", "--crn", str(path), "--grid", grid,
                         "--target", expr, "--species", "X1")
    assert code == 0, err
    _, (row,) = parse_sweep_csv(out)
    assert row["status"] == "ok" and float(row["target"]) == target
    assert float(row["final_abs_error"]) < 1e-6


def test_sweep_crn_unknown_species_exits_2(tmp_path, capsys, monkeypatch):
    net_file = tmp_path / "net.crn"
    net_file.write_text("species: A[input], X[output]\n"
                        "X -> 2X ; k=1\n"
                        "A + 2X -> A + X ; k=1\n")

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a sweep with an unknown --species")

    monkeypatch.setattr(crncalc.simulate, "integrate", no_integration)
    code, out, err = run(capsys, "sweep", "--crn", str(net_file),
                         "--grid", "A=1,2;X=0.5", "--target", "A", "--species", "Q")
    assert code == 2
    assert out == ""
    assert "--species Q" in err


def test_sweep_crn_bad_target_exits_2(tmp_path, capsys, monkeypatch):
    net_file = tmp_path / "net.crn"
    net_file.write_text("species: A[input], X[output]\n"
                        "X -> 2X ; k=1\n"
                        "A + 2X -> A + X ; k=1\n")

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a sweep with an unparsable --target")

    monkeypatch.setattr(crncalc.simulate, "integrate", no_integration)
    code, out, err = run(capsys, "sweep", "--crn", str(net_file),
                         "--grid", "A=1,2;X=0.5", "--target", "1/(A", "--species", "X")
    assert code == 2
    assert out == ""
    assert "col 5" in err


BINDING_ERRORS = [
    ("# input a -> A\n# output -> Q\n", "binding references undeclared species Q"),
    ("# input a -> A\n", "program text lacks an '# output ->' binding"),
    # a line that starts with a binding keyword must have its form
    ("# output X\n", "line 1: bad binding line '# output X'"),
    ("# input a -> A\n# input a -> X\n# output -> X\n", "line 2: input a bound twice"),
    ("# input a -> A\n# const K1 = abc\n# output -> X\n",
     "line 2: const K1: could not convert string to float: 'abc'"),
    # a species starts at one value: no binding may overwrite another's
    ("# input a -> A\n# input b -> A\n# output -> X\n", "line 2: species A bound twice"),
    ("# input a -> A\n# const A = 2\n# output -> X\n", "line 2: species A bound twice"),
    ("# input a -> (A, A)\n# output -> X\n", "line 1: species A bound twice"),
]
CRN_RUNS = {"simulate": ["--in", "a=1"],
            "sweep": ["--grid", "a=1", "--target", "a", "--species", "X"]}


@pytest.mark.parametrize("command", CRN_RUNS)
@pytest.mark.parametrize("bindings,message", BINDING_ERRORS, ids=[
    "undeclared", "no_output", "malformed", "input_twice", "bad_const",
    "species_of_two_inputs", "species_of_input_and_const", "species_of_both_rails"])
def test_crn_binding_error_exits_2(tmp_path, capsys, command, bindings, message):
    # a text with a binding line is a program, and its binding errors are
    # its own: it is not read again as a bare network
    path = tmp_path / "p.crn"
    path.write_text(bindings + "species: A[input], X\nA -> A + X ; k=1\nX -> 0 ; k=1\n")
    code, out, err = run(capsys, command, "--crn", str(path), *CRN_RUNS[command])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("text", [
    "", "# nothing\n", "species: X[input]\n", "species: A[input], X\nA + X -> A + X ; k=1\n",
    "0 -> X\n"], ids=["empty", "comment_only", "header_only", "held_only", "source"])
def test_crn_text_of_few_species_ends_in_a_documented_exit(tmp_path, capsys, command, text):
    # a text that declares and uses no species is refused; one whose
    # species are all held, or grow without bound, runs
    path = tmp_path / "p.crn"
    path.write_text(text)
    args = (["--in", "X=1"] if command == "simulate"
            else ["--grid", "X=1,2", "--target", "1", "--species", "X"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--crn", str(path), "--t-end", "5", *args])
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if "species" not in text and "X" not in text:
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", "error: program text declares no species\n")


@pytest.mark.parametrize("command", CRN_RUNS)
def test_crn_refuses_mode(tmp_path, capsys, command):
    # --crn text is compiled already, so --mode would be ignored; it is
    # refused before the file is read
    code, out, err = run(capsys, command, "--crn", str(tmp_path / "absent.crn"),
                         "--mode", "real", *CRN_RUNS[command])
    assert (code, out) == (2, "")
    assert err == "error: --mode applies to --expr only: --crn text is already compiled\n"


def test_sweep_bad_grid_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--expr", "1/a", "--grid", "a")
    assert code == 2
    assert "grid axis" in err


@pytest.mark.parametrize("grid,message", [("a=1,2;a=3", "grid axis 'a' given twice"),
                                          ("a=1; =2", "bad grid axis '=2'"),
                                          pytest.param(" ; ", "--grid names no axis",
                                                       id="no_axis"),
                                          pytest.param(";;", "--grid names no axis",
                                                       id="only_separators"),
                                          pytest.param(" ", "--grid names no axis",
                                                       id="blank"),
                                          pytest.param("a=1,", "grid axis 'a': could not",
                                                       id="empty_value")])
def test_sweep_repeated_or_empty_axis_exits_2(capsys, grid, message):
    code, out, err = run(capsys, "sweep", "--expr", "a", "--grid", grid)
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["sweep", "--expr", "a + b", "--grid", "a=1,2;b=3", "--t-end", "20"]
    assert run(capsys, *args, "--out", str(serial))[0] == 0
    assert run(capsys, *args, "--jobs", "2", "--out", str(parallel))[0] == 0
    assert serial.read_text() == parallel.read_text()


def test_sweep_blocks_in_parallel_match_serial(tmp_path, capsys, monkeypatch):
    # blocks of 2 lanes make 3 blocks, so --jobs 2 really hands them out
    monkeypatch.setattr(crncalc.cli, "SWEEP_BLOCK", 2)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["sweep", "--expr", "max(a, b)", "--grid", "a=1,2,3;b=2,3", "--t-end", "30"]
    assert run(capsys, *args, "--out", str(serial))[0] == 0
    assert run(capsys, *args, "--jobs", "2", "--out", str(parallel))[0] == 0
    assert serial.read_text() == parallel.read_text()
    _, rows = parse_sweep_csv(serial.read_text())
    assert [r["termination"] for r in rows] == ["completed", "completed", "blowup",
                                                "completed", "completed", "blowup"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_1_exits_2(capsys, jobs):
    code, out, err = run(capsys, "sweep", "--expr", "a", "--grid", "a=1,2", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_sweep_pool_has_no_more_workers_than_blocks(tmp_path, capsys, monkeypatch):
    # a fork pool starts all its workers on the first submit, so --jobs 64
    # over 2 blocks must ask for 2; the stand-in maps in this process
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(crncalc.cli, "SWEEP_BLOCK", 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["sweep", "--expr", "a + b", "--grid", "a=1,2,3;b=2", "--t-end", "20"]
    assert run(capsys, *args, "--out", str(serial))[0] == 0
    assert run(capsys, *args, "--jobs", "64", "--out", str(parallel))[0] == 0
    assert sizes == [2]
    assert serial.read_text() == parallel.read_text()


def test_sweep_mode_error_exits_2_before_any_point(tmp_path, capsys, monkeypatch):
    # a mode error is the expression's, not a point's: the sweep writes no
    # table and prints the line verify prints
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a sweep that its mode cannot lower")

    monkeypatch.setattr(crncalc.simulate, "integrate", no_integration)
    line = ("error: subtraction is not expressible over non-negative values; "
            "use rsub, abs, or real mode\n")
    out = tmp_path / "sweep.csv"
    code, stdout, err = run(capsys, "sweep", "--expr", "a - b", "--grid", "a=1,2;b=1",
                            "--out", str(out))
    assert (code, stdout, err) == (2, "", line)
    assert not out.exists()
    code, stdout, err = run(capsys, "verify", "--expr", "a - b", "--in", "a=1,b=2")
    assert (code, stdout, err) == (2, "", line)


# --- misc ------------------------------------------------------------------------

def test_gates_catalogue(capsys):
    code, out, _ = run(capsys, "gates")
    assert code == 0
    assert "identification" in out and "rectified_subtraction" in out
    # the whole catalogue, byte for byte: it holds no floats, so its hash
    # is the same on every machine
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "96097e176f580adaa45d435c2bffd48cd9ea44dba081081d8cd2ac07431fa869")


def test_bad_input_binding_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--expr", "a", "--in", "a")
    assert code == 2
    assert "name=value" in err
    # a bad value is named by its input, as a bad grid axis is
    for command in ("verify", "simulate"):
        code, out, err = run(capsys, command, "--expr", "a", "--in", "b=1,a=")
        assert code == 2 and out == "", command
        assert err == "error: input 'a': could not convert string to float: ''\n", command
    # an input given twice is refused, as a grid axis given twice is,
    # whether in one --in or two
    for twice in (["--in", "a=1,a=2,b=1"], ["--in", "a=1,b=1", "--in", "a=2"]):
        for command in ("verify", "simulate"):
            code, out, err = run(capsys, command, "--expr", "a+b", *twice)
            assert (code, out, err) == (2, "", "error: input 'a' given twice\n"), command


BIG = "9" * 400
PROGRAM = ("# input a -> A\n{const}# output -> X\nspecies: A[input], {decl}X\n"
           "A -> A + X ; k={k}\nX -> 0 ; k=1\n")


@pytest.mark.parametrize("argv,message", [
    (["verify", "--expr", "a", "--in", "a=1e400"], "'1e400' is out of a float's range"),
    (["sweep", "--expr", "a+b", "--grid", "a=1e400;b=1"], "'1e400' is out of a float's range"),
    (["sweep", "--expr", "a+b", "--grid", "a=1/0"], "'1/0' divides by zero"),
    (["compile", "--expr", f"a + {BIG}"], "col 5: number out of a float's range"),
    (["verify", "--expr", f"a + {BIG}", "--in", "a=1"], "col 5: number out"),
    (["simulate", "--expr", f"a + {BIG}", "--in", "a=1"], "col 5: number out"),
    (["sweep", "--expr", f"a + {BIG}", "--grid", "a=1"], "col 5: number out"),
    (["simulate", "--crn", PROGRAM.format(const="", decl="", k="1e400"), "--in", "a=1"],
     "line 4: bad rate constant: number '1e400'"),
    (["simulate", "--crn", PROGRAM.format(const="# const K1 = 1e400\n", decl="K1[input], ",
                                          k="1"), "--in", "a=1"], "'1e400' is out"),
])
def test_out_of_range_numbers_exit_2(tmp_path, capsys, argv, message):
    if argv[1] == "--crn":
        (tmp_path / "p.crn").write_text(argv[2])
        argv = [argv[0], "--crn", str(tmp_path / "p.crn"), *argv[3:]]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and message in err and "Traceback" not in err


NOT_ASCII = "is not a literal of ASCII digits like 3, 0.25, 1e-3 or 2/3"
DIGITS = "# input a -> A\n# output -> X\nspecies: A[input], X\n{c}A -> {c}A + X ; k={k}\n"


@pytest.mark.parametrize("argv,message", [
    # Arabic-Indic digits and underscores, which float, Fraction and \d read
    (["compile", "--expr", "\u0663+a"], "col 1: unexpected character '\u0663'"),
    (["verify", "--expr", "a", "--in", "a=\u0663"], f"input 'a': number '\u0663' {NOT_ASCII}"),
    (["verify", "--expr", "a", "--in", "a=1_0"], f"input 'a': number '1_0' {NOT_ASCII}"),
    (["sweep", "--expr", "a", "--grid", "a=1_0"], f"grid axis 'a': number '1_0' {NOT_ASCII}"),
    (["simulate", "--crn", DIGITS.format(c="\u0662", k="\u0663"), "--in", "a=1"],
     f"line 4: bad rate constant: number '\u0663' {NOT_ASCII}"),
    (["simulate", "--crn", DIGITS.format(c="\u0662", k="3"), "--in", "a=1"],
     "line 4: bad complex term '\u0662A'"),
    (["lemma", "--form", "linear", "--g2", "1", "--g1", "\u0663"],
     "bad factor '\u0663' in forcing '\u0663'"),
])
def test_non_ascii_digits_and_underscores_exit_2(tmp_path, capsys, argv, message):
    if argv[1] == "--crn":
        (tmp_path / "p.crn").write_text(argv[2])
        argv = [argv[0], "--crn", str(tmp_path / "p.crn"), *argv[3:]]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


LEMMA = ["lemma", "--form", "linear", "--g1", "2", "--g2", "1"]


@pytest.mark.parametrize("argv,message", [
    (["verify", "--expr", "a + b", "--in", "a=1,b=2", "--sigma", "nan"], "sigma must be finite"),
    (["sweep", "--expr", "a + b", "--grid", "a=1;b=2", "--sigma", "inf"], "sigma must be finite"),
    (LEMMA + ["--rtol", "nan"], "rel_tol must be finite"),
    (["verify", "--expr", "a", "--in", "a=1", "--t-end", "inf"], "t_end must be finite"),
    (["verify", "--expr", "a", "--in", "a=1", "--atol", "inf"], "abs_tol must be finite"),
    (["compile", "--expr", "a", "--out", "{bad}"], "No such file"),
    (["simulate", "--expr", "a", "--in", "a=1", "--out", "{bad}"], "No such file"),
    (["sweep", "--expr", "a", "--grid", "a=1", "--out", "{bad}"], "No such file"),
    (["verify", "--expr", "a", "--in", "a=1", "--report", "{bad}"], "No such file"),
    (["verify", "--expr", "a", "--in", "a=1", "--plot-data", "{bad}"], "No such file"),
    (["analyze", "--traj", "{traj}", "--target", "1", "--report", "{bad}"], "No such file"),
    (LEMMA + ["--report", "{bad}"], "No such file"),
    (["simulate", "--expr", "a", "--in", "a=1", "--sigma", "1e300", "--t-end", "1e10"],
     "sigma * t_end must be positive and finite"),
])
def test_non_finite_settings_and_unwritable_paths_exit_2(tmp_path, capsys, argv, message):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,X\n" + "".join(f"{t},{1 + math.exp(-t)!r}\n" for t in range(30)))
    paths = {"bad": str(tmp_path / "missing" / "x"), "traj": str(traj)}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["nonneg", "real"])
def test_case_colliding_variables_exit_2(capsys, mode):
    # x1 and X1 would both be input species X1 (X1_p, X1_n in real mode)
    code, out, err = run(capsys, "verify", "--expr", "x1 + X1", "--mode", mode,
                         "--in", "x1=1,X1=5")
    assert code == 2 and "pass" not in out
    assert "variables 'X1' and 'x1' differ only in case" in err
    code, out, err = run(capsys, "compile", "--expr", "a*b + A", "--mode", mode)
    assert code == 2 and out == ""
    assert "variables 'A' and 'a' differ only in case" in err


def _expressions(mode):
    """Grammar expressions over case variants of one name and small and
    400-digit literals, using the operations the mode lowers."""
    def extend(children):
        ops = "+*/" if mode == "nonneg" else "+-*/"
        binary = st.tuples(children, st.sampled_from(ops), children).map(" ".join)
        if mode == "real":
            return st.one_of(binary.map("({})".format), children.map("-{}".format))
        pair = st.tuples(children, children)
        return st.one_of(binary.map("({})".format), children.map("sqrt({})".format),
                         children.map("root(3, {})".format),
                         pair.map(lambda p: f"abs({p[0]} - {p[1]})"),
                         pair.map(lambda p: f"max({p[0]}, {p[1]})"),
                         pair.map(lambda p: f"rsub({p[0]}, {p[1]})"))
    leaves = st.sampled_from(["a", "A", "b", "x1", "X1", "1", "0.5", "3", BIG])
    return st.tuples(st.recursive(leaves, extend, max_leaves=8), st.just(mode))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(["nonneg", "real"]).flatmap(_expressions))
def test_compile_exits_0_or_2_and_its_text_loads_back(case):
    text, mode = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compile", f"--expr={text}", "--mode", mode])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        loaded, compiled = load_program(out.getvalue()), compile_expression(text, mode)
        assert list(loaded.roles.items()) == list(compiled.roles.items())
    try:
        assert parse_expression(text) is parse_expression(text)
    except ParseError:
        assert code == 2


EXTREMES = [0.0, 5e-324, 1e-300, 0.1, 1.0, 50.0, 1e200, 1e300]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(["nonneg", "real"]).flatmap(_expressions),
       st.fixed_dictionaries({v: st.sampled_from(EXTREMES) for v in ("a", "A", "b", "x1", "X1")}),
       st.sampled_from(["simulate", "verify"]))
def test_simulate_and_verify_end_in_a_documented_exit(case, values, command):
    # zero-step, blowup and completed lanes all end in an exit code of the
    # contract, without a traceback or a numpy warning
    text, mode = case
    names = sorted(set(re.findall(r"[A-Za-z]\w*", text)) - {"sqrt", "root", "abs", "max", "rsub"})
    argv = [command, f"--expr={text}", "--mode", mode, "--t-end", "30"]
    if names:
        argv += ["--in", ",".join(f"{v}={values[v]!r}" for v in names)]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert [str(w.message) for w in caught] == [], argv


def test_parser_is_built_once_and_calls_do_not_leak(tmp_path, capsys):
    assert crncalc.cli.build_parser() is crncalc.cli.build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, _, _ = run(capsys, "verify", "--expr", "a/b", "--in", "a=2", "--in", "b=1",
                     "--slack", "0.3", "--t-end", "30", "--report", str(first))
    assert code == 0
    data = json.loads(first.read_text())
    assert data["inputs"] == {"a": 2.0, "b": 1.0}
    assert data["t_end"] == 30.0 and data["verdict"]["slack"] == 0.3
    # a leaked b=1 would be an unknown input of 1/a (exit 2)
    code, _, _ = run(capsys, "verify", "--expr", "1/a", "--in", "a=4",
                     "--report", str(second))
    assert code == 0
    data = json.loads(second.read_text())
    assert data["inputs"] == {"a": 4.0}
    assert data["t_end"] == 40.0 and data["verdict"]["slack"] == 0.15
    args = crncalc.cli.build_parser().parse_args(["verify", "--expr", "a"])
    assert args.inputs == [] and args.report is None


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "crncalc", "gates"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "identification" in proc.stdout


NUMERIC_MODULES = ("numpy", "crncalc.simulate", "crncalc.rates", "concurrent.futures",
                   "scipy")


@pytest.mark.parametrize("argv,code", [(None, None), (["compile", "--expr", "a*b + c"], 0),
                                       (["gates"], 0), (["--help"], 0),
                                       (["compile", "--expr", "a +"], 2)],
                         ids=["import", "compile", "gates", "help", "usage_error"])
def test_cli_start_leaves_the_numeric_layer_out(argv, code):
    # compile, gates, --help and a usage error integrate nothing, so they
    # must not pay for numpy, the integrator, the rate fit or the pool
    call = "None" if argv is None else f"crncalc.cli.main({argv!r})"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys, crncalc.cli\n"
         f"with contextlib.redirect_stdout(io.StringIO()): code = {call}\n"
         f"print(code, sorted(m for m in {NUMERIC_MODULES!r} if m in sys.modules))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{code} []"


@pytest.mark.parametrize("argv", [["sweep", "--expr", "a + b", "--grid", "a=1;b=2"],
                                  ["verify", "--expr", "a + b", "--in", "a=1,b=2"]],
                         ids=["sweep", "verify"])
def test_sweep_and_verify_leave_the_lemma_module_out(argv):
    # forced systems are lemma's alone: sweep and verify do not load them
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys, crncalc.cli\n"
         f"with contextlib.redirect_stdout(io.StringIO()): code = crncalc.cli.main({argv!r})\n"
         "print(code, 'crncalc.lemma' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
