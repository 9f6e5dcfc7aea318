"""The benchmark tracer (perfbench/spans.py) wraps library functions by
name.  Entering its patch against the live modules here makes a rename
fail this suite instead of breaking a traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_the_live_modules(capsys):
    spans = _spans_module()
    tracer = spans.Tracer()
    with tracer.patch():
        assert tracer.run(["compile", "--expr", "a/b + c"]) == 0
        assert tracer.run(["sweep", "--expr", "a + b", "--grid", "a=1;b=2",
                           "--t-end", "20"]) == 0
    capsys.readouterr()
    names = {name for name, *_ in tracer.spans}
    assert {"cli", "parse_expression", "lower_to_circuit", "flatten",
            "format_program", "predict_speed", "compile_circuit_rhs",
            "estimate_rate"} <= names
    # the one compile formats once: the flatten hook's read of prog.network
    # renders the program without the wrapped format_program
    assert [name for name, *_ in tracer.spans].count("format_program") == 1
    assert tracer.counts["circuit.gates"] == 3 + 1
    assert tracer.counts["rates.estimates"] == 1
    assert set(tracer.self_times()) == set(spans.LAYERS.values())
    # the patch is undone on exit
    from crncalc import circuit
    assert circuit.lower_to_circuit.__name__ == "lower_to_circuit"



def test_a_sweep_fits_each_block_in_one_call(capsys):
    # every lane and rail of a sweep block is fitted by one estimate_rate
    # call: two calls for a sweep one point longer than a block
    from crncalc.cli import SWEEP_BLOCK
    spans = _spans_module()
    tracer = spans.Tracer()
    grid = "a=" + ",".join(str(1 + i) for i in range(SWEEP_BLOCK + 1)) + ";b=2"
    with tracer.patch():
        assert tracer.run(["sweep", "--expr", "a + b", "--grid", "a=1,2,3;b=2,4",
                           "--t-end", "20"]) == 0
        assert tracer.counts["rates.estimates"] == 1
        assert tracer.run(["sweep", "--mode", "real", "--expr", "a - b", "--grid",
                           "a=1,2;b=-1", "--t-end", "20"]) == 0
        assert tracer.counts["rates.estimates"] == 2
        assert tracer.run(["sweep", "--expr", "a + b", "--grid", grid,
                           "--t-end", "20"]) == 0
    assert tracer.counts["rates.estimates"] == 4
    rows = capsys.readouterr().out.splitlines()
    assert sum(row[0].isdigit() for row in rows) == 6 + 2 + SWEEP_BLOCK + 1


def test_a_traced_sweep_prints_what_an_untraced_one_does(capsys):
    # the tracer wraps the generated rhs in a plain (t, y) callable, whose
    # rows a batch stores one by one, where the generated rhs writes them
    # in place: the sweep's table is the same either way
    from crncalc import cli
    argv = ["sweep", "--expr", "max(a, b)", "--grid", "a=0.1,1,50;b=0.1,2,50", "--t-end", "40"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    spans = _spans_module()
    tracer = spans.Tracer()
    with tracer.patch():
        assert tracer.run(argv) == 0
    assert capsys.readouterr().out == plain
    assert tracer.counts["simulate.rhs_evals"] > 0
    rows = [row for row in plain.splitlines() if row[0].isdigit()]
    assert len(rows) == 9 and sum(row.endswith(",blowup,ok") for row in rows) == 2
