"""The scripts in scripts/ run end to end through their main."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_lemma_grid_passes_every_scenario(capsys):
    # forced systems: every forcing family over the default grid
    assert _main("lemma_grid")([]) == 0
    assert "\n66/66 scenarios within slack 0.15 of the bound." in capsys.readouterr().out


def test_speed_contrast_designed_rate_does_not_depend_on_a(capsys):
    # bare networks: naive and designed inversion over the default inputs
    assert _main("speed_contrast")([]) == 0
    m = re.search(r"designed rate stays near 1 \(spread (\S+)\)\.", capsys.readouterr().out)
    assert m and float(m.group(1)) < 1e-3


def test_output_digest_counts_and_hashes_every_operation(capsys):
    # the five sweeps of one seed's grid workload
    assert _main("output_digest")(["--workloads", "grid", "--seeds", "1"]) == 0
    total = capsys.readouterr().out
    assert re.fullmatch(r"5 [0-9a-f]{64}\n", total)
    # --per-op names each operation and its own hash before the same total
    assert _main("output_digest")(["--workloads", "grid", "--seeds", "1", "--per-op"]) == 0
    *ops, last = capsys.readouterr().out.splitlines()
    assert last + "\n" == total and len(ops) == 5
    for line in ops:
        workload, seed, argv, digest = line.split("\t")
        assert (workload, seed) == ("grid", "1") and argv.startswith("sweep ")
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert len({line.split("\t")[2] for line in ops}) == 5


def test_paired_rounds_runs_an_a_a_control(capsys):
    # the same checkout on both sides, each imported under its own name
    root = str(SCRIPTS.parent)
    assert _main("paired_rounds")([root, root, "--workload", "compile", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^A .*: median round [0-9.]+ ms$", out, re.M)
    assert re.search(r"^B .*: median round [0-9.]+ ms$", out, re.M)
    assert re.search(r"compile seed 1, 2 pairs: speed ratio A/B median [0-9.]+ "
                     r"\(IQR [0-9.]+-[0-9.]+\), B faster in [012]/2\n", out)
    assert out.endswith("outputs: the same on both sides\n")
