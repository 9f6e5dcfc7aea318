"""Paired round times of one perfbench workload on two checkouts.

Imports the `src/crncalc` package of each checkout under a name of its
own (crncalc_a, crncalc_b; the package's relative imports keep the two
apart), then runs whole rounds of one workload of perfbench/workloads.py
through each side's cli.main in this one process, alternating: each pair
is one round of each side, and the side that goes first alternates from
pair to pair.  One uncounted round of each side goes first.  Prints each
side's median round time, the median and quartiles of the per-pair speed
ratio (A's round time over B's, so above 1 means B is faster), how many
pairs B won, and whether both sides printed the same bytes and exit
codes.  perfbench is only read.

Usage:
    python scripts/paired_rounds.py PARENT CHANGE --workload grid --seed 1 --pairs 30
    python scripts/paired_rounds.py . . --workload compile --pairs 2   # an A/A control
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def load_cli(checkout: Path, name: str):
    """crncalc.cli of checkout's src/, imported as the package `name`."""
    init = checkout / "src" / "crncalc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no crncalc package at {init.parent}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_round(cli, ops) -> tuple[float, list]:
    """Wall time of one round, and each operation's exit code and stdout."""
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
        outputs.append((code, buf.getvalue()))
    return time.perf_counter() - t0, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="checkout A, the baseline")
    ap.add_argument("b", type=Path, help="checkout B, the change")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=30)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    sides = {"A": load_cli(args.a.resolve(), "crncalc_a"),
             "B": load_cli(args.b.resolve(), "crncalc_b")}
    ops = WORKLOADS[args.workload](args.seed)
    outputs = {side: run_round(cli, ops)[1] for side, cli in sides.items()}  # uncounted
    times: dict[str, list[float]] = {"A": [], "B": []}
    for pair in range(args.pairs):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            dt, out = run_round(sides[side], ops)
            times[side].append(dt)
            if out != outputs[side]:
                print(f"warning: side {side}'s round {pair + 1} printed other bytes")

    ratios = [a / b for a, b in zip(times["A"], times["B"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(r > 1 for r in ratios)
    for side, path in (("A", args.a), ("B", args.b)):
        print(f"{side} {path}: median round {1e3 * statistics.median(times[side]):.2f} ms")
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: speed ratio A/B median "
          f"{statistics.median(ratios):.3f} (IQR {q1:.3f}-{q3:.3f}), B faster in "
          f"{wins}/{args.pairs}")
    same = outputs["A"] == outputs["B"]
    print("outputs: " + ("the same on both sides" if same else "DIFFER between the sides"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
