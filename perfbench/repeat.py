"""Run sets of benchmark runs and print each metric's quartiles.

    python3 perfbench/repeat.py --workloads grid real compile \
        --seeds 1-10 --sets 2 --seconds 20 [--trace 0|1]

Each set runs every workload once per seed, one run at a time.  For each
set, workload and metric this prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
and it checks that the share of failed operations is the same in every
run of a workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["grid", "real", "compile"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    ok = True
    for s in range(1, args.sets + 1):
        for w in args.workloads:
            results = [run(w, seed, args.seconds, args.trace) for seed in seeds(args.seeds)]
            fail_share = {r["failed"] / r["attempted"] for r in results}
            correct = all(r["correct"] for r in results)
            ok &= correct and len(fail_share) == 1
            print(f"set {s} {w}: {len(results)} runs, correct={correct}, "
                  f"attempted {sum(r['attempted'] for r in results)}, "
                  f"failed {sum(r['failed'] for r in results)}, "
                  f"failed share {sorted(fail_share)}")
            for name in results[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"  {name:22s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                      f"  spread {spread:7.2%}")
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
