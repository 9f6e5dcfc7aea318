"""Benchmark of crncalc's `sweep` and `compile` commands.

    python3 perfbench/run.py --workload grid|real|compile --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
Every process this starts is a fresh interpreter running worker.py:

* set-up: one uncounted start, then SETUP_STARTS counted ones, each timed
  from launch until crncalc.cli is imported and the workload's warm-up
  command has finished; setup_s is their median;
* the workload: whole rounds of a fixed, seeded list of operations until
  S seconds of timed work have passed (see README.md).

The last line printed is one JSON object: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Results and trace spans are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_STARTS = 5
TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one BLAS thread, and string hashes that do not change between runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def start_once(args, env) -> tuple[float, float]:
    """Launch-to-ready time of one fresh interpreter, and its import time."""
    t0 = time.perf_counter()
    with subprocess.Popen(worker_argv(args, "--probe"), cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up start exited {proc.returncode}")
    return ready, json.loads(line)["import_s"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "crncalc" / "cli.py").is_file():
        print(f"error: no crncalc sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()

    start_once(args, env)  # uncounted: leaves the bytecode caches written
    starts = [start_once(args, env) for _ in range(SETUP_STARTS)]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--trace-out", str(RESULTS / f"{stem}.spans.jsonl")] if args.trace else []
    proc = subprocess.run(worker_argv(args, *extra), cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_starts_s"] = [s for s, _ in starts]
    if not res["correct"]:
        print(f"incorrect output: {res['problem']}", file=sys.stderr)
    for note in res["notes"]:
        print(note, file=sys.stderr)

    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = statistics.median(i for _, i in starts)
    else:
        values = {"setup_s": statistics.median(s for s, _ in starts),
                  "ops_per_s": res["ops_per_s"], "peak_rss_mb": res["peak_rss_mb"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(dict(res, metrics=metrics), fh, indent=1)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
