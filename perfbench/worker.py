"""One workload in a fresh interpreter; run.py starts this file.

--probe: import crncalc.cli, run the workload's warm-up command, print the
import time and exit.  run.py times a series of these starts for setup_s.

Otherwise: warm up, then run whole rounds of the workload's operations
until --seconds of timed work have passed, check every output, and print
one JSON line.  With --trace 1, rounds alternate between untraced and
traced, and the traced ones give the per-layer figures.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import crncalc.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402


def run_command(argv: list[str], runner=cli.main) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = runner(argv)
    if code != 0:
        raise RuntimeError(f"crncalc {' '.join(argv)[:200]} exited {code}")
    return buf.getvalue()


def run_round(ops, runner=cli.main) -> tuple[float, list[str]]:
    t0 = time.perf_counter()
    outputs = [run_command(op.argv, runner) for op in ops]
    return time.perf_counter() - t0, outputs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    run_command(wl.WARMUP[args.workload])
    if args.probe:
        print(json.dumps({"import_s": IMPORT_S}), flush=True)
        return 0

    ops = wl.WORKLOADS[args.workload](args.seed)
    per_round = sum(len(op.points) or 1 for op in ops)
    if args.trace:
        from spans import Tracer
    plain_s, traced, first, rounds, timed = [], [], None, 0, 0.0
    failed = 0
    notes: list[str] = []
    correct, problem = True, ""
    while rounds < 2 or timed < args.seconds:
        tracer = Tracer() if args.trace and rounds % 2 else None
        if tracer is None:
            dt, outputs = run_round(ops)
            plain_s.append(dt)
        else:
            with tracer.patch():
                dt, outputs = run_round(ops, tracer.run)
            traced.append((dt, tracer))
        timed += dt
        rounds += 1
        if first is None:
            first = outputs
        elif outputs != first:
            correct, problem = False, f"round {rounds} output differs from round 1"
        try:
            for op, out in zip(ops, outputs):
                if op.points:
                    bad, why = wl.check_sweep(op, out)
                    failed += bad
                    notes.extend(why)
        except wl.CheckError as e:
            correct, problem = False, str(e)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    integrated = 0
    if args.workload == "compile" and correct:
        try:
            integrated = wl.check_programs(ops, first, args.seed)
        except wl.CheckError as e:
            correct, problem = False, str(e)

    result = {
        "correct": correct, "problem": problem, "attempted": per_round * rounds,
        "failed": failed, "rounds": rounds, "ops_per_round": per_round,
        "round_s": plain_s, "import_s": IMPORT_S, "integrated": integrated,
        "ops_per_s": per_round * len(plain_s) / sum(plain_s),
        "peak_rss_mb": peak_rss_mb,
        "notes": sorted(set(notes)),
    }
    if args.trace:
        counts = [t.counts for _, t in traced]
        if any(c != counts[0] for c in counts):
            result.update(correct=False, problem=f"traced counts differ: {counts}")
        times = [t.self_times() for _, t in traced]
        layers = {k: statistics.median(x[k] for x in times) for k in times[0]}
        layers.update(counts[0])
        layers["trace.overhead_s"] = (statistics.median(dt for dt, _ in traced)
                                      - statistics.median(plain_s))
        result["traced_round_s"] = [dt for dt, _ in traced]
        result["layers"] = layers
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                for i, (_, t) in enumerate(traced):
                    for rec in t.records(i):
                        fh.write(json.dumps(rec) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
