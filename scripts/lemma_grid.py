"""Forced scalar systems: measured convergence speed vs the predicted bound.

Sweeps the four forcing families (driven linear, driven power, decay to
zero, unbounded growth) over a grid of forcing rates and limits, and holds
each system to its lemma with crncalc.check_lemma.  The table reports the
fitted rate next to the composition bound: the rate of x toward its
target, or for the growth family the rate of 1/x toward 0.  A ratio
comfortably above the slack threshold on every row is the point.  Every
family runs to the same --t-end (default 80).  A row whose run could not
be measured shows "-" and counts as a failure.

Usage:
    python scripts/lemma_grid.py
    python scripts/lemma_grid.py --rates 0.5 2 8 --limits 0.25 1 --t-end 50
"""

import argparse
import itertools
import sys

from crncalc import ForcedSystem, SimConfig, check_lemma, parse_forcing

SLACK = 0.15


def forcing(limit, rho, coeff=1.0):
    return parse_forcing(f"{limit} + {coeff}*exp(-{rho}*t)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", type=float, nargs="+", default=[0.5, 1.0, 4.0])
    ap.add_argument("--limits", type=float, nargs="+", default=[0.5, 2.0])
    ap.add_argument("--t-end", type=float, default=80.0)
    args = ap.parse_args(argv)

    cfg = SimConfig(t_end=args.t_end, rel_tol=1e-10, abs_tol=1e-12)

    pairs = list(itertools.product(args.rates, repeat=2))
    grid = [(r1, r2, lim) for r1, r2 in pairs for lim in args.limits]

    systems = [("linear", f"r1={r1:g} r2={r2:g} g2*={lim:g}",
                ForcedSystem("linear", forcing(1.0, r1), forcing(lim, r2)))
               for r1, r2, lim in grid]
    systems += [("power", f"r1={r1:g} r2={r2:g} g1*={lim:g} m={m}",
                 ForcedSystem("power", forcing(lim, r1), forcing(1.0, r2), m=m, x0=0.3))
                for (r1, r2, lim), m in zip(grid, itertools.cycle([1, 2, 3]))]
    systems += [("decay", f"r1={r1:g} r2={r2:g} g1*={-lim:g}",
                 ForcedSystem("power", forcing(-lim, r1), forcing(1.0, r2)))
                for r1, r2, lim in grid]
    systems += [("growth", f"r={r:g} m={m} c={c:g}",
                 ForcedSystem("power", parse_forcing("1"),
                              parse_forcing(f"{c}*exp(-{r}*t)"), m=m))
                for r in args.rates for m in (1, 2) for c in args.limits]
    checks = [check_lemma(system, cfg, SLACK) for _, _, system in systems]

    print(f"{'family':<8} {'scenario':<28} {'target':>8} {'bound':>7} "
          f"{'measured':>9}  ok")
    for (family, label, _), check in zip(systems, checks):
        pred = check.prediction
        tgt = "-" if pred.target is None else f"{pred.target:8.4f}"
        got = "-" if check.verdict is None else f"{check.verdict.measured:9.4f}"
        print(f"{family:<8} {label:<28} {tgt:>8} {pred.bound.value:7.3f} "
              f"{got:>9}  {'yes' if check.passed else 'NO'}")
    passed = sum(check.passed for check in checks)
    print(f"\n{passed}/{len(checks)} scenarios within slack {SLACK:g} of the bound.")
    return 0 if passed == len(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
