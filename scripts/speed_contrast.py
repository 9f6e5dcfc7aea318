"""Digit-time table: naive vs designed inversion.

For each input value a the table reports T_n, the time at which |x - 1/a|
last exceeds 10^-n, and the implied per-digit rate n*ln10/T_n.  The naive
network's rate tracks a; the designed network's rate stays near 1 no matter
how small or large the input is.

Usage:
    python scripts/speed_contrast.py
    python scripts/speed_contrast.py --a 0.1 0.5 1 4 20 --digits 8 --csv out.csv
"""

import argparse
import math
import sys

from crncalc import SimConfig, digits_time, load_program, NotConvergedError, simulate_program

# constant production plus input-proportional consumption: the textbook
# x* = 1/a network, whose speed depends on a
NAIVE = """species: A[input], X[output]
0 -> X ; k=1
A + X -> A ; k=1
"""
DESIGNED = """species: A[input], X[output]
X -> 2X ; k=1
A + 2X -> A + X ; k=1
"""


def measure(net, a: float, x0: float, n: int, t_end: float) -> float:
    cfg = SimConfig(t_end=t_end, rel_tol=1e-10, abs_tol=1e-13)
    traj = simulate_program(net, {"A": a, "X": x0}, cfg)
    return digits_time(traj, "X", 1.0 / a, n).time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, nargs="+",
                    default=[0.1, 0.5, 1.0, 4.0, 20.0, 100.0])
    ap.add_argument("--digits", type=int, default=6)
    ap.add_argument("--csv", help="also write the table as csv")
    args = ap.parse_args(argv)

    n = args.digits
    score = n * math.log(10.0)
    naive, designed = load_program(NAIVE), load_program(DESIGNED)
    rows = []
    for a in args.a:
        # prefactor-1 starts so T_n measures the rate and nothing else
        try:
            t_naive = measure(naive, a, 1.0 / a + 1.0, n,
                              t_end=max(1.5 * score / a, 6.0))
            t_designed = measure(designed, a, 1.0 / (a * (1.0 + a)), n,
                                 t_end=1.5 * score + 6.0)
        except NotConvergedError as e:
            print(f"a={a:g}: {e}", file=sys.stderr)
            return 1
        rows.append((a, t_naive, score / t_naive, t_designed, score / t_designed))

    header = (f"{'a':>8}  {'naive T_' + str(n):>12}  {'rate':>8}  "
              f"{'designed T_' + str(n):>14}  {'rate':>8}")
    print(header)
    print("-" * len(header))
    for a, tn, rn, td, rd in rows:
        print(f"{a:8.3g}  {tn:12.3f}  {rn:8.4f}  {td:14.3f}  {rd:8.4f}")
    print(f"\nnaive rate tracks a; designed rate stays near 1 "
          f"(spread {max(r[4] for r in rows) - min(r[4] for r in rows):.2e}).")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("a,naive_T,naive_rate,designed_T,designed_rate\n")
            for row in rows:
                fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
