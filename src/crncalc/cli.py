"""Command line front end.

Subcommands: compile, simulate, analyze, verify, lemma, sweep, gates.
verify exit codes: 0 all checks pass, 2 usage or domain error, 3 blowup,
4 output not converged, 5 measured speed below the predicted bound.
compile writes a program's bindings and network text; a compiled
program's reactions and network are parsed from that text.

Only the handlers that integrate or fit import the numeric layer
(simulate, rates and so numpy), so compile, gates, --help and a usage
error start without it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

from . import circuit as circ
from .crn import parse_number
from .gates import SpeedBound, catalogue

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BLOWUP = 3
EXIT_NOT_CONVERGED = 4
EXIT_SPEED = 5


MODE_CRN = "--mode applies to --expr only: --crn text is already compiled"


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _given(**options) -> dict:
    """The options the user set; the callee keeps its own default for the rest."""
    return {k: v for k, v in options.items() if v is not None}


def _sim_config(args, default_t_end: float = 40.0):
    from . import simulate as sim
    return sim.SimConfig(
        t_end=args.t_end if args.t_end is not None else default_t_end,
        sigma=getattr(args, "sigma", 1.0),
        **_given(rel_tol=args.rtol, abs_tol=args.atol))


def _parse_inputs(pairs: list[str]) -> dict[str, float]:
    values: dict[str, float] = {}
    for chunk in pairs:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad input binding {item!r}; expected name=value")
            name, _, raw = item.partition("=")
            name = name.strip()
            if name in values:
                raise ValueError(f"input {name!r} given twice")
            try:
                values[name] = float(parse_number(raw))
            except ValueError as e:
                raise ValueError(f"input {name!r}: {e}") from None
    return values


def _write(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_report(path: str | None, report: dict):
    if path:
        _write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _rate_fields(est) -> dict:
    return {"rho_hat": est.rho_hat, "fit_window": list(est.fit_window),
            "r_squared": est.r_squared, "samples": est.samples_used}


# ---------------------------------------------------------------------------
# subcommands


def cmd_compile(args) -> int:
    _write(args.out, circ.format_program(circ.compile_expression(args.expr, args.mode)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import simulate as sim
    if args.crn and args.mode is not None:
        return _err(MODE_CRN)
    cfg = _sim_config(args)
    inputs = _parse_inputs(args.inputs)
    if args.expr:
        prog = circ.compile_expression(args.expr, args.mode or "nonneg")
    else:
        with open(args.crn) as fh:
            prog = circ.load_program(fh.read())
    traj = sim.simulate_program(prog, inputs, cfg)
    _write(args.out, traj.to_csv())
    term = traj.termination
    if term.status != "completed":
        print(f"note: terminated early: {term.status} at t={term.time:.6g}"
              + (f" ({term.species})" if term.species else "")
              + (f": {term.detail}" if term.detail else ""), file=sys.stderr)
    if term.status == "blowup":
        return EXIT_BLOWUP
    return EXIT_NOT_CONVERGED if term.status == "stiff_failure" else EXIT_OK


def cmd_analyze(args) -> int:
    from . import rates as rt, simulate as sim
    with open(args.traj) as fh:
        traj = sim.read_trajectory_csv(fh.read())
    species = args.species or (traj.species[0] if len(traj.species) == 1 else None)
    if species is None:
        return _err("--species required for multi-species trajectories")
    if args.digits is not None and args.digits < 1:
        return _err(f"--digits must be at least 1, got {args.digits}")
    report: dict = {"trajectory": args.traj, "species": species,
                    "target": args.target,
                    "termination": traj.termination.status}
    code = EXIT_OK
    try:
        est = rt.estimate_rate(traj, species, args.target,
                               **_given(err_floor=args.floor, err_ceil=args.ceil))
        report["rate"] = _rate_fields(est)
        print(f"rho_hat = {est.rho_hat:.6g}  window {est.fit_window[0]:.3g}.."
              f"{est.fit_window[1]:.3g}  r^2 = {est.r_squared:.6f}")
    except (rt.EstimationError, rt.NotConvergedError) as e:
        report["rate_error"] = str(e)
        print(f"rate not measurable: {e}")
        code = EXIT_NOT_CONVERGED
    if args.digits is not None:
        try:
            d = rt.digits_time(traj, species, args.target, args.digits)
            report["digits"] = {"n": d.n, "time": d.time}
            print(f"T_{d.n} = {d.time:.6g}")
        except rt.NotConvergedError as e:
            report["digits_error"] = str(e)
            print(f"not converged to {args.digits} digits: {e}")
            code = EXIT_NOT_CONVERGED
    _write_report(args.report, report)
    return code


def _finish_verify(args, report: dict, code: int) -> int:
    report["exit_code"] = code
    _write_report(args.report, report)
    return code


def cmd_verify(args) -> int:
    from . import rates as rt, simulate as sim
    if args.digits < 1:
        return _err(f"--digits must be at least 1, got {args.digits}")
    rt.check_slack(args.slack)
    cfg = _sim_config(args)
    inputs = _parse_inputs(args.inputs)
    (run,) = rt.Pipeline.expression(args.expr, args.mode, cfg).run_points(
        [inputs], every_species=bool(args.out))
    if isinstance(run, ValueError):  # the point's own error, such as a DomainError
        return _err(str(run))
    analysis, traj, rails, targets = run.analysis, run.traj, run.rails, run.targets
    bound = SpeedBound(min(analysis.bound.value, 1.0) * cfg.sigma,
                       analysis.bound.case +
                       (f" (sigma={cfg.sigma:g})" if cfg.sigma != 1.0 else ""))
    report = {
        "expression": args.expr, "mode": args.mode, "inputs": inputs,
        "sigma": cfg.sigma, "t_end": cfg.t_end,
        "rtol": cfg.rel_tol, "atol": cfg.abs_tol,
        "predicted_bound": {"value": bound.value, "case": bound.case},
        "target": analysis.output_value,
        "output_species": rails,
        "termination": {"status": traj.termination.status,
                        "species": traj.termination.species,
                        "time": traj.termination.time},
        "stats": dataclasses.asdict(traj.stats),
        "negatives": [{"species": sid, "time": t, "value": v}
                      for sid, t, v in traj.negatives],
        "outputs": [],
    }
    for sid, tgt, est in zip(rails, targets, run.rates):
        entry = {"species": sid, "target": tgt, "final": traj.final(sid),
                 "abs_error": abs(traj.final(sid) - tgt)}
        if isinstance(est, ValueError):
            entry["rate_error"] = str(est)
        else:
            entry["rate"] = _rate_fields(est)
        report["outputs"].append(entry)
    if args.out:
        _write(args.out, traj.to_csv())
    if args.plot_data:
        _write_plot_data(args.plot_data, traj, rails, targets)
    if traj.termination.status == "blowup":
        print(f"blowup: {traj.termination.species} crossed "
              f"{sim.BLOWUP_THRESHOLD:g} at t={traj.termination.time:.6g}")
        for entry in report["outputs"]:
            line = (f"  {entry['species']} -> {entry['final']:.6g} "
                    f"(target {entry['target']:.6g})")
            if "rate" in entry:
                line += f", rho_hat {entry['rate']['rho_hat']:.4g} up to truncation"
            print(line)
        return _finish_verify(args, report, EXIT_BLOWUP)
    if traj.termination.status == "stiff_failure":
        print(f"integration failed: {traj.termination.detail}", file=sys.stderr)
        return _finish_verify(args, report, EXIT_NOT_CONVERGED)

    thr = 10.0 ** (-args.digits)
    worst_err = max(entry["abs_error"] for entry in report["outputs"])
    report["accuracy"] = {"digits": args.digits, "threshold": thr,
                          "final_abs_error": worst_err}
    if worst_err > thr:
        print(f"not converged: final error {worst_err:.3g} > 1e-{args.digits}")
        return _finish_verify(args, report, EXIT_NOT_CONVERGED)

    measured, verdicts = math.inf, []
    for entry, est in zip(report["outputs"], run.rates):
        if isinstance(est, ValueError):
            print(f"rate not measurable for {entry['species']}: {est}")
            return _finish_verify(args, report, EXIT_NOT_CONVERGED)
        v = rt.check_speed(est, bound, args.slack)
        verdicts.append(v)
        measured = min(measured, v.measured)
        entry["verdict"] = {"passed": v.passed, "required": v.required}
    passed = all(v.passed for v in verdicts)
    report["verdict"] = {"passed": passed, "measured": measured,
                         "required": verdicts[0].required, "slack": args.slack}
    target_txt = ", ".join(f"{x:.6g}" for x in targets)
    print(f"target [{target_txt}]  final error {worst_err:.3g}  "
          f"rho_hat {measured:.4g}  bound {bound.value:.4g} [{bound.case}]")
    for v in verdicts:
        print(f"  {v}")
    return _finish_verify(args, report, EXIT_OK if passed else EXIT_SPEED)


def _write_plot_data(path: str, traj, rails, targets):
    lines = ["t," + ",".join(f"ln_err_{sid}" for sid in rails)]
    cols = [abs(traj.series(sid) - tgt) for sid, tgt in zip(rails, targets)]
    for i, t in enumerate(traj.times):
        vals = [f"{math.log(c[i]):.8g}" if c[i] > 0 else "" for c in cols]
        lines.append(f"{t:.8g}," + ",".join(vals))
    _write(path, "\n".join(lines) + "\n")


def cmd_lemma(args) -> int:
    from . import lemma
    system = lemma.ForcedSystem(args.form, lemma.parse_forcing(args.g1),
                                lemma.parse_forcing(args.g2), args.m, args.x0)
    check = lemma.check_lemma(system, _sim_config(args, default_t_end=80.0), args.slack)
    pred, term = check.prediction, check.traj.termination
    report = {"form": args.form, "g1": args.g1, "g2": args.g2, "m": args.m,
              "x0": args.x0, "family": pred.family,
              "predicted_bound": {"value": pred.bound.value, "case": pred.bound.case},
              "target": pred.target,
              "termination": term.status}
    if term.status == "stiff_failure":
        print(f"integration failed: {term.detail}", file=sys.stderr)
        code = EXIT_NOT_CONVERGED
    elif check.error is not None:
        report["rate_error"] = str(check.error)
        print(f"rate not measurable: {check.error}")
        code = EXIT_NOT_CONVERGED
    elif check.verdict is None:  # blowup outside the growth family
        print(f"blowup at t={term.time:.6g}")
        code = EXIT_BLOWUP
    else:
        report["rate"] = _rate_fields(check.estimate)
        report["verdict"] = {"passed": check.passed, "required": check.verdict.required}
        goal = "1/x -> 0" if pred.target is None else f"target {pred.target:.6g}"
        print(f"{pred.family}: {goal}  {check.verdict}")
        code = EXIT_OK if check.passed else EXIT_SPEED
    _write_report(args.report, report)
    return code


# A sweep integrates its points in blocks of this many lanes.  Each block
# is one lockstep batch, so a row depends only on the points of its block;
# --jobs hands whole blocks to worker processes, which keeps serial and
# parallel output byte-identical.
SWEEP_BLOCK = 64


def _sweep_row(values: dict, run) -> dict:
    row = dict(values)
    if isinstance(run, ValueError):
        row["status"] = f"{type(run).__name__}: {run}"
        return row
    term = run.traj.termination
    row["termination"] = term.status
    if term.status == "stiff_failure":
        row["status"] = f"stiff_failure: {term.detail}"
        return row
    failed = [e for e in run.rates if isinstance(e, ValueError)]
    if failed:
        row["status"] = f"{type(failed[0]).__name__}: {failed[0]}"
        return row
    targets = run.targets
    row["target"] = targets[0] if len(targets) == 1 else targets[0] - targets[1]
    row["final_abs_error"] = max(abs(run.traj.final(sid) - tgt)
                                 for sid, tgt in zip(run.rails, targets))
    row["rho_hat"] = min(est.rho_hat for est in run.rates)
    row["r_squared"] = min(est.r_squared for est in run.rates)
    row["status"] = "ok"
    return row


def _sweep_rows(pipeline, points: list[dict]) -> list[dict]:
    return [_sweep_row(values, run)
            for values, run in zip(points, pipeline.run_points(points))]


# worker kept at module level so ProcessPoolExecutor can pickle it
def _sweep_block(payload) -> list[dict]:
    constructor, source, cfg, points = payload
    return _sweep_rows(constructor(*source, cfg), points)


def _parse_grid(spec: str) -> list[dict[str, float]]:
    axes: dict[str, list[float]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, vals = part.partition("=")
        name = name.strip()
        if not vals or not name:
            raise ValueError(f"bad grid axis {part!r}; expected name=v1,v2,...")
        if name in axes:
            raise ValueError(f"grid axis {name!r} given twice")
        try:
            axes[name] = [float(parse_number(v)) for v in vals.split(",")]
        except ValueError as e:
            raise ValueError(f"grid axis {name!r}: {e}") from None
    if not axes:
        raise ValueError("--grid names no axis")
    points: list[dict[str, float]] = [{}]
    for name, vals in axes.items():
        points = [dict(p, **{name: v}) for p in points for v in vals]
    return points


def cmd_sweep(args) -> int:
    from . import rates as rt
    if args.jobs < 1:
        return _err(f"--jobs must be at least 1, got {args.jobs}")
    points = _parse_grid(args.grid)
    cfg = _sim_config(args)
    if args.expr:
        if args.target is not None or args.species is not None:
            return _err("--target and --species apply to --crn sweeps only")
        constructor, source = rt.Pipeline.expression, (args.expr, args.mode or "nonneg")
    else:
        if args.mode is not None:
            return _err(MODE_CRN)
        if not args.target or not args.species:
            return _err("--crn sweeps need --target and --species")
        with open(args.crn) as fh:
            constructor, source = rt.Pipeline.network, (fh.read(), args.species, args.target)
    pipeline = constructor(*source, cfg)  # a bad source or --species fails here
    blocks = [points[i:i + SWEEP_BLOCK] for i in range(0, len(points), SWEEP_BLOCK)]
    if args.jobs > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts all its workers at once, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(blocks))) as pool:
            parts = list(pool.map(_sweep_block, [(constructor, source, cfg, b) for b in blocks]))
    else:
        parts = [_sweep_rows(pipeline, b) for b in blocks]
    rows = [row for part in parts for row in part]
    var_names = sorted({k for p in points for k in p})
    header = var_names + ["target", "final_abs_error", "rho_hat", "r_squared",
                          "termination", "status"]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [header] + [[f"{v:.10g}" if isinstance(v, float) else v
                     for v in (row.get(key, "") for key in header)] for row in rows])
    ok = [r["rho_hat"] for r in rows if r["status"] == "ok"]
    good = [x for x in ok if math.isfinite(x)]
    if good:
        mean = sum(good) / len(good)
        spread = (max(good) - min(good)) / mean if mean else math.inf
        out.write(f"# rho_hat over {len(good)} points: mean={mean:.6g} "
                  f"min={min(good):.6g} max={max(good):.6g} spread={spread:.4g}\n")
    if len(good) < len(ok):
        out.write(f"# rho_hat inf at {len(ok) - len(good)} of {len(ok)} ok points: "
                  "the error never reached the fit floor\n")
    _write(args.out, out.getvalue())
    return EXIT_OK


def cmd_gates(_args) -> int:
    sys.stdout.write(catalogue())
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_tol_flags(p):
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args fills a fresh
    Namespace each call and copies an append default before adding to it."""
    ap = argparse.ArgumentParser(prog="crncalc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an expression to a network")
    p.add_argument("--expr", required=True)
    p.add_argument("--mode", choices=("nonneg", "real"), default="nonneg")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="integrate a program or network")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr")
    src.add_argument("--crn", help="program text; bare networks take --in as "
                                   "initial species values")
    p.add_argument("--mode", choices=("nonneg", "real"), help="--expr only (default nonneg)")
    p.add_argument("--in", dest="inputs", action="append", default=[],
                   metavar="NAME=VALUE[,...]")
    p.add_argument("--sigma", type=float, default=1.0)
    _add_tol_flags(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="estimate convergence from a trajectory csv")
    p.add_argument("--traj", required=True)
    p.add_argument("--species")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--digits", type=int)
    p.add_argument("--floor", type=float)
    p.add_argument("--ceil", type=float)
    p.add_argument("--report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="simulate and check speed against the bound")
    p.add_argument("--expr", required=True)
    p.add_argument("--mode", choices=("nonneg", "real"), default="nonneg")
    p.add_argument("--in", dest="inputs", action="append", default=[],
                   metavar="NAME=VALUE[,...]")
    p.add_argument("--sigma", type=float, default=1.0)
    _add_tol_flags(p)
    p.add_argument("--slack", type=float, default=0.15)
    p.add_argument("--digits", type=int, default=6,
                   help="require final error <= 10^-digits (default 6)")
    p.add_argument("--out", help="also write the trajectory csv here")
    p.add_argument("--report", help="write a json report here")
    p.add_argument("--plot-data", help="write t, ln|error| columns here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lemma", help="check a forced scalar system against "
                                     "its predicted rate")
    p.add_argument("--form", choices=("linear", "power"), required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--x0", type=float, default=1.0)
    _add_tol_flags(p)
    p.add_argument("--slack", type=float, default=0.15)
    p.add_argument("--report")
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("sweep", help="run a grid of inputs, one row per point")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr")
    src.add_argument("--crn", help="program text, whose grid values are its "
                                   "inputs, or a bare network file, whose grid "
                                   "values are initial species values")
    p.add_argument("--mode", choices=("nonneg", "real"), help="--expr only (default nonneg)")
    p.add_argument("--grid", required=True, metavar="a=1,2;b=3,4")
    p.add_argument("--target", help="expression for the expected value "
                                    "(--crn sweeps)")
    p.add_argument("--species", help="output species to measure (--crn sweeps)")
    p.add_argument("--sigma", type=float, default=1.0)
    _add_tol_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gates", help="print the gate catalogue")
    p.set_defaults(func=cmd_gates)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        # every usage, parse or domain error (ParseError, ModeError,
        # DomainError, PreconditionError), and a file that cannot be read
        # or written
        return _err(str(e))


if __name__ == "__main__":
    sys.exit(main())
