"""Measuring exponential convergence and checking predicted bounds.

A rate is measured one way: estimate_rate fits ln|x(t) - target| over a
window chosen to dodge both the initial transient (error above err_ceil)
and integrator noise (error below err_floor).  In deep gate chains the
error carries a polynomial prefactor t^k e^{-rho t} with k up to 2 or 3,
which would bias a plain log-linear slope low by about k/t.  So the fit
is ln err ~ c + k*ln(1+t) - rho*t, on per-bin envelope maxima (which
also erase the dips left by sign changes of the error) over the
best-fitting trailing sub-window.  All trailing windows are fitted in
one pass of per-window sums: centring fits c, projecting t out leaves a
residual quadratic in k, so clipping the free k fits the bounded one.
Speed checks compare the fitted rate against (1 - slack) * bound.

estimate_rate fits the samples it is given, such as those integrate
takes of the species it is asked to sample (Trajectory.samples).
`Pipeline` is the one compile -> predict -> integrate -> measure path:
`verify`, `sweep` and the acceptance criteria all take their points
through it, and it measures every lane and rail from the samples of its
output rails.  `check_lemma` is the one judge of a forced scalar system,
for `lemma`, scripts/lemma_grid.py and the acceptance criteria alike; it
measures the growth family's rate as the decay rate of 1/x toward 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import circuit as circ
from . import simulate as sim
from .crn import parse_network
from .gates import SpeedBound
from .simulate import ForcedSystem, Trajectory


class EstimationError(ValueError):
    """No usable fit window in the trajectory."""


class NotConvergedError(ValueError):
    def __init__(self, message: str, final_error: float):
        super().__init__(message)
        self.final_error = final_error


class PreconditionError(ValueError):
    """Forced system outside the parameter region a lemma covers."""


@dataclass(frozen=True)
class RateEstimate:
    rho_hat: float  # math.inf when the error never reaches the floor
    fit_window: tuple[float, float]
    r_squared: float
    samples_used: int


@dataclass(frozen=True)
class DigitTime:
    n: int
    time: float


@dataclass(frozen=True)
class Verdict:
    passed: bool
    measured: float
    required: float
    bound: SpeedBound
    slack: float

    def __str__(self):
        word = "pass" if self.passed else "FAIL"
        return (f"{word}: rho_hat={self.measured:.4g} vs required "
                f"{self.required:.4g} = (1-{self.slack})*{self.bound.value:.4g}"
                f" [{self.bound.case}]")


MIN_FIT_SAMPLES = 8
ERR_FLOOR = 1e-9        # estimate_rate's default fit window
ERR_CEIL = 1e-2

_ENVELOPE_BINS = 15
_MIN_SUFFIX_BINS = 8
_K_MAX = 6.0            # prefactor degree cap; composite chains here stay below it


def auto_err_floor(target: float, rel_tol: float) -> float:
    """Raise the fit-window floor above integrator noise for large targets:
    the computed trajectory is only accurate to about rel_tol * scale."""
    return max(ERR_FLOOR, 10.0 * rel_tol * (1.0 + abs(target)))


def _suffix_fits(bt: np.ndarray, be: np.ndarray):
    """Least squares for ln err ~ c + k*ln(1+t) - rho*t with k in [0, _K_MAX]
    on every trailing window bt[s:] of at least _MIN_SUFFIX_BINS bins (only
    s = 0 when the envelope is shorter), solved as one batch.

    Window s zeroes the rows before s.  Each window is centred on its own
    means, which fits c, and the t column is projected out of ln(1+t) and
    ln err.  The residual is then quadratic in k, so the free k clipped to
    [0, _K_MAX] is the constrained optimum, and rho is the slope of
    ln err - k ln(1+t) on t.  Returns the arrays rho, k and r^2, indexed
    by s.
    """
    rows = np.arange(bt.size)
    mask = rows >= rows[:max(1, bt.size - _MIN_SUFFIX_BINS + 1), None]

    def dot(u, v):  # per window
        return np.einsum("wi,wi->w", u, v)

    t, lt, e = ((x - (mask @ x / mask.sum(axis=1))[:, None]) * mask
                for x in (bt, np.log1p(bt), be))
    tt = dot(t, t)
    lp, ep = (x - (dot(x, t) / tt)[:, None] * t for x in (lt, e))
    ll = dot(lp, lp)
    k = np.clip(np.divide(dot(lp, ep), ll, out=np.zeros_like(ll), where=ll > 0), 0.0, _K_MAX)
    d = e - k[:, None] * lt
    slope = dot(d, t) / tt
    resid = d - slope[:, None] * t
    ss_tot = dot(e, e)
    r2 = 1.0 - np.divide(dot(resid, resid), ss_tot, out=np.zeros_like(ss_tot), where=ss_tot > 0)
    return -slope, k, r2


def _detrended_fit(seg_t: np.ndarray, log_e: np.ndarray):
    """Prefactor-aware rate fit on envelope maxima of trailing sub-windows.

    Binning by time and keeping each bin's maximum discards the downward
    spikes where the signed error crosses zero; scanning suffixes lets the
    fit settle on the asymptotic regime when the window still starts inside
    a transient.  Among near-tied fits the longest window wins.  A bin is
    closed at both ends, so a sample on an edge belongs to both its bins.
    """
    edges = np.linspace(seg_t[0], seg_t[-1], _ENVELOPE_BINS + 1)
    starts = np.searchsorted(seg_t, edges[:-1], side="left")
    stops = np.searchsorted(seg_t, edges[1:], side="right")
    starts, stops = starts[starts < stops], stops[starts < stops]
    # each bin's samples, padded with repeats of its last one
    idx = np.minimum(starts[:, None] + np.arange((stops - starts).max()),
                     stops[:, None] - 1)
    picks = starts + np.argmax(log_e[idx], axis=1)
    bt, be = seg_t[picks], log_e[picks]
    if bt.size < 4:
        raise EstimationError(f"only {bt.size} envelope bins in the fit window")
    rho, _k, r2 = _suffix_fits(bt, be)
    s = int(np.argmax(r2 >= r2.max() - 1e-6))  # earliest (longest) near-tied suffix
    n_used = seg_t.size - int(np.searchsorted(seg_t, bt[s], side="left"))
    return float(rho[s]), (float(bt[s]), float(bt[-1])), float(r2[s]), n_used


def estimate_rate(traj: Trajectory, species: str, target: float,
                  err_floor: float = ERR_FLOOR, err_ceil: float = ERR_CEIL) -> RateEstimate:
    """Fit the tail decay rate of |x(t) - target| on traj's own samples.

    The window starts after the last sample with error above err_ceil and
    ends before the first subsequent sample below err_floor; the envelope
    fit of the module docstring measures the rate inside it.  If the error
    stays below the floor for the whole run (after a 1% settle margin) the
    rate is reported as +inf when the error never reached the floor, and
    raises EstimationError when it did: it fell through the fit window
    before the margin, too fast to be measured, so nothing shows the rate.
    """
    if not 0 < err_floor < err_ceil:
        raise ValueError(f"need 0 < error floor < error ceiling, got floor {err_floor:g} "
                         f"and ceiling {err_ceil:g} for target {float(target):g}")
    t = np.asarray(traj.times, dtype=float)
    if t.size < 2:
        raise EstimationError("trajectory too short")
    err = np.abs(traj.series(species) - float(target))
    settle = t[0] + 0.01 * (t[-1] - t[0])
    tail = err[t >= settle]
    if tail.size and float(tail.max()) < err_floor:
        if float(err.max()) >= err_floor:
            raise EstimationError(f"error fell below the floor {err_floor:g} before "
                                  f"t={settle:g}, too early to fit")
        return RateEstimate(math.inf, (float(settle), float(t[-1])), 1.0, int(tail.size))
    above = np.nonzero(err > err_ceil)[0]
    start = int(above[-1]) + 1 if above.size else 0
    below = np.nonzero(err[start:] < err_floor)[0]
    end = start + int(below[0]) if below.size else t.size
    seg_t, seg_e = t[start:end], err[start:end]
    keep = seg_e > 0
    seg_t, seg_e = seg_t[keep], seg_e[keep]
    if seg_t.size < MIN_FIT_SAMPLES:
        raise EstimationError(
            f"only {seg_t.size} samples with error in [{err_floor:g}, {err_ceil:g}]")
    rho, win, r2, n_used = _detrended_fit(seg_t, np.log(seg_e))
    if rho <= 0:
        raise EstimationError("error is not decaying over the fit window")
    return RateEstimate(rho, win, r2, n_used)


def digits_time(traj: Trajectory, species: str, target: float, n: int) -> DigitTime:
    """Smallest time after which |x - target| stays at or below 10^-n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    thr = 10.0 ** (-n)
    t = np.asarray(traj.times, dtype=float)
    err = np.abs(traj.series(species) - float(target))
    above = np.nonzero(err > thr)[0]
    if not above.size:
        return DigitTime(n, 0.0)
    i = int(above[-1])
    if i == t.size - 1:
        raise NotConvergedError(
            f"|{species} - {target:g}| still {err[-1]:.3g} > 1e-{n} at t={t[-1]:g}",
            float(err[-1]))
    e0, e1 = float(err[i]), float(err[i + 1])
    if e1 <= 0:
        frac = (e0 - thr) / e0
    else:
        frac = (math.log(e0) - math.log(thr)) / (math.log(e0) - math.log(e1))
    return DigitTime(n, float(t[i] + frac * (t[i + 1] - t[i])))


def check_slack(slack: float):
    """Raise ValueError unless 0 <= slack < 1."""
    if not 0 <= slack < 1:
        raise ValueError(f"slack must lie in [0, 1), got {slack:g}")


def check_speed(estimate: RateEstimate, bound: SpeedBound,
                slack: float = 0.15) -> Verdict:
    check_slack(slack)
    if bound.value <= 0:
        raise ValueError("speed bound must be positive")
    required = (1.0 - slack) * bound.value
    return Verdict(estimate.rho_hat >= required, estimate.rho_hat,
                   required, bound, slack)


# ---------------------------------------------------------------------------
# predictions for the forced scalar testbeds


@dataclass(frozen=True)
class LemmaPrediction:
    family: str
    target: float | None  # None for the unbounded growth family
    bound: SpeedBound


def forced_prediction(system: ForcedSystem) -> LemmaPrediction:
    g1, g2 = system.g1, system.g2
    if system.form == "linear":
        if g2.limit <= 0:
            raise PreconditionError("linear form needs g2 -> positive limit")
        b = min(g1.rate, g2.rate, g2.limit)
        return LemmaPrediction(
            "driven_linear", g1.limit / g2.limit,
            SpeedBound(b, "min{rho_g1, rho_g2, g2*}"))
    m = system.m
    if g1.limit > 0 and g2.limit > 0:
        if system.x0 <= 0:
            raise PreconditionError("power form needs x0 > 0")
        b = min(g1.rate, g2.rate, m * g1.limit)
        return LemmaPrediction(
            "driven_power", (g1.limit / g2.limit) ** (1.0 / m),
            SpeedBound(b, "min{rho_g1, rho_g2, m*g1*}"))
    if g1.limit < 0 < g2.limit:
        b = min(g1.rate, -g1.limit)
        return LemmaPrediction(
            "decay_to_zero", 0.0, SpeedBound(b, "min{rho_g1, -g1*}"))
    if g1.is_constant_one() and g2.limit == 0:
        if system.x0 <= 0:
            raise PreconditionError("growth family needs x0 > 0")
        b = min(g2.rate / m, 1.0)
        return LemmaPrediction(
            "unbounded_growth", None, SpeedBound(b, "min{rho_g2/m, 1}"))
    raise PreconditionError(
        "forced system not covered: need g2* > 0 (linear), g1*,g2* > 0 or "
        "g1* < 0 < g2* (power), or g1 == 1 with g2* = 0 (growth)")


@dataclass(frozen=True)
class LemmaCheck:
    """check_lemma's finding: the fitted rate `estimate` and its `verdict`.
    Both are None when the run ended in stiff_failure, in blowup outside
    the growth family, or in a measurement `error`."""
    prediction: LemmaPrediction
    traj: Trajectory
    estimate: RateEstimate | None = None
    verdict: Verdict | None = None
    error: ValueError | None = None

    @property
    def passed(self) -> bool:
        return self.verdict is not None and self.verdict.passed


def check_lemma(system: ForcedSystem, cfg: sim.SimConfig, slack: float = 0.15) -> LemmaCheck:
    """Integrate a forced system once and hold the rate of x's samples,
    fitted above auto_err_floor, to check_speed at `slack`.
    The growth family's rate is that of 1/x toward 0, so a blowup is its
    expected ending: its fit window closes at x = 1/err_floor, below the
    blowup threshold.  A bad slack or an uncovered system raises
    ValueError before anything is integrated."""
    check_slack(slack)
    pred = forced_prediction(system)
    growth = pred.family == "unbounded_growth"
    traj = sim.simulate_forced(system, cfg)
    status = traj.termination.status
    if status == "stiff_failure" or (status == "blowup" and not growth):
        return LemmaCheck(pred, traj)
    samples = replace(traj.samples, states=1.0 / traj.samples.states) if growth else traj.samples
    target = 0.0 if growth else pred.target
    try:
        est = estimate_rate(samples, "x", target,
                            err_floor=auto_err_floor(target, cfg.rel_tol))
    except ValueError as e:  # also a target whose error floor tops the ceiling
        return LemmaCheck(pred, traj, error=e)
    return LemmaCheck(pred, traj, est, check_speed(est, pred.bound, slack))


# ---------------------------------------------------------------------------
# the point pipeline


@dataclass
class PointRun:
    """One input point taken through the pipeline."""
    rails: list[str]
    targets: list[float]
    traj: Trajectory
    rates: list  # per rail: a RateEstimate, or the ValueError that stopped it
    analysis: circ.SpeedAnalysis | None  # None for a bare network


class Pipeline:
    """Compile -> predict -> integrate -> measure.

    kind "expr" lowers the expression `text` in `mode`; kind "crn" parses
    `text` as a bare network whose `species` is measured against the
    expression `target`, parsed once here.  Another kind, a missing target
    or an unknown species raises ValueError before any point runs.  The
    network is lowered, flattened and its right-hand side built once, with
    the step cap of the circuit (a bare network's follows the state, from
    its exact Jacobian); `run_points` takes a batch of input points through
    it, integrates them as one batch that samples the output rails, then
    calls estimate_rate once per lane and rail on those samples.  The
    layer functions are called through their modules, so they can be
    wrapped by name.
    """

    def __init__(self, kind: str, text: str, mode: str, target: str | None,
                 species: str | None, cfg: sim.SimConfig):
        if kind not in ("expr", "crn"):
            raise ValueError(f"unknown pipeline kind {kind!r}; expected 'expr' or 'crn'")
        self.kind, self.cfg = kind, cfg
        self.error: ValueError | None = None  # a lowering error every point reports
        if kind == "expr":
            expr = circ.parse_expression(text)
            try:
                self.circuit = circ.lower_to_circuit(expr, mode)
            except circ.ModeError as e:
                self.error = e
                return
            self.prog = circ.flatten(self.circuit)
            self.rails = list(self.prog.bindings.output)
            self.species = self.prog.species_ids
            self.rhs, self.max_step = sim.program_integrand(self.prog)
        else:
            self.net = parse_network(text)
            self.rails = [species]
            self.species = self.net.species_ids
            if species not in self.species:
                raise ValueError(f"--species {species} is not a species of the network")
            if target is None:
                raise ValueError("a network pipeline needs a target expression")
            self.target = circ.parse_expression(target)
            self.rhs, self.max_step = sim.network_integrand(self.net)

    def _point(self, values: dict):
        """Speed analysis (None for a bare network), targets and initial
        state of one point; raises ValueError for a point the network
        cannot run."""
        if self.error is not None:
            raise self.error
        if self.kind == "expr":
            analysis = circ.predict_speed(self.circuit, values)
            return (analysis, list(analysis.output_values),
                    sim.program_state(self.prog, values))
        y0 = sim.network_state(self.net, values)
        return None, [circ.eval_expr(self.target, values)], y0

    def _rail_rates(self, samples: Trajectory, targets: list[float]) -> list:
        """The rate estimate of each output rail from the rails' sampled
        trajectory, or the ValueError that stopped it (EstimationError,
        NotConvergedError)."""
        out = []
        for sid, tgt in zip(self.rails, targets):
            try:
                out.append(estimate_rate(samples, sid, tgt,
                                         err_floor=auto_err_floor(tgt, self.cfg.rel_tol)))
            except ValueError as e:
                out.append(e)
        return out

    def run_points(self, points: list[dict]) -> list:
        """A PointRun per point, or the ValueError (DomainError and
        ModeError included) that kept it from running.  The points that
        can run are integrated as one batch, which samples their rails.
        A lane that ends in stiff_failure in a batch of more than one is
        integrated again alone and reports that run, so that how a point
        ends does not depend on the points batched with it."""
        runs, lanes = [], []
        for values in points:
            try:
                lanes.append((len(runs), *self._point(values)))
                runs.append(None)
            except ValueError as e:
                runs.append(e)
        if lanes:
            y0 = np.column_stack([y0 for *_, y0 in lanes])
            trajs = self._integrate(y0)
            if len(trajs) > 1:
                trajs = [self._integrate(y0[:, [j]])[0]
                         if traj.termination.status == "stiff_failure" else traj
                         for j, traj in enumerate(trajs)]
            for (i, analysis, targets, _), traj in zip(lanes, trajs):
                runs[i] = PointRun(self.rails, targets, traj,
                                   self._rail_rates(traj.samples, targets), analysis)
        return runs

    def _integrate(self, y0: np.ndarray) -> list[Trajectory]:
        return sim.integrate(self.rhs, y0, self.species, self.cfg, self.max_step,
                             sample=self.rails)
