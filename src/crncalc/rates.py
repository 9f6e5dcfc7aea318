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
output rails.  Its constructors, `Pipeline.expression` for an expression
and `Pipeline.network` for program text (a bare network is program text
without bindings), make one program each and raise every error that no
point can change, so a point meets only errors of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as circ
from . import simulate as sim
from .gates import SpeedBound
from .simulate import Trajectory


class EstimationError(ValueError):
    """No usable fit window in the trajectory."""


class NotConvergedError(ValueError):
    def __init__(self, message: str, final_error: float):
        super().__init__(message)
        self.final_error = final_error


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
# the point pipeline


@dataclass
class PointRun:
    """One input point taken through the pipeline."""
    rails: list[str]
    targets: list[float]
    traj: Trajectory
    rates: list  # per rail: a RateEstimate, or the ValueError that stopped it
    analysis: circ.SpeedAnalysis | None  # None for loaded program text


class Pipeline:
    """Compile -> predict -> integrate -> measure.

    Build one with `Pipeline.expression` or `Pipeline.network`, each of
    which makes one program.  The right-hand side and step cap are built
    once, and every error no point can change (a parse, mode or binding
    error, an unknown species) is raised before any point runs.
    `run_points` takes a batch of input points through it, binds each to
    an initial state with program_state, integrates them as one batch
    that samples the output rails, then calls estimate_rate once per lane
    and rail on those samples.  The layer functions are called through
    their modules, so they can be wrapped by name.
    """

    def __init__(self, prog: circ.CompiledProgram, point, rails: list[str],
                 cfg: sim.SimConfig):
        """What a constructor built: the program, the point step (values ->
        speed analysis or None and the rails' targets, or a ValueError of
        the point) and the output rails.  The right-hand side and step cap
        are the program's."""
        self.prog, self._point, self.rails, self.cfg = prog, point, rails, cfg
        self.rhs, self.max_step = sim.program_integrand(prog)

    @classmethod
    def expression(cls, text: str, mode: str, cfg: sim.SimConfig) -> Pipeline:
        """The expression `text` lowered in `mode` and flattened, with the
        step cap of its circuit; the point step predicts each point's speed."""
        circuit = circ.lower_to_circuit(circ.parse_expression(text), mode)
        prog = circ.flatten(circuit)

        def point(values: dict):
            analysis = circ.predict_speed(circuit, values)
            return analysis, list(analysis.output_values)

        return cls(prog, point, list(prog.bindings.output), cfg)

    @classmethod
    def network(cls, text: str, species: str, target: str, cfg: sim.SimConfig) -> Pipeline:
        """The program text `text` (circuit.load_program), whose `species`
        is measured against the expression `target`.  Its point values
        bind as simulate_program binds them: a program's inputs, or a bare
        network's initial species values; without a circuit the step cap
        follows the state, from the network's exact Jacobian.  Its runs
        have no speed analysis."""
        prog = circ.load_program(text)
        if species not in prog.species_ids:
            raise ValueError(f"--species {species} is not a species of the network")
        goal = circ.parse_expression(target)

        def point(values: dict):
            return None, [circ.eval_expr(goal, values)]

        return cls(prog, point, [species], cfg)

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
        """A PointRun per point, or the point's own ValueError that kept it
        from running: a DomainError, a missing or unknown input, a value
        at the blowup threshold.  The points that can run are integrated
        as one batch, which samples their rails.
        A lane that ends in stiff_failure in a batch of more than one is
        integrated again alone and reports that run, so that how a point
        ends does not depend on the points batched with it."""
        runs, lanes = [], []
        for values in points:
            try:
                lanes.append((len(runs), *self._point(values),
                              sim.program_state(self.prog, values)))
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
        return sim.integrate(self.rhs, y0, self.prog.species_ids, self.cfg, self.max_step,
                             sample=self.rails)
