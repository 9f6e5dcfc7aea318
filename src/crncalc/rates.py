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

estimate_rate fits the samples it is given, such as the Trajectory
integrate returns of the species it is asked to sample: one
trajectory's, or a block of rows (trajectory, species, target, floor).
Each row's window is found on its own, and one vectorised envelope fit
covers the windows of the block.  A one-trajectory call is a one-row
block, and a row's result does not depend on the rows that share it.
`Pipeline` is the one compile -> predict -> integrate -> measure path:
`verify`, `sweep` and the acceptance criteria all take their points
through it, and it measures every lane and rail of a batch in one
estimate_rate call on the samples of its output rails.  Its
constructors, `Pipeline.expression` for an expression and
`Pipeline.network` for program text (a bare network is program text
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


def auto_err_floor(target: float, rel_tol: float, abs_tol: float) -> float:
    """Raise the fit-window floor above integrator noise: the computed
    trajectory is only accurate to about rel_tol * scale + abs_tol."""
    return max(ERR_FLOOR, 10.0 * rel_tol * (1.0 + abs(target)), 10.0 * abs_tol)


@np.errstate(invalid="ignore", divide="ignore")
def _suffix_fits(bt: np.ndarray, be: np.ndarray, nb: np.ndarray):
    """Least squares for ln err ~ c + k*ln(1+t) - rho*t with k in [0, _K_MAX]
    on every trailing window of each row's envelope, solved as one batch.
    Row r holds its nb[r] bins at the start of bt[r] and be[r], and its
    window s is bins s .. nb[r] - 1, for every s that leaves at least
    _MIN_SUFFIX_BINS bins (only s = 0 when the envelope is shorter).

    A window zeroes the bins outside it.  Each window is centred on its
    own means, which fits c, and the t column is projected out of
    ln(1+t) and ln err.  The residual is then quadratic in k, so the free
    k clipped to [0, _K_MAX] is the constrained optimum, and rho is the
    slope of ln err - k ln(1+t) on t.  Returns the arrays rho, k and r^2,
    indexed by (row, s), and which windows exist.  Every sum runs over
    the last axis, whose width is the caller's, so a row's fits do not
    depend on the other rows.
    """
    i = np.arange(bt.shape[-1])
    s = np.arange(max(1, i.size - _MIN_SUFFIX_BINS + 1))
    windows = s < np.maximum(1, nb - _MIN_SUFFIX_BINS + 1)[:, None]
    mask = ((i >= s[:, None]) & (i < nb[:, None, None]) & windows[..., None]).astype(float)

    def dot(u, v):  # per window
        return np.einsum("...i,...i->...", u, v)

    x = np.stack([bt, np.log1p(bt), be])[:, :, None]
    t, lt, e = (x - (dot(x, mask) / np.maximum(mask.sum(axis=-1), 1))[..., None]) * mask
    tt = dot(t, t)
    le = np.stack([lt, e])
    lp, ep = le - (dot(le, t) / tt)[..., None] * t
    ll = dot(lp, lp)
    k = np.clip(np.divide(dot(lp, ep), ll, out=np.zeros_like(ll), where=ll > 0), 0.0, _K_MAX)
    d = e - k[..., None] * lt
    slope = dot(d, t) / tt
    resid = d - slope[..., None] * t
    ss_tot = dot(e, e)
    r2 = 1.0 - np.divide(dot(resid, resid), ss_tot, out=np.zeros_like(ss_tot), where=ss_tot > 0)
    return -slope, k, r2, windows


def _detrended_fit(t: np.ndarray, log_e: np.ndarray, bounds: np.ndarray) -> list:
    """Prefactor-aware rate fit on envelope maxima of trailing sub-windows,
    of every row of a block at once.  Row r's fit window is
    t[bounds[r]:bounds[r + 1]], increasing, with log errors log_e there.
    Returns per row a RateEstimate, or the EstimationError of an envelope
    of fewer than 4 bins or of an error that is not decaying.

    Binning by time and keeping each bin's maximum discards the downward
    spikes where the signed error crosses zero; scanning suffixes lets the
    fit settle on the asymptotic regime when the window still starts inside
    a transient.  Among near-tied fits the longest window wins.  A bin is
    closed at both ends, so a sample on an edge belongs to both its bins.
    """
    rows = np.arange(bounds.size - 1)
    lo, hi = t[bounds[:-1]], t[bounds[1:] - 1]
    # each row's np.linspace(lo, hi, _ENVELOPE_BINS + 1)
    edges = np.arange(_ENVELOPE_BINS + 1) * ((hi - lo) / _ENVELOPE_BINS)[:, None] + lo[:, None]
    edges[:, -1] = hi
    key = _pairs(np.repeat(rows, np.diff(bounds)), t)
    starts = np.searchsorted(key, _pairs(rows[:, None], edges[:, :-1]), side="left")
    stops = np.searchsorted(key, _pairs(rows[:, None], edges[:, 1:]), side="right")
    del key  # the pairs below take its place
    full = starts < stops
    starts, stops = starts[full], stops[full]  # the bins, row after row
    # each bin's first largest sample, its largest (log error, -time)
    # pair, reduced from each start to its stop (a pair after the last
    # sample lets a stop be the end)
    top = np.zeros(t.size + 1, dtype=complex)
    top.real[:-1] = log_e
    np.negative(t, out=top.imag[:-1])
    top = np.maximum.reduceat(top, np.column_stack([starts, stops]).ravel())[::2]
    # each row's bins, packed at the start of the row
    nb = full.sum(axis=1)
    bt, be = np.zeros((2, rows.size, _ENVELOPE_BINS))
    at = np.nonzero(full)[0], (np.cumsum(full, axis=1) - 1)[full]
    bt[at], be[at] = -top.imag, top.real
    rho, _k, r2, windows = _suffix_fits(bt, be, nb)
    r2 = np.where(windows, r2, -np.inf)
    s = np.argmax(r2 >= r2.max(axis=1, keepdims=True) - 1e-6, axis=1)  # earliest (longest) near-tied suffix
    first = bt[rows, s]
    # the samples used: every one after the stop of the fit's first bin,
    # and those in that bin no earlier than its largest
    b = np.cumsum(nb) - nb + s
    size = stops[b] - starts[b]
    offset = np.cumsum(size) - size
    inside = t[np.repeat(starts[b] - offset, size) + np.arange(size.sum())] >= np.repeat(first, size)
    n_used = bounds[1:] - stops[b] + np.add.reduceat(inside, offset, dtype=int)
    return [EstimationError(f"only {bins} envelope bins in the fit window") if bins < 4
            else EstimationError("error is not decaying over the fit window") if rate <= 0
            else RateEstimate(rate, (lo, hi), fit, used)
            for bins, rate, lo, hi, fit, used in zip(
                nb.tolist(), rho[rows, s].tolist(), first.tolist(), bt[rows, nb - 1].tolist(),
                r2[rows, s].tolist(), n_used.tolist())]


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pairs (a, b) as complex numbers a + ib, which numpy orders by a,
    then b, so that searching (row, time) pairs finds a time in its own
    row of concatenated windows, and a range's largest (value, -time)
    pair is its first largest value."""
    z = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    z.real, z.imag = a, b
    return z


def _window(traj: Trajectory, species: str, target: float, floor: float, err_ceil: float):
    """One row's fit window, as its times and positive errors, or the +inf
    RateEstimate of an error that never reached the floor; raises the
    row's ValueError when it has neither (estimate_rate's rules)."""
    if not 0 < floor < err_ceil:
        raise ValueError(f"need 0 < error floor < error ceiling, got floor {floor:g} "
                         f"and ceiling {err_ceil:g} for target {float(target):g}")
    t = np.asarray(traj.times, dtype=float)
    if t.size < 2:
        raise EstimationError("trajectory too short")
    err = np.abs(traj.series(species) - float(target))
    settle = t[0] + 0.01 * (t[-1] - t[0])
    tail = err[t >= settle]
    if tail.size and tail.max() < floor:
        if err.max() >= floor:
            raise EstimationError(f"error fell below the floor {floor:g} before "
                                  f"t={settle:g}, too early to fit")
        return RateEstimate(math.inf, (float(settle), float(t[-1])), 1.0, tail.size)
    # after the last error above the ceiling, before the first one after
    # that below the floor, or the row's end
    above = np.flatnonzero(err > err_ceil)
    start = above[-1] + 1 if above.size else 0
    below = np.flatnonzero(err[start:] < floor)
    end = start + below[0] if below.size else t.size
    t, err = t[start:end], err[start:end]
    keep = err > 0  # leaves out nan errors
    if (n := np.count_nonzero(keep)) < MIN_FIT_SAMPLES:
        raise EstimationError(f"only {n} samples with error in [{floor:g}, {err_ceil:g}]")
    return t[keep], err[keep]


def _fit_block(trajs, species, targets, floors, err_ceil: float) -> list:
    """estimate_rate of every row r (trajs[r], species[r], targets[r],
    floors[r]): a RateEstimate, or the ValueError of the row.  Each row's
    window is found on its own, and one _detrended_fit call fits the
    windows of all rows that have one, so a row's result does not depend
    on the rows that share the block."""
    out = []
    for row in zip(trajs, species, targets, floors, strict=True):
        try:
            out.append(_window(*row, err_ceil))
        except ValueError as e:
            out.append(e)
    fit = [r for r, w in enumerate(out) if isinstance(w, tuple)]
    if fit:
        t, e = (np.concatenate([out[r][i] for r in fit]) for i in (0, 1))
        ests = _detrended_fit(t, np.log(e, out=e), np.cumsum([0] + [out[r][0].size for r in fit]))
        for r, est in zip(fit, ests):
            out[r] = est
    return out


def estimate_rate(traj: Trajectory | list[Trajectory], species: str | list[str],
                  target: float | list[float], err_floor: float | list[float] = ERR_FLOOR,
                  err_ceil: float = ERR_CEIL) -> RateEstimate | list:
    """Fit the tail decay rate of |x(t) - target| on traj's own samples.

    The window starts after the last sample with error above err_ceil and
    ends before the first subsequent sample below err_floor; the envelope
    fit of the module docstring measures the rate inside it.  If the error
    stays below the floor for the whole run (after a 1% settle margin) the
    rate is reported as +inf when the error never reached the floor, and
    raises EstimationError when it did: it fell through the fit window
    before the margin, too fast to be measured, so nothing shows the rate.

    Given one Trajectory, species, target and floor, returns its
    RateEstimate or raises its ValueError.  Given equally long lists of
    them instead (a block of rows), finds each row's window on its own,
    fits all the windows in one vectorised envelope fit, and returns per
    row a RateEstimate or the ValueError that stopped it.  Both are the
    same fit, and a row gets the same result in any block.
    """
    if isinstance(traj, Trajectory):
        (est,) = _fit_block([traj], [species], [target], [err_floor], err_ceil)
        if isinstance(est, ValueError):
            raise est
        return est
    return _fit_block(traj, species, target, err_floor, err_ceil)


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
    which makes one program that prediction (if it has gates), the
    right-hand side and the step cap read.  The last two are built once,
    and every error no point can change (a parse, mode or binding error,
    an unknown species) is raised before any point runs.
    `run_points` takes a batch of input points through it, binds each to
    an initial state with program_state, integrates them as one batch
    that samples the output rails (or every species), then calls
    estimate_rate once, on the block of every lane and rail of those
    samples.  The layer functions are called through their modules, so
    they can be wrapped by name.
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
        """The expression `text` compiled in `mode`, with the step cap of
        its gates; the point step predicts each point's speed from them."""
        prog = circ.compile_expression(text, mode)

        def point(values: dict):
            analysis = circ.predict_speed(prog, values)
            return analysis, list(analysis.output_values)

        return cls(prog, point, list(prog.bindings.output), cfg)

    @classmethod
    def network(cls, text: str, species: str, target: str, cfg: sim.SimConfig) -> Pipeline:
        """The program text `text` (circuit.load_program), whose `species`
        is measured against the expression `target`.  Its point values
        bind as simulate_program binds them: a program's inputs, or a bare
        network's initial species values.  Loaded text has no gates, so the
        step cap follows the state, from the network's exact Jacobian, and
        its runs have no speed analysis."""
        prog = circ.load_program(text)
        if species not in prog.species_ids:
            raise ValueError(f"--species {species} is not a species of the network")
        goal = circ.parse_expression(target)

        def point(values: dict):
            return None, [circ.eval_expr(goal, values)]

        return cls(prog, point, [species], cfg)

    def run_points(self, points: list[dict], every_species: bool = False) -> list:
        """A PointRun per point, or the point's own ValueError that kept it
        from running: a DomainError, a missing or unknown input, a value
        at the blowup threshold.  The points that can run are integrated
        as one batch, which samples their rails (every species with
        every_species, which changes no rail's samples), and one
        estimate_rate call fits every lane and rail of it.
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
            sample = None if every_species else self.rails
            trajs = self._integrate(y0, sample)
            if len(trajs) > 1:
                trajs = [self._integrate(y0[:, [j]], sample)[0]
                         if traj.termination.status == "stiff_failure" else traj
                         for j, traj in enumerate(trajs)]
            rows = [(traj, sid, tgt, auto_err_floor(tgt, self.cfg.rel_tol, self.cfg.abs_tol))
                    for (_, _, targets, _), traj in zip(lanes, trajs)
                    for sid, tgt in zip(self.rails, targets)]
            rates = iter(estimate_rate(*map(list, zip(*rows))))
            for (i, analysis, targets, _), traj in zip(lanes, trajs):
                runs[i] = PointRun(self.rails, targets, traj,
                                   [next(rates) for _ in self.rails], analysis)
        return runs

    def _integrate(self, y0: np.ndarray, sample) -> list[Trajectory]:
        return sim.integrate(self.rhs, y0, self.prog.species_ids, self.cfg, self.max_step,
                             sample=sample)
