"""Numerical integration of networks and forced scalar systems.

The polynomial right-hand side is generated as straight-line Python from
the exact field and integrated with the Dormand-Prince 5(4) pair: adaptive
steps and a quartic dense interpolant.  Each step attempt keeps the state
and the stage derivatives as the rows of one array, so every stage input
is one matrix-vector product.  Many initial states ("lanes") of one system
advance in lockstep as the columns of a single array, which is how sweeps
integrate a whole grid at once (see `integrate`).  Runs terminate early
when any concentration crosses the blowup threshold; that is reported as a
termination status, not an exception, because divergence of an inner
species is expected behavior for some networks.  A run that cannot meet
the tolerance, or uses up its budget of step attempts, ends in
stiff_failure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .circuit import CompiledProgram, encode_dual_rail
from .crn import PolynomialField, ReactionNetwork, derive_ode, parse_network
from .gates import factored_rates


@dataclass
class SimConfig:
    t_end: float = 40.0
    sigma: float = 1.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    blowup_threshold: float = 1e12

    def __post_init__(self):
        if self.t_end <= 0 or self.sigma <= 0 or self.blowup_threshold <= 0:
            raise ValueError("t_end, sigma and blowup_threshold must be positive")
        # floors keep requested accuracy within what the integrator can honor
        if self.rel_tol < 1e-13 or self.abs_tol < 1e-15:
            raise ValueError("tolerances below supported floor (1e-13 / 1e-15)")


@dataclass(frozen=True)
class Termination:
    status: str  # completed | blowup | stiff_failure
    species: str | None = None
    time: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class IntegrationStats:
    """Work done while a lane was in its batch.  One right-hand side
    evaluation covers every lane of the batch."""
    steps: int       # accepted steps
    rejected: int    # rejected step attempts
    rhs_evals: int


@dataclass
class Trajectory:
    species: tuple[str, ...]
    times: np.ndarray
    states: np.ndarray  # (n_times, n_species), clipped at 0
    termination: Termination
    negatives: tuple[tuple[str, float, float], ...] = ()
    dense: Callable | None = None
    stats: IntegrationStats | None = None

    def index(self, sid: str) -> int:
        return self.species.index(sid)

    def series(self, sid: str) -> np.ndarray:
        return self.states[:, self.index(sid)]

    def final(self, sid: str) -> float:
        return float(self.states[-1, self.index(sid)])

    def at(self, t, sid: str):
        """Species sid at time(s) t from the dense interpolant, clipped at 0."""
        if self.dense is None:
            raise ValueError("trajectory has no dense interpolant")
        return np.clip(self.dense(t, self.index(sid)), 0.0, None)

    def to_csv(self) -> str:
        lines = ["t," + ",".join(self.species)]
        for t, row in zip(self.times, self.states):
            lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row))
        term = f"# termination={self.termination.status}"
        if self.termination.species:
            term += f" species={self.termination.species}"
        if self.termination.time is not None:
            term += f" time={self.termination.time:.17g}"
        lines.append(term)
        return "\n".join(lines) + "\n"


def read_trajectory_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("t,"):
        raise ValueError("trajectory csv must start with a 't,<species...>' header")
    species = tuple(lines[0].split(",")[1:])
    term = Termination("completed")
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            m = re.match(r"#\s*termination=(\w+)(?:\s+species=(\w+))?(?:\s+time=(\S+))?", ln)
            if m:
                term = Termination(m.group(1), m.group(2),
                                   float(m.group(3)) if m.group(3) else None)
            continue
        vals = [float(v) for v in ln.split(",")]
        if len(vals) != len(species) + 1:
            raise ValueError(f"row width {len(vals)} does not match header")
        rows.append(vals)
    data = np.array(rows)
    return Trajectory(species, data[:, 0], data[:, 1:], term)


# ---------------------------------------------------------------------------
# code generation


def _rhs_function(exprs: Sequence[str], constant: Sequence[bool]) -> Callable:
    """Compile ``_rhs(t, y)`` returning one row per species.

    y is a sequence of floats or a (species, lanes) array.  The rows that
    do not depend on the state share one ``z = 0.0*x`` of the first such
    species: a held row is ``z`` and a constant row ``z + c``.  z gives
    them the lane shape, so the rows always stack into an array shaped
    like y, and it is +0.0 in every lane because those species never
    decrease from a non-negative start.
    """
    names = [f"x{i}" for i in range(len(exprs))]
    first = next((x for x, c in zip(names, constant) if c), None)
    exprs = [("z" if e == "0.0" else f"z + {e}") if c else e
             for e, c in zip(exprs, constant)]
    one = "," if len(exprs) == 1 else ""
    zero = f"    z = 0.0*{first}\n" if first else ""
    src = (f"def _rhs(t, y):\n    {', '.join(names)}{one} = y\n{zero}"
           f"    return ({', '.join(exprs)}{one})")
    env: dict = {}
    exec(src, env)
    return env["_rhs"]


def compile_rhs(field: PolynomialField, sigma: float = 1.0) -> Callable:
    """Generate a fast python function t, y -> dy/dt from the field."""
    names = [f"x{i}" for i in range(len(field.species))]
    exprs, constant = [], []
    for poly in field.polynomials:
        terms, varying = [], False
        for mono in poly:
            facs = [repr(float(mono.coeff) * sigma)]
            for j, e in enumerate(mono.exponents):
                if e == 0:
                    continue
                facs.extend([names[j]] * e)
            varying = varying or len(facs) > 1
            terms.append("*".join(facs))
        exprs.append(" + ".join(terms) if terms else "0.0")
        constant.append(not varying)
    return _rhs_function(exprs, constant)


def compile_circuit_rhs(circuit, order: Sequence[str], sigma: float = 1.0) -> Callable:
    """Generate the right-hand side gate by gate in factored form.

    Expands to exactly the same polynomials as compile_rhs on the
    flattened network, but evaluates differences like (u - v) before
    squaring.  The expanded monomials u^2 y^3 - 2 u v y^3 + v^2 y^3 cancel
    catastrophically once y is large while their true sum stays of order
    y, which stalls the step controller; the factored form does not.
    """
    idx = {sid: i for i, sid in enumerate(order)}
    exprs = ["0.0"] * len(order)
    s = repr(float(sigma))
    for g in circuit.gates:
        for sid, law in factored_rates(g, lambda sid: f"x{idx[sid]}"):
            exprs[idx[sid]] = law if sigma == 1.0 else f"{s}*({law})"
    # only species no gate writes (held inputs and constants) stay at 0.0
    return _rhs_function(exprs, [e == "0.0" for e in exprs])


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) integration in lockstep lanes
#
# Coefficients, error weights and the quartic dense-output matrix of the
# Dormand-Prince pair (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5),
# with the starting-step rule and step-size controller of scipy's RK45.

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (None,
      np.array([1 / 5]),
      np.array([3 / 40, 9 / 40]),
      np.array([44 / 45, -56 / 15, 32 / 9]),
      np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
      np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]))
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
               1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (order of the embedded error estimate + 1)
_TOO_SMALL = "Required step size is less than spacing between numbers."


# The attempt loop keeps the state and the stage derivatives stacked as
# the rows of one array Z = [y; K0 .. K6].  Row s - 1 of h*_COEF + _UNIT
# weights those rows into the input of stage s (s = 1..5), row 5 into the
# new state and row 6 into the error estimate, so each of them is one
# matrix-vector product.
_COEF = np.zeros((7, 8))
for _s in range(1, 6):
    _COEF[_s - 1, 1:_s + 1] = _A[_s]
_COEF[5, 1:7] = _B
_COEF[6, 1:] = _E
_UNIT = np.zeros((7, 8))
_UNIT[:6, 0] = 1.0
_amax = np.maximum.reduce  # ndarray.max without its python-level wrapper

# Step attempts, accepted or rejected, one integrate call may take; lanes
# still in the batch after the step that reaches it end in stiff_failure.
_MAX_ATTEMPTS = 20_000


def _lane_ops(n: int, lanes: int, floats: bool):
    """The stage buffer of n species x lanes and what the attempt loop
    applies to it.

    Z (8 x n*lanes) holds y and the stage derivatives K0..K6 as rows, each
    stored species-major.  ZT holds the transposed views the combinations
    multiply: ZT[s] = Z[:s + 1].T feeds stage s (s = 1..5) and ZT[6] the
    new state; ZT[7] = Z[1:].T, the stages alone, feeds the error estimate
    and the dense output.  rows is Z as the RHS writes it: flat rows with
    floats (one lane from the start), else (8, n, lanes), so that rhs's
    rows are assigned straight into Z[s].  state turns a flat state into
    rhs's argument: a list of floats with floats (python floats run the
    generated code faster than numpy scalars), else an (n, lanes) view.
    worst is the worst lane's RMS norm, lane_rms the per-lane RMS norms.
    """
    Z = np.empty((8, n * lanes))
    ZT = [Z[:s + 1].T for s in range(7)] + [Z[1:].T]
    if floats:
        root_n = n ** 0.5

        def worst(x):
            return math.sqrt(x.dot(x)) / root_n

        return Z, Z, ZT, np.ndarray.tolist, worst, lambda x: np.array([worst(x)])

    def squares(x):
        x = x.reshape(n, lanes)
        return np.einsum("ij,ij->j", x, x)

    def worst(x):  # the max of the lanes' RMS norms, as sqrt is monotone
        return math.sqrt(_amax(squares(x)) / n)

    return (Z, Z.reshape(8, n, lanes), ZT, lambda x: x.reshape(n, lanes), worst,
            lambda x: np.sqrt(squares(x) / n))


def _initial_step(rhs, state, lane_rms, y0, f0, t_end: float, rtol: float, atol: float):
    """Starting step of Hairer, Norsett & Wanner (II.4): the smallest any
    lane asks for, with the second-derivative estimate taken at that step."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = lane_rms(y0 / scale), lane_rms(f0 / scale)
    h0 = min(min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                 for a, b in zip(d0, d1)), t_end)
    f1 = np.reshape(rhs(h0, state(y0 + h0 * f0)), -1)
    d2 = lane_rms((f1 - f0) / scale) / h0
    h1 = min(max(1e-6, h0 * 1e-3) if a <= 1e-15 and b <= 1e-15
             else (0.01 / max(a, b)) ** (1 / 5) for a, b in zip(d1, d2))
    return float(min(100 * h0, h1, t_end))


class _DenseOutput:
    """The quartic interpolant of a lane's accepted steps.

    Called with a time or an array of times; returns (species,) or
    (species, times), or only species i: a scalar or (times,).  A time on
    a step boundary uses the step ending there.
    """

    def __init__(self, t_old, h, y_old, q):
        self.t_old, self.h, self.y_old, self.q = t_old, h, y_old, q

    def __call__(self, t, i: int | None = None):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.t_old, t, side="left") - 1, 0, self.h.size - 1)
        x = (t - self.t_old[k]) / self.h[k]
        p = np.cumprod(np.stack([x] * 4, axis=-1), axis=-1)
        if i is not None:
            return self.y_old[k, i] + self.h[k] * np.einsum("...j,...j->...", self.q[k, i], p)
        dy = np.einsum("...ij,...j->...i", self.q[k], p)
        return (self.y_old[k] + np.expand_dims(self.h[k], -1) * dy).T


def _crossing(t_old, t_new, y_old, q, threshold: float):
    """Bisect one step's interpolant for the first time max(y) reaches the
    threshold; returns that time and the state there."""
    step = _DenseOutput(np.array([t_old]), np.array([t_new - t_old]), y_old[None], q[None])
    lo, hi = t_old, t_new
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if threshold - step(mid).max() > 0:
            lo = mid
        else:
            hi = mid
    return hi, step(hi)


class _Segment:
    """Accepted steps taken while the batch held one fixed set of lanes."""

    def __init__(self, lanes: np.ndarray, t: float, y: np.ndarray):
        self.lanes = lanes       # lane number of each column, ascending
        self.t = [t]             # step boundaries
        self.y = [y]             # states at the boundaries
        self.h: list = []
        self.q: list = []        # dense-output coefficients, (species*lanes, 4)
        self._arrays = None

    def arrays(self):
        """Boundaries, step sizes, states (t, species, lanes) and
        coefficients (steps, species, lanes, 4) as arrays."""
        if self._arrays is None:
            n = self.y[0].size // self.lanes.size
            q = np.stack(self.q) if self.q else np.empty((0, self.y[0].size, 4))
            self._arrays = (np.array(self.t), np.array(self.h),
                            np.stack(self.y).reshape(len(self.y), n, -1),
                            q.reshape(len(self.q), n, -1, 4))
        return self._arrays


def _check_state(y: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    if np.any(y < 0):
        raise ValueError("initial state must be non-negative")
    return y


def integrate(rhs: Callable, y0: np.ndarray, species: Sequence[str],
              cfg: SimConfig) -> list[Trajectory]:
    """Integrate the columns of y0 (species x lanes) in lockstep and return
    one Trajectory per lane.

    rhs(t, y) takes y as (species, lanes), or as a list of floats when y0
    has one column, and returns one row per species.  All lanes take the
    same steps.  A step is accepted when the worst lane's RMS error is
    within tolerance, so every lane meets its own tolerance.  Each stage
    input, the new state and the error estimate is one product of the
    stacked state and stages with h-weighted tableau rows (Σ (h a_k) k_k,
    not h Σ a_k k_k), so a one-lane run has RK45's tableau, starting step
    and controller but may differ from it in the last bits.

    A lane leaves the batch when it crosses the blowup threshold, located
    by bisection on the step's interpolant, or when it cannot meet the
    tolerance even at the smallest step (stiff_failure).  Lanes still in
    the batch once _MAX_ATTEMPTS step attempts are used also end in
    stiff_failure, so every call returns.
    """
    y0 = _check_state(np.asarray(y0, dtype=float))
    n, n_lanes = y0.shape
    t_end, rtol, atol = cfg.t_end, cfg.rel_tol, cfg.abs_tol
    threshold = cfg.blowup_threshold
    lanes = np.arange(n_lanes)
    Z, rows, ZT, state, worst, lane_rms = _lane_ops(n, n_lanes, n_lanes == 1)
    t, y = 0.0, y0.flatten()
    Z[0] = y
    rows[1] = rhs(t, state(y))
    h_abs = _initial_step(rhs, state, lane_rms, y, Z[1], t_end, rtol, atol)
    y_abs = np.abs(y)
    scale, new_abs = np.empty((2, y.size))
    # W[s] weights ZT[s]: stage inputs s = 1..5, the new state, the error
    C = np.empty((7, 8))
    W = [None, *(C[s - 1, :s + 1] for s in range(1, 7)), C[6, 1:]]
    segments = [_Segment(lanes, t, y)]
    # lane -> (status, end time, state at a crossing, detail, segment,
    #          its steps, stats)
    ends: dict[int, tuple] = {}
    steps = rejected = 0
    while True:
        seg, where = segments[-1], len(segments) - 1
        if steps + rejected >= _MAX_ATTEMPTS:
            stats = IntegrationStats(steps, rejected, 2 + 6 * (steps + rejected))
            detail = f"Step attempt budget of {_MAX_ATTEMPTS} used up."
            for lane in lanes:
                ends[int(lane)] = ("stiff_failure", t, None, detail, where, len(seg.h),
                                   stats)
            break
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        h_first, accepted, retry = h_abs, False, False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            np.multiply(_COEF, h, out=C)
            C += _UNIT
            for s in range(1, 6):
                rows[s + 1] = rhs(t + _C[s] * h, state(ZT[s].dot(W[s])))
            y_new = ZT[6].dot(W[6])
            rows[7] = rhs(t + h, state(y_new))
            np.abs(y_new, out=new_abs)
            np.maximum(y_abs, new_abs, out=scale)
            scale *= rtol
            scale += atol
            err = ZT[7].dot(W[7])
            err /= scale
            error_norm = worst(err)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if retry:
                    factor = min(1, factor)
                h_abs *= factor
                accepted = True
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected += 1
            retry = True
        leaving = None
        if accepted:
            steps += 1
            q = ZT[7].dot(_P)
            seg.t.append(t_new)
            seg.h.append(h)
            seg.y.append(y_new)
            seg.q.append(q)
            done = t_new == t_end
            if done or not threshold - _amax(y_new) > 0:
                y_cols, q_cols = y.reshape(n, -1), q.reshape(n, -1, 4)
                crossed = ((threshold - y_cols.max(axis=0) >= 0)
                           & (threshold - y_new.reshape(n, -1).max(axis=0) <= 0))
                leaving = crossed | done
                stats = IntegrationStats(steps, rejected, 2 + 6 * (steps + rejected))
                for j in np.flatnonzero(leaving):
                    if crossed[j]:
                        t_hit, y_hit = _crossing(t, t_new, y_cols[:, j], q_cols[:, j],
                                                 threshold)
                        end = ("blowup", t_hit, y_hit, "")
                    else:
                        end = ("completed", t_new, None, "")
                    ends[int(lanes[j])] = end + (where, len(seg.h), stats)
            Z[1] = Z[7]  # first same as last
            Z[0] = y_new
            y_abs, new_abs = new_abs, y_abs
            t, y = t_new, y_new
        else:
            # the step shrank below what t can resolve: lanes still missing
            # the tolerance there leave, the others retry from h_first
            leaving = ~(lane_rms(err) < 1)
            stats = IntegrationStats(steps, rejected, 2 + 6 * (steps + rejected))
            for j in np.flatnonzero(leaving):
                ends[int(lanes[j])] = ("stiff_failure", t, None, _TOO_SMALL, where,
                                       len(seg.h), stats)
            h_abs = h_first
        if leaving is not None and leaving.any():
            keep = ~leaving
            if not keep.any():
                break
            lanes = lanes[keep]
            y = y.reshape(n, -1)[:, keep].reshape(-1)
            f = Z[1].reshape(n, -1)[:, keep].reshape(-1)
            Z, rows, ZT, state, worst, lane_rms = _lane_ops(n, lanes.size, False)
            Z[0], Z[1] = y, f
            y_abs = np.abs(y)
            scale, new_abs = np.empty((2, y.size))
            segments.append(_Segment(lanes, t, y))
    return [_lane_trajectory(segments, lane, ends[lane], species, atol)
            for lane in range(n_lanes)]


def _lane_trajectory(segments: list[_Segment], lane: int, end: tuple,
                     species: Sequence[str], abs_tol: float) -> Trajectory:
    status, t_last, y_last, detail, last, k_last, stats = end
    ts, hs, ys, qs = [], [], [], []
    for e, seg in enumerate(segments[:last + 1]):
        t, h, y, q = seg.arrays()
        k = k_last if e == last else h.size
        j = int(np.searchsorted(seg.lanes, lane))
        first = 1 if e else 0  # a segment opens on its predecessor's last state
        ts.append(t[first:k + 1])
        hs.append(h[:k])
        ys.append(y[first:k + 1, :, j])
        qs.append(q[:k, :, j])
    times, raw, h = np.concatenate(ts), np.concatenate(ys), np.concatenate(hs)
    dense = (_DenseOutput(times[:-1], h, raw[:-1], np.concatenate(qs))
             if h.size else None)
    if status == "blowup":  # the run ends where the threshold is crossed
        times[-1], raw[-1] = t_last, y_last
        term = Termination("blowup", species[int(np.argmax(y_last))], float(t_last))
    else:
        term = Termination(status, time=float(times[-1]), detail=detail)
    flags = []
    for j, sid in enumerate(species):
        low = float(raw[:, j].min(initial=0.0))
        if low < -abs_tol:
            k = int(np.argmin(raw[:, j]))
            flags.append((sid, float(times[k]), low))
    return Trajectory(tuple(species), times, np.clip(raw, 0.0, None), term,
                      tuple(flags), dense, stats)


def network_state(net: ReactionNetwork, init: Mapping[str, float]) -> np.ndarray:
    """Initial state from explicit per-species values (unlisted species
    start at 0)."""
    unknown = set(init) - set(net.species_ids)
    if unknown:
        raise ValueError(f"initial values for unknown species {sorted(unknown)}")
    return _check_state(np.array([float(init.get(sid, 0.0)) for sid in net.species_ids]))


def network_rhs(net: ReactionNetwork, sigma: float = 1.0) -> Callable:
    return compile_rhs(derive_ode(net), sigma)


def integrate_network(net: ReactionNetwork, init: Mapping[str, float],
                      cfg: SimConfig | None = None) -> Trajectory:
    """Integrate a network from explicit per-species initial values
    (unlisted species start at 0)."""
    cfg = cfg or SimConfig()
    y0 = network_state(net, init)
    return integrate(network_rhs(net, cfg.sigma), y0[:, None], net.species_ids, cfg)[0]


def initial_state(prog: CompiledProgram, inputs: Mapping[str, object]) -> dict[str, float]:
    """Default initial condition: inputs held at their values (signed
    values dual-rail encoded), constants pinned, species listed in
    init+ at 1, everything else at 0."""
    init: dict[str, float] = {sid: 0.0 for sid in prog.network.species_ids}
    bind = prog.bindings.input_map()
    for name, rails in bind.items():
        if name not in inputs:
            raise ValueError(f"missing value for input {name!r}")
        if len(rails) == 1:
            v = float(inputs[name])  # type: ignore[arg-type]
            if v < 0:
                raise ValueError(f"input {name} must be non-negative here")
            init[rails[0]] = v
        else:
            p, n = encode_dual_rail(inputs[name])
            init[rails[0]], init[rails[1]] = p, n
    extra = set(inputs) - set(bind)
    if extra:
        raise ValueError(f"unknown inputs {sorted(extra)}")
    for sid, val in prog.bindings.const_map().items():
        init[sid] = float(val)
    for sid in prog.bindings.positive_init:
        init[sid] = 1.0
    return init


def program_state(prog: CompiledProgram, inputs: Mapping[str, object]) -> np.ndarray:
    """initial_state as a vector in network species order."""
    init = initial_state(prog, inputs)
    return _check_state(np.array([init[sid] for sid in prog.network.species_ids]))


def program_rhs(prog: CompiledProgram, sigma: float = 1.0) -> Callable:
    """The factored gate RHS when the circuit is known, else the expanded field."""
    if prog.circuit is not None:
        return compile_circuit_rhs(prog.circuit, prog.network.species_ids, sigma)
    return network_rhs(prog.network, sigma)


def simulate_program(prog: CompiledProgram, inputs: Mapping[str, object],
                     cfg: SimConfig | None = None) -> Trajectory:
    cfg = cfg or SimConfig()
    y0 = program_state(prog, inputs)
    return integrate(program_rhs(prog, cfg.sigma), y0[:, None],
                     prog.network.species_ids, cfg)[0]


# ---------------------------------------------------------------------------
# forced scalar systems
#
# x' = g1(t) - g2(t) x          (linear)
# x' = x (g1(t) - g2(t) x^m)    (power)
#
# with g(t) = c0 + sum_i c_i t^{k_i} exp(-r_i t), every r_i > 0.


@dataclass(frozen=True)
class ForcingTerm:
    coeff: float
    power: int
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("forcing term must decay (rate > 0)")
        if self.power < 0:
            raise ValueError("negative power in forcing term")


@dataclass(frozen=True)
class ForcingFunction:
    constant: float
    terms: tuple[ForcingTerm, ...] = ()

    def __call__(self, t):
        val = self.constant + 0.0 * t if not np.isscalar(t) else self.constant
        for term in self.terms:
            val = val + term.coeff * t ** term.power * np.exp(-term.rate * t)
        return val

    @property
    def limit(self) -> float:
        return self.constant

    @property
    def rate(self) -> float:
        """Decay rate toward the limit; +inf for an exactly constant g."""
        return min((term.rate for term in self.terms), default=math.inf)

    def is_constant_one(self) -> bool:
        return not self.terms and self.constant == 1.0


def _split_top(text: str, seps: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in seps and depth == 0 and i > start:
            parts.append(text[start:i])
            start = i
    parts.append(text[start:])
    return parts


_EXP_RE = re.compile(r"exp\(\s*-\s*(?:(\d+(?:\.\d+)?)\s*\*\s*)?t\s*\)\Z")
_POW_RE = re.compile(r"t(?:\^(\d+))?\Z")
_NUM_RE = re.compile(r"\d+(?:\.\d+)?\Z")


def parse_forcing(text: str) -> ForcingFunction:
    """Parse strings like ``2 + 1*exp(-3*t) + 0.5*t^1*exp(-1*t)``."""
    constant = 0.0
    terms = []
    for chunk in _split_top(text.replace(" ", ""), "+-"):
        if not chunk or chunk in "+-":
            raise ValueError(f"empty term in forcing {text!r}")
        sign = 1.0
        if chunk[0] in "+-":
            sign = -1.0 if chunk[0] == "-" else 1.0
            chunk = chunk[1:]
        coeff, power, rate = sign, 0, 0.0
        for factor in _split_top(chunk, "*"):
            factor = factor.lstrip("*")
            if not factor:
                raise ValueError(f"empty factor in forcing term {chunk!r}")
            if m := _EXP_RE.match(factor):
                rate += float(m.group(1)) if m.group(1) else 1.0
            elif m := _POW_RE.match(factor):
                power += int(m.group(1)) if m.group(1) else 1
            elif _NUM_RE.match(factor):
                coeff *= float(factor)
            else:
                raise ValueError(f"bad factor {factor!r} in forcing {text!r}")
        if rate > 0:
            terms.append(ForcingTerm(coeff, power, rate))
        elif power > 0:
            raise ValueError(f"non-decaying term {chunk!r}: polynomial factors "
                             "need an exp factor")
        else:
            constant += coeff
    return ForcingFunction(constant, tuple(terms))


@dataclass(frozen=True)
class ForcedSystem:
    form: str  # linear | power
    g1: ForcingFunction
    g2: ForcingFunction
    m: int = 1
    x0: float = 1.0

    def __post_init__(self):
        if self.form not in ("linear", "power"):
            raise ValueError("form must be 'linear' or 'power'")
        if self.m < 1:
            raise ValueError("power form needs m >= 1")


def simulate_forced(system: ForcedSystem, cfg: SimConfig | None = None) -> Trajectory:
    cfg = cfg or SimConfig()
    if cfg.sigma != 1.0:
        raise ValueError("time scaling applies to networks, not forced systems")
    g1, g2, m = system.g1, system.g2, system.m
    if system.form == "linear":
        def rhs(t, y):
            return (g1(t) - g2(t) * y[0],)
    else:
        def rhs(t, y):
            x = np.float64(y[0])  # overflows to inf where a float power would raise
            return (x * (g1(t) - g2(t) * x ** m),)
    return integrate(rhs, np.array([[float(system.x0)]]), ("x",), cfg)[0]


# ---------------------------------------------------------------------------
# closed forms and small reference networks


def closed_form_reference(case: str, params: Mapping[str, float], t):
    """Exact solutions used as oracles for the integrator.

    naive_inversion        x' = 1 - a x
    designed_inversion     x' = x (1 - a x)
    identification         x' = a - x
    double_identification  y' = a - y, x' = y - x (returns x)
    """
    t = np.asarray(t, dtype=float)
    a = float(params["a"])
    x0 = float(params.get("x0", 0.0))
    if case == "naive_inversion":
        return 1.0 / a + (x0 - 1.0 / a) * np.exp(-a * t)
    if case == "designed_inversion":
        if x0 <= 0:
            raise ValueError("designed inversion needs x0 > 0")
        return x0 / (a * x0 + (1.0 - a * x0) * np.exp(-t))
    if case == "identification":
        return a + (x0 - a) * np.exp(-t)
    if case == "double_identification":
        y0 = float(params.get("y0", 0.0))
        return a * (1.0 - (1.0 + t) * np.exp(-t)) + (x0 + t * y0) * np.exp(-t)
    raise ValueError(f"unknown closed form {case!r}")


def naive_inversion_network() -> ReactionNetwork:
    """Constant production plus input-proportional consumption: the
    textbook x* = 1/a network whose speed depends on a."""
    return parse_network(
        "species: A[input], X[output]\n"
        "0 -> X ; k=1\n"
        "A + X -> A ; k=1\n")


def designed_inversion_network() -> ReactionNetwork:
    return parse_network(
        "species: A[input], X[output]\n"
        "X -> 2X ; k=1\n"
        "A + 2X -> A + X ; k=1\n")


def double_identification_network() -> ReactionNetwork:
    return parse_network(
        "species: A[input], Y[intermediate], X[output]\n"
        "A -> A + Y ; k=1\n"
        "Y -> 0 ; k=1\n"
        "Y -> Y + X ; k=1\n"
        "X -> 0 ; k=1\n")
