"""Rate estimation, digit times, speed verdicts, gate speed bounds and
`predict_speed`, and the point pipeline's input checks.

Synthetic trajectories with known decay rates are built directly so the
estimators are tested against arithmetic, not against the integrator.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crncalc.gates import GateKind, SpeedBound, gate_speed_bound
from crncalc.circuit import ModeError, ParseError, flatten, lower_to_circuit, predict_speed
from crncalc.lemma import (
    ForcedSystem,
    PreconditionError,
    check_lemma,
    forced_prediction,
    parse_forcing,
    simulate_forced,
)
from crncalc.simulate import (
    SimConfig,
    Termination,
    Trajectory,
    integrate,
    network_integrand,
)
from crncalc.cli import SWEEP_BLOCK
from crncalc.rates import (
    ERR_FLOOR,
    EstimationError,
    NotConvergedError,
    Pipeline,
    RateEstimate,
    _detrended_fit,
    _suffix_fits,
    auto_err_floor,
    check_speed,
    digits_time,
    estimate_rate,
)

from closed_forms import (designed_inversion_network, double_identification_network,
                          integrate_network, naive_inversion_network, network_state)


def synthetic(fn, t_end=30.0, n=1200, sid="x"):
    t = np.linspace(0.0, t_end, n)
    return Trajectory((sid,), t, fn(t).reshape(-1, 1), Termination("completed"))


# --- estimate_rate ------------------------------------------------------------

def test_plain_slope_on_pure_exponential():
    traj = synthetic(lambda t: 5.0 + 2.0 * np.exp(-1.5 * t))
    est = estimate_rate(traj, "x", 5.0)
    assert est.rho_hat == pytest.approx(1.5, abs=0.01)
    assert est.r_squared > 0.999
    assert est.samples_used >= 8
    lo, hi = est.fit_window
    assert lo < hi <= traj.times[-1]


def test_settled_trajectory_reports_inf():
    traj = synthetic(lambda t: np.full_like(t, 3.0))
    est = estimate_rate(traj, "x", 3.0)
    assert est.rho_hat == math.inf
    assert check_speed(est, SpeedBound(1.0, "unit"), 0.15).passed


def test_error_that_falls_through_the_floor_before_the_margin_raises():
    # above the floor at t = 0 and under it by the 1% settle margin: the
    # error fell too fast to be fitted, so no rate was measured and none
    # passes as inf
    traj = synthetic(lambda t: 3.0 + np.exp(-600.0 * t), t_end=80)
    with pytest.raises(EstimationError, match="floor 1e-09 before t=0.8, too early to fit"):
        estimate_rate(traj, "x", 3.0)


def test_growing_error_raises():
    traj = synthetic(lambda t: 1.0 + 1e-4 * np.exp(0.2 * t), t_end=20)
    with pytest.raises(EstimationError, match="not decaying"):
        estimate_rate(traj, "x", 1.0)


def test_too_few_window_samples_raises():
    traj = synthetic(lambda t: 1.0 + np.exp(-t), t_end=30, n=12)
    with pytest.raises(EstimationError, match="samples"):
        estimate_rate(traj, "x", 1.0)
    with pytest.raises(ValueError, match="got floor 0.01 and ceiling 1e-09 for target 0"):
        estimate_rate(synthetic(lambda t: np.exp(-t)), "x", 0.0,
                      err_floor=1e-2, err_ceil=1e-9)


def test_prefactor_does_not_bias_the_rate():
    # |x - target| = t^2 e^{-t}: a log-linear slope over the fit window
    # undershoots 1 by about k/t, the envelope fit recovers it
    traj = synthetic(lambda t: 2.0 + t ** 2 * np.exp(-t), t_end=40, n=2000)
    est = estimate_rate(traj, "x", 2.0)
    assert est.rho_hat == pytest.approx(1.0, abs=0.02)
    lo, hi = est.fit_window
    t, err = traj.times, traj.series("x") - 2.0
    window = (t >= lo) & (t <= hi)
    slope = np.polyfit(t[window], np.log(err[window]), 1)[0]
    assert 0.6 <= -slope <= 0.95


def test_rate_of_resampled_double_identification():
    # two chained identifications: a (c1 + c2 t) e^{-t} error, measured on
    # samples of the dense output
    net = double_identification_network()
    rhs, cap = network_integrand(net)
    (traj,) = integrate(rhs, network_state(net, {"A": 2.0})[:, None], net.species_ids,
                        SimConfig(t_end=30), cap, sample=["X"])
    assert 0.95 <= estimate_rate(traj, "X", 2.0).rho_hat <= 1.1


def _horizon(rho, c, k):
    """t where c (1+t)^k e^{-rho t} falls to 1e-10, by fixed-point iteration."""
    t = 0.0
    for _ in range(60):
        t = (math.log(c) + k * math.log1p(t) + math.log(1e10)) / rho
    return t


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=3))
def test_rate_recovery_within_one_percent(rho, c, k):
    traj = synthetic(lambda t: 4.0 + c * (1.0 + t) ** k * np.exp(-rho * t),
                     t_end=_horizon(rho, c, k), n=2500)
    est = estimate_rate(traj, "x", 4.0)
    assert est.rho_hat == pytest.approx(rho, rel=0.01)


def test_auto_err_floor():
    assert auto_err_floor(0.0, 1e-10, 1e-12) == 1e-9
    assert auto_err_floor(1e6, 1e-10, 1e-12) == pytest.approx(1e-3, rel=1e-4)
    assert auto_err_floor(5.0, 1e-6, 1e-12) == pytest.approx(6e-5)
    # samples are good to about atol, so the floor is at least 10 * atol
    assert auto_err_floor(0.0, 1e-10, 1e-4) == pytest.approx(1e-3)
    assert auto_err_floor(6.0, 1e-10, 1e-4) == pytest.approx(1e-3)
    assert auto_err_floor(1e6, 1e-10, 1e-5) == pytest.approx(1e-3, rel=1e-4)
    assert auto_err_floor(0.0, 1e-10, 1e-11) == 1e-9
    assert auto_err_floor(6.0, 1e-10, 1e-11) == pytest.approx(7e-9)


# --- a block of rows is fitted in one pass -------------------------------------

def assert_same_fit(got, traj, sid, target, floor):
    """got is what estimate_rate returns or raises for this one row alone,
    field by field or by type and message."""
    try:
        want = estimate_rate(traj, sid, target, err_floor=floor)
    except ValueError as e:
        assert type(got) is type(e) and str(got) == str(e)
        return type(e)
    assert isinstance(got, RateEstimate)
    for f in fields(RateEstimate):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    return RateEstimate


def test_block_rows_equal_their_own_fits():
    # every branch of the fit in one block of rows of unequal lengths
    edge = np.concatenate([np.linspace(0.0, 1.0, 10), [30.0]])
    gaps = 2.0 + np.exp(-np.linspace(0.0, 30.0, 1200))
    gaps[700:705] = np.nan  # samples the window leaves out
    rows = [
        # (trajectory, target, floor, what the row gets)
        (synthetic(lambda t: 5.0 + 2.0 * np.exp(-1.5 * t)), 5.0, ERR_FLOOR, "fit"),
        (synthetic(lambda t: np.full_like(t, 3.0 + 1e-12)), 3.0, ERR_FLOOR, "inf"),
        (synthetic(lambda t: 3.0 + np.exp(-600.0 * t), t_end=80), 3.0, ERR_FLOOR,
         "floor 1e-09 before t=0.8, too early to fit"),
        (synthetic(lambda t: 2.0 + t ** 2 * np.exp(-t), t_end=40, n=2000), 2.0, ERR_FLOOR,
         "fit"),
        (Trajectory(("x",), np.linspace(0.0, 30.0, 1200), gaps[:, None],
                    Termination("completed")), 2.0, ERR_FLOOR, "fit"),
        # zero rails: exactly at the target throughout, or at first, where
        # an error of 0 closes the window before it opens
        (synthetic(lambda t: np.zeros_like(t)), 0.0, ERR_FLOOR, "inf"),
        (synthetic(lambda t: 3e-3 * t * np.exp(-t)), 0.0, ERR_FLOOR,
         "only 0 samples with error in [1e-09, 0.01]"),
        (synthetic(lambda t: 1.0 + np.exp(-t), n=12), 1.0, ERR_FLOOR,
         "samples with error in"),
        (Trajectory(("x",), edge, 1e-3 * np.exp(-edge[:, None] / 10), Termination("completed")),
         0.0, ERR_FLOOR, "only 2 envelope bins in the fit window"),
        (synthetic(lambda t: 1.0 + 1e-4 * np.exp(0.2 * t), t_end=20), 1.0, ERR_FLOOR,
         "error is not decaying over the fit window"),
        (Trajectory(("x",), np.zeros(1), np.ones((1, 1)), Termination("stiff_failure")),
         1.0, ERR_FLOOR, "trajectory too short"),
        (synthetic(lambda t: np.exp(-t)), 0.0, 0.1, "got floor 0.1 and ceiling 0.01"),
    ]
    trajs, targets, floors, expected = map(list, zip(*rows))
    got = estimate_rate(trajs, ["x"] * len(rows), targets, floors)
    assert len(got) == len(rows)
    for est, traj, target, floor, want in zip(got, trajs, targets, floors, expected):
        kind = assert_same_fit(est, traj, "x", target, floor)
        if want == "fit":
            assert kind is RateEstimate and 0 < est.rho_hat < math.inf
        elif want == "inf":
            assert kind is RateEstimate and est.rho_hat == math.inf
        else:
            assert kind is not RateEstimate and want in str(est)
    assert got[3].rho_hat == pytest.approx(1.0, abs=0.02)  # t^2 e^-t
    full_window = estimate_rate(synthetic(lambda t: 2.0 + np.exp(-t)), "x", 2.0)
    assert got[4].samples_used == full_window.samples_used - 5
    # the same rows, those with equal times sharing one array as the lanes
    # of a sample grid do, then each with its own copy: the fit does not
    # depend on which rows share a time array
    grids: dict = {}
    shared = [replace(traj, times=grids.setdefault(traj.times.tobytes(), traj.times))
              for traj in trajs]
    copies = [replace(traj, times=traj.times.copy()) for traj in trajs]
    assert len({id(traj.times) for traj in shared}) < len(rows)
    assert len({id(traj.times) for traj in copies}) == len(rows)
    ests = [estimate_rate(block, ["x"] * len(rows), targets, floors) for block in (shared, copies)]
    for by_shared, by_copy, traj, target, floor in zip(*ests, copies, targets, floors):
        assert assert_same_fit(by_copy, traj, "x", target, floor) is type(by_shared)
        assert (by_copy == by_shared if type(by_copy) is RateEstimate
                else str(by_copy) == str(by_shared))


def test_sweep_block_rows_equal_their_own_fits():
    # a full sweep block of lanes, whose ties blow up at their own times:
    # each lane's rate equals the one-row fit of its own samples
    axis = np.geomspace(0.1, 50.0, 8)
    points = [{"a": a, "b": b} for a in axis for b in axis]
    assert len(points) == SWEEP_BLOCK
    cfg = SimConfig(t_end=40, rel_tol=1e-10, abs_tol=1e-12)
    runs = Pipeline.expression("max(a, b)", "nonneg", cfg).run_points(points)
    assert len({run.traj.times[-1] for run in runs}) == 2
    kinds = []
    for run in runs:
        (sid,), (target,), (est,) = run.rails, run.targets, run.rates
        kinds.append(assert_same_fit(est, run.traj, sid, target,
                                     auto_err_floor(target, cfg.rel_tol, cfg.abs_tol)))
    assert kinds.count(RateEstimate) >= SWEEP_BLOCK - len(axis)


# --- one-pass envelope fit against the per-window reference --------------------
#
# The per-window least squares the batched fit replaced, kept as its reference.

K_MAX, MIN_SUFFIX_BINS, ENVELOPE_BINS = 6.0, 8, 15


def reference_model_fit(bt, be):
    design = np.column_stack([np.ones_like(bt), bt, np.log1p(bt)])
    coef, *_ = np.linalg.lstsq(design, be, rcond=None)
    k = float(coef[2])
    if not 0.0 <= k <= K_MAX:
        k = min(max(k, 0.0), K_MAX)
        slope, c0 = np.polyfit(bt, be - k * np.log1p(bt), 1)
        coef = np.array([c0, slope, k])
    resid = be - design @ coef
    ss_tot = float(np.sum((be - be.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return -float(coef[1]), k, r2


def reference_suffix_fits(bt, be):
    return [reference_model_fit(bt[s:], be[s:])
            for s in range(max(1, bt.size - MIN_SUFFIX_BINS + 1))]


def near_tie_pick(r2s):
    best = max(r2s)
    return next(s for s, r2 in enumerate(r2s) if r2 >= best - 1e-6)


def reference_detrended_fit(seg_t, log_e):
    edges = np.linspace(seg_t[0], seg_t[-1], ENVELOPE_BINS + 1)
    bt, be = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (seg_t >= lo) & (seg_t <= hi)
        if m.any():
            j = int(np.argmax(log_e[m]))
            bt.append(seg_t[m][j])
            be.append(log_e[m][j])
    bt, be = np.array(bt), np.array(be)
    if bt.size < 4:
        raise EstimationError(f"only {bt.size} envelope bins in the fit window")
    fits = reference_suffix_fits(bt, be)
    s = near_tie_pick([r2 for _, _, r2 in fits])
    n_used = int(np.count_nonzero(seg_t >= bt[s]))
    return fits[s][0], (float(bt[s]), float(bt[-1])), fits[s][2], n_used


def envelope(seed, k):
    """Bin maxima of c + k ln(1+t) - rho t: one jittered sample per bin
    and 1e-3 noise, 4 to 15 bins."""
    rng = np.random.default_rng(seed)
    nb = 4 + seed % 12
    t0, span = rng.uniform(0.0, 10.0), rng.uniform(10.0, 35.0)
    bt = t0 + span / nb * (np.arange(nb) + rng.uniform(0.0, 1.0, nb))
    be = (rng.uniform(-2.0, 2.0) + k * np.log1p(bt) - rng.uniform(0.5, 2.0) * bt
          + rng.normal(0.0, 1e-3, nb))
    return bt, be


@pytest.mark.parametrize("k, fitted", [(-3.0, lambda k: k == 0.0),
                                       (2.5, lambda k: 0.0 < k < K_MAX),
                                       (9.0, lambda k: k == K_MAX)])
def test_suffix_fits_match_per_window_reference(k, fitted):
    # a free k below 0 or above K_MAX is pinned and the line refitted
    for seed in range(48):
        bt, be = envelope(seed, k)
        ref = np.array(reference_suffix_fits(bt, be))
        rho, k_fit, r2, windows = (x[0] for x in _suffix_fits(bt[None], be[None],
                                                              np.array([bt.size])))
        assert windows.all()
        assert all(fitted(v) for v in ref[:, 1]), (seed, ref[:, 1])
        new = np.column_stack([rho, k_fit, r2])
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=0, err_msg=str(seed))
        assert near_tie_pick(list(r2)) == near_tie_pick(list(ref[:, 2])), seed


def test_detrended_fit_matches_reference():
    # noisy samples with zero-crossing dips; some sit exactly on bin edges,
    # where they belong to both bins and can be the maximum of each; and
    # all the windows fitted as one block fit as each does alone
    windows, alone = [], []
    for seed in range(24):
        rng = np.random.default_rng(seed)
        t0, t1 = rng.uniform(0.0, 8.0), rng.uniform(20.0, 40.0)
        inner = rng.uniform(t0, t1, int(rng.integers(20, 1600)))
        seg_t = np.unique(np.concatenate([inner, np.linspace(t0, t1, ENVELOPE_BINS + 1)]))
        log_e = (2.0 * np.log1p(seg_t) - rng.uniform(0.5, 2.0) * seg_t
                 + rng.normal(0.0, 0.05, seg_t.size))
        log_e[rng.random(seg_t.size) < 0.1] -= 5.0
        on_edge = np.isin(seg_t, np.linspace(t0, t1, ENVELOPE_BINS + 1))
        log_e[on_edge & (rng.random(seg_t.size) < 0.5)] += 1.0
        (est,) = _detrended_fit(seg_t, log_e, np.array([0, seg_t.size]))
        ref_rho, ref_win, ref_r2, ref_n = reference_detrended_fit(seg_t, log_e)
        assert (est.fit_window, est.samples_used) == (ref_win, ref_n), seed
        assert est.rho_hat == pytest.approx(ref_rho, rel=1e-12, abs=0)
        assert est.r_squared == pytest.approx(ref_r2, rel=1e-12, abs=0)
        windows.append((seg_t, log_e))
        alone.append(est)
    bounds = np.cumsum([0] + [seg_t.size for seg_t, _ in windows])
    block = _detrended_fit(*map(np.concatenate, zip(*windows)), bounds)
    assert block == alone


def test_detrended_fit_needs_four_bins():
    seg_t = np.concatenate([np.linspace(0.0, 1.0, 10), [30.0]])
    (got,) = _detrended_fit(seg_t, -seg_t, np.array([0, seg_t.size]))
    assert isinstance(got, EstimationError) and str(got) == "only 2 envelope bins in the fit window"
    with pytest.raises(EstimationError, match="only 2 envelope bins"):
        reference_detrended_fit(seg_t, -seg_t)


# --- digit times ----------------------------------------------------------------

def test_digits_time_pure_exponential():
    traj = synthetic(lambda t: 1.0 + np.exp(-t), t_end=40, n=4000)
    for n in (1, 2, 4, 6):
        dt = digits_time(traj, "x", 1.0, n)
        assert dt.time == pytest.approx(n * math.log(10.0), rel=1e-3)
    times = [digits_time(traj, "x", 1.0, n).time for n in range(1, 7)]
    assert times == sorted(times)


def test_digits_time_edge_cases():
    settled = synthetic(lambda t: np.full_like(t, 2.0))
    assert digits_time(settled, "x", 2.0, 6).time == 0.0
    slow = synthetic(lambda t: 1.0 + np.exp(-0.01 * t), t_end=20)
    with pytest.raises(NotConvergedError) as exc:
        digits_time(slow, "x", 1.0, 6)
    assert exc.value.final_error > 0.1
    with pytest.raises(ValueError):
        digits_time(settled, "x", 2.0, 0)


# --- verdicts -------------------------------------------------------------------

def test_check_speed_threshold():
    bound = SpeedBound(1.0, "unit")
    est = lambda r: RateEstimate(r, (0.0, 1.0), 1.0, 10)
    assert check_speed(est(0.97), bound).passed
    assert not check_speed(est(0.84), bound).passed
    half = SpeedBound(0.5, "root of zero")
    assert not check_speed(est(0.40), half).passed
    assert check_speed(est(0.48), half).passed
    text = str(check_speed(est(0.40), half))
    assert "FAIL" in text and "0.425" in text
    with pytest.raises(ValueError):
        check_speed(est(1.0), bound, slack=1.0)
    with pytest.raises(ValueError):
        check_speed(est(1.0), SpeedBound(0.0, "degenerate"))


@pytest.mark.parametrize("r, m, rho", [(0.5, 2, 0.25), (1.0, 1, 1.0), (3.0, 2, 1.0)])
def test_growth_rate_is_the_decay_rate_of_the_reciprocal(r, m, rho):
    # x' = x (1 - e^{-r t} x^m): y = x^-m solves y' = -m y + m e^{-r t},
    # so 1/x = y^(1/m) decays at min(r/m, 1); at r == m y = (1 + m t) e^{-m t}
    check = check_lemma(ForcedSystem("power", parse_forcing("1"),
                                     parse_forcing(f"exp(-{r}*t)"), m=m),
                        SimConfig(t_end=80, rel_tol=1e-10, abs_tol=1e-12))
    assert check.prediction.bound.value == pytest.approx(rho)
    assert check.estimate.rho_hat == pytest.approx(rho, rel=0.01)
    assert check.passed


# --- gate speed bounds and predict_speed -------------------------------------------
#
# The rate rules of composition live in each gate's speed bound.  Rates
# below 1 keep the gate's cap at 1 from hiding the rule.

def test_gate_speed_bound_cases():
    speed = gate_speed_bound
    assert speed(GateKind("addition"), [0.3, 0.2], [1, 1]).value == 0.2
    mul = GateKind("multiplication")
    assert speed(mul, [0.2, 0.3], [0, 0]).value == 0.5    # both limits zero: rates add
    assert speed(mul, [0.2, 0.3], [1, 2]).value == 0.2
    assert speed(mul, [0.2, 0.3], [0, 2]).value == 0.2    # first limit zero
    assert speed(mul, [0.2, 0.3], [2, 0]).value == 0.3    # second limit zero
    assert speed(mul, [0.4, math.inf], [7, 3]).value == 0.4  # scalar multiple
    assert speed(GateKind("inversion"), [0.25], [3]).value == 0.25
    b = speed(GateKind("mth_root", 2), [0.4], [0])
    assert b.value == 0.2 and "root of zero" in b.case
    assert speed(GateKind("mth_root", 2), [0.4], [5]).value == 0.4
    assert speed(GateKind("mth_root", 3), [0.3], [0]).value == pytest.approx(0.1)
    with pytest.raises(ValueError, match="rates must be positive"):
        speed(GateKind("addition"), [0, 0.5], [1, 1])


def test_predict_speed_chaining():
    # two fourth roots of ties converge at 1/4 each; their zero-limit
    # product at 1/4 + 1/4, and the square root of that zero limit at 1/4
    c = lower_to_circuit("sqrt(sqrt(sqrt(abs(a - b))) * sqrt(sqrt(abs(c - d))))")
    assert predict_speed(flatten(c), {"a": 2, "b": 2, "c": 3, "d": 3}).bound.value == 0.25
    # a sum with a rate-1/2 term, its reciprocal and a scalar multiple all
    # keep the slowest rate
    c = lower_to_circuit("2 * (1 / (sqrt(abs(a - b)) + c))")
    assert predict_speed(flatten(c), {"a": 4, "b": 4, "c": 5}).bound.value == 0.5


rate_st = st.floats(min_value=0.1, max_value=4.0)
limit_st = st.sampled_from([0.0, 0.5, 2.0])


@given(rate_st, rate_st, limit_st, limit_st)
def test_calculus_matches_multiplication_gate(r1, r2, l1, l2):
    # product rule: rates add when both limits are zero, a zero-limit
    # factor sets the rate, else the slower factor does; capped at 1
    if l1 == 0 and l2 == 0:
        rule = r1 + r2
    elif l1 == 0:
        rule = r1
    elif l2 == 0:
        rule = r2
    else:
        rule = min(r1, r2)
    gate = gate_speed_bound(GateKind("multiplication"), [r1, r2], [l1, l2])
    assert gate.value == pytest.approx(min(rule, 1.0))


@given(rate_st, st.sampled_from([2, 3, 5]), limit_st)
def test_calculus_matches_root_gate(r, m, lim):
    # root rule: an m-th root of a zero limit divides the rate by m; capped at 1
    rule = r / m if lim == 0 else r
    gate = gate_speed_bound(GateKind("mth_root", m), [r], [lim])
    assert gate.value == pytest.approx(min(rule, 1.0))


# --- forced-system predictions -----------------------------------------------------

def test_forced_prediction_families():
    lin = ForcedSystem("linear", parse_forcing("6 + exp(-3*t)"),
                       parse_forcing("2 - exp(-0.5*t)"))
    p = forced_prediction(lin)
    assert p.family == "driven_linear"
    assert p.target == pytest.approx(3.0)
    assert p.bound.value == pytest.approx(0.5)  # min{3, 0.5, 2}

    pwr = ForcedSystem("power", parse_forcing("0.6 + exp(-5*t)"),
                       parse_forcing("2"), m=2)
    p = forced_prediction(pwr)
    assert p.family == "driven_power"
    assert p.target == pytest.approx(math.sqrt(0.3))
    assert p.bound.value == pytest.approx(1.2)  # min{5, inf, 2*0.6}

    dec = ForcedSystem("power", parse_forcing("-1 + exp(-2*t)"),
                       parse_forcing("1"))
    p = forced_prediction(dec)
    assert p.family == "decay_to_zero"
    assert p.target == 0.0
    assert p.bound.value == pytest.approx(1.0)  # min{2, 1}

    grw = ForcedSystem("power", parse_forcing("1"),
                       parse_forcing("exp(-3*t)"), m=2)
    p = forced_prediction(grw)
    assert p.family == "unbounded_growth"
    assert p.target is None
    assert p.bound.value == pytest.approx(1.0)  # min{3/2, 1}
    slow = ForcedSystem("power", parse_forcing("1"),
                        parse_forcing("exp(-0.6*t)"), m=2)
    assert forced_prediction(slow).bound.value == pytest.approx(0.3)


def test_forced_prediction_preconditions():
    with pytest.raises(PreconditionError):
        forced_prediction(ForcedSystem("linear", parse_forcing("1"),
                                       parse_forcing("-1 + exp(-t)")))
    with pytest.raises(PreconditionError):
        forced_prediction(ForcedSystem("power", parse_forcing("1"),
                                       parse_forcing("2"), x0=0.0))
    with pytest.raises(PreconditionError):
        forced_prediction(ForcedSystem("power", parse_forcing("2"),
                                       parse_forcing("exp(-t)")))


def test_forced_prediction_verified_by_simulation():
    sys = ForcedSystem("linear", parse_forcing("6 + exp(-3*t)"),
                       parse_forcing("2 - exp(-0.5*t)"))
    pred = forced_prediction(sys)
    traj = simulate_forced(sys, SimConfig(t_end=60, rel_tol=1e-10, abs_tol=1e-12))
    assert traj.final("x") == pytest.approx(pred.target, abs=1e-6)
    est = estimate_rate(traj, "x", pred.target)
    assert check_speed(est, pred.bound, slack=0.15).passed


def test_check_lemma_turns_every_ending_into_a_result():
    cfg = SimConfig(t_end=80)  # blowup threshold 1e12

    def check(form, g1, g2, m=1):
        return check_lemma(ForcedSystem(form, parse_forcing(g1), parse_forcing(g2), m=m), cfg)

    # a growth run ends in its expected blowup, after its fit window closed
    grown = check("power", "1", "exp(-1*t)")
    assert grown.traj.termination.status == "blowup"
    assert grown.estimate.fit_window[1] < grown.traj.termination.time
    assert grown.passed and grown.verdict.passed
    assert grown.verdict.required == pytest.approx(0.85)
    # a driven target of 1e300 crosses the configured threshold on the way
    blown = check("power", "1", "1e-300")
    assert blown.traj.termination.status == "blowup"
    assert blown.verdict is None and blown.error is None and not blown.passed
    # a target of 2e8 puts the error floor above the ceiling
    unmeasurable = check("linear", "2", "1e-8")
    assert isinstance(unmeasurable.error, ValueError) and not unmeasurable.passed
    driven = check("power", "0.6 + exp(-5*t)", "2", m=2)
    assert driven.passed and driven.verdict.passed
    assert driven.verdict.measured == driven.estimate.rho_hat
    with pytest.raises(ValueError, match=r"slack must lie in \[0, 1\), got 7"):
        check_lemma(ForcedSystem("linear", parse_forcing("1"), parse_forcing("1")), cfg, slack=7)


# --- input independence of the designed inversion -----------------------------------

def test_designed_inversion_rate_is_input_independent():
    horizons = {0.1: 240.0, 1.0: 40.0, 10.0: 40.0, 100.0: 40.0}
    rates = {}
    for a, t_end in horizons.items():
        traj = integrate_network(designed_inversion_network(), {"A": a, "X": 0.5},
                                 SimConfig(t_end=t_end, rel_tol=1e-10, abs_tol=1e-13))
        floor = auto_err_floor(1.0 / a, 1e-10, 1e-13)
        rates[a] = estimate_rate(traj, "X", 1.0 / a, err_floor=floor).rho_hat
    vals = np.array(list(rates.values()))
    spread = float(vals.max() - vals.min()) / float(vals.mean())
    assert spread < 0.10, rates
    assert np.all(np.abs(vals - 1.0) < 0.1), rates


def test_naive_inversion_rate_tracks_input():
    for a in [0.1, 1.0, 10.0, 100.0]:
        t_end = max(40.0 / a, 0.4)
        traj = integrate_network(naive_inversion_network(), {"A": a, "X": 0.0},
                                 SimConfig(t_end=t_end, rel_tol=1e-10, abs_tol=1e-13))
        floor = auto_err_floor(1.0 / a, 1e-10, 1e-13)
        rho = estimate_rate(traj, "X", 1.0 / a, err_floor=floor).rho_hat
        assert abs(rho - a) / a < 0.10, (a, rho)


# --- the point pipeline's input checks ------------------------------------------------

TWO_REACTIONS = "species: A[input], X[output]\n0 -> X ; k=1\nA + X -> A ; k=1\n"


def test_pipeline_constructors_raise_what_no_point_can_change():
    cfg = SimConfig(t_end=5)
    with pytest.raises(ModeError, match="subtraction is not expressible"):
        Pipeline.expression("a - b", "nonneg", cfg)
    with pytest.raises(ParseError, match="col 5"):
        Pipeline.expression("1/(a", "nonneg", cfg)
    with pytest.raises(ValueError, match="--species Z is not a species"):
        Pipeline.network(TWO_REACTIONS, "Z", "1/A", cfg)
    with pytest.raises(ParseError, match="col 5"):
        Pipeline.network(TWO_REACTIONS, "X", "1/(A", cfg)
    # what is left to run_points are the errors of a point
    pipeline = Pipeline.network(TWO_REACTIONS, "X", "1/A", cfg)
    run, *errors = pipeline.run_points([{"A": 2.0}, {"A": 2.0, "B": 1.0}, {"A": 0.0}, {}])
    assert pipeline.prog.gates is None and run.analysis is None and run.targets == [0.5]
    assert [str(e) for e in errors] == ["initial values for unknown species ['B']",
                                        "division by a zero limit",
                                        "no value for variable 'A'"]


@pytest.mark.parametrize("src,mode,points", [
    # a point refused at the blowup threshold, a blowup lane and completed
    # lanes: two step grids
    ("max(a, b)", "nonneg", [{"a": 1e200, "b": 2.0}, {"a": 2.0, "b": 2.0},
                             {"a": 1.0, "b": 3.0}, {"a": 3.0, "b": 1.0}]),
    # two rails per lane
    ("a*b - c", "real", [{"a": 1.3, "b": -2.1, "c": 0.7}, {"a": 0.5, "b": 2.0, "c": -1.5},
                         {"a": -2.2, "b": 0.4, "c": 0.3}]),
])
def test_batch_rates_equal_each_lanes_own_estimate(src, mode, points):
    # the batch samples every lane's rails; every rate equals estimate_rate
    # on that lane's own samples, field by field
    cfg = SimConfig(t_end=40, rel_tol=1e-10, abs_tol=1e-12)
    runs = Pipeline.expression(src, mode, cfg).run_points(points)
    if mode == "nonneg":
        refused = runs.pop(0)
        assert isinstance(refused, ValueError) and "of A is at or above" in str(refused)
    statuses = set()
    for run in runs:
        statuses.add(run.traj.termination.status)
        assert run.traj.species == tuple(run.rails)
        assert len(run.rates) == len(run.rails)
        for sid, tgt, got in zip(run.rails, run.targets, run.rates):
            try:
                want = estimate_rate(run.traj, sid, tgt,
                                     err_floor=auto_err_floor(tgt, cfg.rel_tol, cfg.abs_tol))
            except ValueError as e:
                assert type(got) is type(e) and str(got) == str(e)
                continue
            assert isinstance(got, RateEstimate)
            for f in fields(RateEstimate):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
    if mode == "nonneg":
        assert statuses == {"blowup", "completed"}
