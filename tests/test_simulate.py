"""Integration against exact solutions, forced scalar systems, CSV I/O."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import crncalc.simulate
from crncalc.crn import mass_action, parse_network
from crncalc.circuit import (compile_expression, eval_expr, flatten, format_program,
                             load_program, lower_to_circuit)
from crncalc.gates import GATES, gate_limit_rate
from crncalc.lemma import ForcedSystem, ForcingFunction, parse_forcing, simulate_forced
from crncalc.simulate import (
    SimConfig,
    circuit_max_step,
    compile_circuit_rhs,
    initial_state,
    integrate,
    network_integrand,
    program_integrand,
    program_state,
    read_trajectory_csv,
    simulate_program,
)

from closed_forms import (bare_program, closed_form_reference, designed_inversion_network,
                          double_identification_network, integrate_network,
                          naive_inversion_network)
from field_helpers import evaluate_field

TIGHT = dict(rel_tol=1e-10, abs_tol=1e-12)


def sup_err(traj, sid, reference):
    return float(np.max(np.abs(traj.series(sid) - reference(traj.times))))


def sampled(prog, init, cfg, sample=None, wrap=None):
    """One lane of a program integrated with sample, by its rhs wrapped
    in wrap if given; a bare network takes per-species initial values, a
    program with bindings its inputs."""
    rhs, cap = program_integrand(prog)
    return integrate(wrap(rhs) if wrap else rhs, program_state(prog, init)[:, None],
                     prog.species_ids, cfg, cap, sample=sample)[0]


class Recorder:
    """Wraps a right-hand side to record every call's (t, y), from which
    it recovers the accepted steps.  integrate evaluates stage 12 at
    t + h, the end of every attempt, and then, only when the step is
    accepted, the dense-output stages 13, 14 and 15 at t + 0.1 h,
    t + 0.2 h and t + 7/9 h."""

    def __init__(self):
        self.calls = []

    def wrap(self, rhs):
        def spy(t, y):
            self.calls.append((t, np.array(y, dtype=float)))
            return rhs(t, y)
        return spy

    def step_ends(self):
        """The stage 12 calls of the accepted steps, in order: each step's
        end time in tau and its new state."""
        c = crncalc.simulate._C
        t = np.array([t for t, _ in self.calls])
        end, u, v, w = t[:-3], t[1:-2], t[2:-1], t[3:]
        h = (v - u) / (c[14] - c[13])
        hit = ((h > 0) & np.isclose(end - u, (1 - c[13]) * h, rtol=1e-6, atol=0)
               & np.isclose(w - u, (c[15] - c[13]) * h, rtol=1e-6, atol=0))
        return [self.calls[i] for i in np.flatnonzero(hit)]

    def bounds(self):
        """0, then the end time in tau of every accepted step."""
        return np.array([0.0] + [t for t, _ in self.step_ends()])


# --- integrator vs closed forms ----------------------------------------------

def test_naive_inversion_matches_closed_form():
    net = naive_inversion_network()
    for a, x0 in [(2.0, 1.0), (0.5, 0.0), (4.0, 0.25)]:
        traj = integrate_network(net, {"A": a, "X": x0}, SimConfig(t_end=20, **TIGHT))
        err = sup_err(traj, "X", lambda t: closed_form_reference(
            "naive_inversion", {"a": a, "x0": x0}, t))
        assert err <= 1e-8, (a, x0, err)


def test_designed_inversion_matches_closed_form():
    net = designed_inversion_network()
    for a, x0 in [(2.0, 1.0), (0.5, 1.0), (3.0, 0.25)]:
        traj = integrate_network(net, {"A": a, "X": x0}, SimConfig(t_end=20, **TIGHT))
        err = sup_err(traj, "X", lambda t: closed_form_reference(
            "designed_inversion", {"a": a, "x0": x0}, t))
        assert err <= 1e-8, (a, x0, err)


def test_double_identification_matches_closed_form():
    net = double_identification_network()
    traj = integrate_network(net, {"A": 3.0}, SimConfig(t_end=20, **TIGHT))
    err = sup_err(traj, "X", lambda t: closed_form_reference(
        "double_identification", {"a": 3.0}, t))
    assert err <= 1e-8
    # intermediate follows plain identification
    err_y = sup_err(traj, "Y", lambda t: closed_form_reference(
        "identification", {"a": 3.0}, t))
    assert err_y <= 1e-8


def test_closed_form_rejects_unknown_case():
    with pytest.raises(ValueError):
        closed_form_reference("magic", {"a": 1.0}, 0.0)


def test_addition_program_closed_form():
    prog = compile_expression("a + b")
    traj = simulate_program(prog, {"a": 1, "b": 2}, SimConfig(t_end=20, **TIGHT))
    target = lambda t: 3.0 * (1.0 - np.exp(-t))
    assert sup_err(traj, "X1", target) <= 1e-8
    assert traj.final("X1") == pytest.approx(3.0, abs=1e-8)
    assert traj.termination.status == "completed"


def test_inversion_program_default_init():
    # init+ puts the output at 1, so the a=2, x0=1 solution applies directly
    prog = compile_expression("1/a")
    traj = simulate_program(prog, {"a": 2}, SimConfig(t_end=20, **TIGHT))
    err = sup_err(traj, "X1", lambda t: closed_form_reference(
        "designed_inversion", {"a": 2.0, "x0": 1.0}, t))
    assert err <= 1e-8


def test_tied_rectified_subtraction_is_exact():
    # at a = b the helper species obeys y' = y, so y = e^t and x = e^{-t}
    prog = compile_expression("rsub(a, b)")
    cfg = SimConfig(t_end=40, **TIGHT)
    traj = simulate_program(prog, {"a": 1, "b": 1}, cfg)
    assert traj.termination.status == "blowup"
    assert traj.termination.species == "Y1"
    assert traj.termination.time == pytest.approx(math.log(1e12), abs=1e-6)
    keep = traj.times <= 10.0
    y_err = np.abs(traj.series("Y1")[keep] - np.exp(traj.times[keep]))
    x_err = np.abs(traj.series("X1")[keep] - np.exp(-traj.times[keep]))
    assert float(np.max(y_err / np.exp(traj.times[keep]))) <= 1e-7
    assert float(np.max(x_err)) <= 1e-7


def test_default_blowup_threshold():
    prog = compile_expression("rsub(a, b)")
    traj = simulate_program(prog, {"a": 2, "b": 2}, SimConfig(t_end=40))
    assert traj.termination.status == "blowup"
    assert traj.termination.time == pytest.approx(math.log(1e12), rel=1e-4)


# --- time change and conserved inputs ----------------------------------------

def test_sigma_rescales_time():
    # sample j of [0, 8] is exactly half of sample j of [0, 16]
    prog = compile_expression("sqrt(a) + b")
    rails = ("X1", "X2", "Y1")
    base = sampled(prog, {"a": 4, "b": 1}, SimConfig(t_end=16, **TIGHT), rails)
    fast = sampled(prog, {"a": 4, "b": 1}, SimConfig(t_end=8, sigma=2.0, **TIGHT), rails)
    assert np.array_equal(2.0 * fast.times, base.times)
    for sid in rails:
        assert float(np.max(np.abs(fast.series(sid) - base.series(sid)))) <= 1e-7, sid


def test_inputs_are_bitwise_constant():
    prog = compile_expression("a * b")
    traj = simulate_program(prog, {"a": 1.7, "b": 2.3}, SimConfig(t_end=10))
    assert np.all(traj.series("A") == 1.7)
    assert np.all(traj.series("B") == 2.3)


def test_initial_state_rules():
    prog = compile_expression("a / b")
    init = initial_state(prog, {"a": 3, "b": 2})
    assert init == {"A": 3.0, "B": 2.0, "X1": 1.0, "X2": 0.0}
    with pytest.raises(ValueError, match="missing value"):
        initial_state(prog, {"a": 3})
    with pytest.raises(ValueError, match="unknown inputs"):
        initial_state(prog, {"a": 3, "b": 2, "c": 1})
    with pytest.raises(ValueError, match="non-negative"):
        initial_state(prog, {"a": -3, "b": 2})


def test_integrate_network_rejects_unknown_species():
    with pytest.raises(ValueError, match="unknown species"):
        integrate_network(naive_inversion_network(), {"A": 1, "Q": 2})


# --- forcing functions --------------------------------------------------------

def test_parse_forcing_examples():
    g = parse_forcing("2 + 1*exp(-3*t) + 0.5*t^1*exp(-1*t)")
    assert g.constant == 2.0
    assert len(g.terms) == 2
    assert g.limit == 2.0
    assert g.rate == 1.0
    assert g(0.0) == pytest.approx(3.0)
    big = g(50.0)
    assert big == pytest.approx(2.0, abs=1e-12)

    one = parse_forcing("1")
    assert one.is_constant_one() and one.rate == math.inf

    g2 = parse_forcing("2 - exp(-t)")
    assert g2.constant == 2.0 and g2.terms[0].coeff == -1.0
    assert g2.terms[0].rate == 1.0

    g3 = parse_forcing("-1 + exp(-2*t)")
    assert g3.limit == -1.0 and g3.rate == 2.0

    g4 = parse_forcing("t*exp(-2*t)")
    assert g4.terms[0].power == 1 and g4.terms[0].rate == 2.0


def test_parse_forcing_rejects_growth():
    for bad in ["3*t", "t^2", "exp(t)", "2 + q"]:
        with pytest.raises(ValueError):
            parse_forcing(bad)


@pytest.mark.parametrize("text,constant,terms", [
    ("1e-300", 1e-300, ()),
    ("2 + 1.5e-1*exp(-3*t)", 2.0, ((0.15, 0, 3.0),)),
    ("2 - 1E-2", 1.99, ()),
    ("2*1e+3 - 2.5e-1*t*exp(-4e0*t)", 2000.0, ((-0.25, 1, 4.0),)),
    ("exp(-2.5e1*t)", 0.0, ((1.0, 0, 25.0),))])
def test_parse_forcing_reads_scientific_notation(text, constant, terms):
    g = parse_forcing(text)
    assert g.constant == constant
    assert [(x.coeff, x.power, x.rate) for x in g.terms] == list(terms)


@pytest.mark.parametrize("bad", [
    "1e400", "9" * 400, "2*exp(-1e400*t)", "exp(-1e-400*t)", "1e", "e-3", "1e-3e-3",
    "2/3", "1.", "inf", "t^2e-1", "", "2 +"])
def test_parse_forcing_rejects_malformed_numbers(bad):
    # numbers a float cannot hold, and malformed numbers or terms
    with pytest.raises(ValueError):
        parse_forcing(bad)


def test_forced_linear_matches_closed_form():
    sys = ForcedSystem("linear", parse_forcing("2 + exp(-3*t)"),
                       parse_forcing("1"), x0=1.0)
    traj = simulate_forced(sys, SimConfig(t_end=20, **TIGHT))
    t = traj.times
    exact = 2.0 + (1.0 - 1.5) * np.exp(-t) - 0.5 * np.exp(-3.0 * t)
    assert float(np.max(np.abs(traj.series("x") - exact))) <= 1e-8


def test_forced_power_equals_designed_inversion():
    sys = ForcedSystem("power", ForcingFunction(1.0), ForcingFunction(2.0),
                       m=1, x0=1.0)
    traj = simulate_forced(sys, SimConfig(t_end=20, **TIGHT))
    err = sup_err(traj, "x", lambda t: closed_form_reference(
        "designed_inversion", {"a": 2.0, "x0": 1.0}, t))
    assert err <= 1e-8


def test_forced_matches_compiled_root_gate():
    # held input a=2: the root gate's helper species is exactly the power
    # form with g1 = 1, g2 = 2, m = 2
    prog = compile_expression("sqrt(a)")
    sys = ForcedSystem("power", ForcingFunction(1.0), ForcingFunction(2.0),
                       m=2, x0=1.0)
    forced = simulate_forced(sys, SimConfig(t_end=12, **TIGHT))
    root = sampled(prog, {"a": 2}, SimConfig(t_end=12, **TIGHT), ["Y1"])
    assert np.array_equal(root.times, forced.times)
    assert float(np.max(np.abs(root.series("Y1") - forced.series("x")))) <= 1e-8


def test_forced_system_validation():
    one = ForcingFunction(1.0)
    with pytest.raises(ValueError):
        ForcedSystem("cubic", one, one)
    with pytest.raises(ValueError):
        ForcedSystem("power", one, one, m=0)
    with pytest.raises(ValueError):
        simulate_forced(ForcedSystem("linear", one, one),
                        SimConfig(t_end=5, sigma=2.0))


# --- configuration and output -------------------------------------------------

def test_simconfig_validation():
    for bad in [dict(t_end=0), dict(sigma=-1), dict(rel_tol=1e-14), dict(abs_tol=1e-16),
                dict(sigma=1e300, t_end=1e10), dict(sigma=1e-300, t_end=1e-30)]:
        with pytest.raises(ValueError):
            SimConfig(**bad)


def test_csv_round_trip():
    prog = compile_expression("a/b")
    traj = simulate_program(prog, {"a": 1, "b": 2}, SimConfig(t_end=5))
    back = read_trajectory_csv(traj.to_csv())
    assert back.species == traj.species
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert back.termination.status == "completed"

    blow = simulate_program(compile_expression("rsub(a, b)"), {"a": 1, "b": 1},
                            SimConfig(t_end=40))
    back = read_trajectory_csv(blow.to_csv())
    assert back.termination.status == "blowup"
    assert back.termination.species == "Y1"
    assert back.termination.time == pytest.approx(math.log(1e12), abs=1e-5)


def test_csv_rejects_malformed_text():
    with pytest.raises(ValueError):
        read_trajectory_csv("no header\n1,2\n")
    with pytest.raises(ValueError):
        read_trajectory_csv("t,A,B\n0.0,1.0\n")


def test_no_negative_excursions_flagged():
    for src, vals in [("a + b", {"a": 1, "b": 2}), ("1/a", {"a": 3}),
                      ("sqrt(abs(a - b))", {"a": 5, "b": 2})]:
        traj = simulate_program(compile_expression(src), vals, SimConfig(t_end=30))
        assert traj.negatives == ()


# --- factored gate RHS agrees with the expanded polynomial field ---------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=7, max_size=7))
def test_factored_rhs_matches_expanded(values):
    prog = flatten(lower_to_circuit("sqrt(abs(a - b)) + a/b"))
    ids = prog.network.species_ids
    fast = compile_circuit_rhs(prog)
    slow, _ = network_integrand(prog.network)
    y = np.array((values * 3)[: len(ids)])
    lhs = np.asarray(fast(0.0, y), dtype=float)
    rhs = np.asarray(slow(0.0, y), dtype=float)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# --- lockstep lanes ------------------------------------------------------------

GRID = np.geomspace(0.1, 50.0, 5)
GRID_EXPRS = ["a + b", "a * b", "a / b", "sqrt(1/(a + b))", "max(a, b)"]


def direct_state(prog, point):
    """initial_state as a vector, without program_state's refusal of
    values at the blowup threshold, for direct lanes that overflow."""
    init = initial_state(prog, point)
    return np.array([init[sid] for sid in prog.species_ids])


def batch(src, points, cfg, sample=None, wrap=None):
    """The points' lanes of src, integrated as one batch that samples
    sample, by rhs wrapped in wrap if given."""
    prog = compile_expression(src)
    y0 = np.column_stack([direct_state(prog, p) for p in points])
    rhs, max_step = program_integrand(prog)
    return prog, integrate(wrap(rhs) if wrap else rhs, y0, prog.species_ids, cfg, max_step,
                           sample=sample)


@pytest.mark.parametrize("src", GRID_EXPRS)
def test_lanes_match_solo_runs(src):
    # the worst lane sets every step, so each lane is at least as accurate
    # as its solo run and both sit within tolerance of the true solution
    points = [{"a": a, "b": b} for a in GRID for b in GRID]
    cfg = SimConfig(t_end=40, **TIGHT)
    prog, lanes = batch(src, points, cfg)
    out = prog.bindings.output[0]
    for p, lane in zip(points, lanes):
        solo = simulate_program(prog, p, cfg)
        target = eval_expr(src, p)
        assert lane.termination.status == solo.termination.status, p
        assert abs(lane.final(out) - solo.final(out)) <= 1e-8 * max(1.0, abs(target)), p


def test_blowup_lane_leaves_the_batch():
    points = [{"a": 2.0, "b": 5.0}, {"a": 3.0, "b": 3.0}, {"a": 7.0, "b": 0.5}]
    cfg = SimConfig(t_end=40, **TIGHT)
    rec = Recorder()
    prog, (low, tie, high) = batch("max(a, b)", points, cfg, wrap=rec.wrap)
    assert tie.termination.status == "blowup"
    assert tie.termination.species == "Y1"
    assert tie.termination.time == pytest.approx(math.log(1e12), rel=1e-4)
    assert tie.times[-1] == tie.termination.time
    # the crossing lies in the tie's last accepted step
    bounds = rec.bounds()
    assert bounds[tie.stats.steps - 1] < tie.termination.time <= bounds[tie.stats.steps]
    for lane, target in ((low, 5.0), (high, 7.0)):
        assert lane.termination.status == "completed"
        assert lane.times[-1] == 40.0
        assert lane.stats.steps == bounds.size - 1 > tie.stats.steps
        assert lane.final(prog.bindings.output[0]) == pytest.approx(target, abs=1e-8)
    # the lanes share the sample times up to the blowup
    shared = tie.times.size - 1
    assert np.array_equal(low.times[:shared], tie.times[:shared])
    assert low.times[shared - 1] < tie.termination.time <= low.times[shared]


def test_a_batch_runs_the_same_through_any_rhs_route():
    # a generated rhs writes a batch's rows in place; the same law as a
    # plain callable returns them and integrate stores them.  Both routes
    # give the 25-lane max(a, b) block bit for bit the same run, whose
    # diagonal ties blow up while the rest complete
    points = [{"a": a, "b": b} for a in GRID for b in GRID]
    cfg = SimConfig(t_end=40, **TIGHT)
    _, direct = batch("max(a, b)", points, cfg)
    _, plain = batch("max(a, b)", points, cfg, wrap=lambda rhs: lambda t, y: rhs(t, y))
    assert [lane.termination.status for lane in direct] == [
        "blowup" if p["a"] == p["b"] else "completed" for p in points]
    for one, other in zip(direct, plain):
        assert np.array_equal(one.times, other.times)
        assert np.array_equal(one.states, other.states)
        assert (one.termination, one.negatives, one.stats) == (
            other.termination, other.negatives, other.stats)


def test_failing_lane_leaves_the_batch():
    # x' = -x turns into nan once t > 0.5 wherever x > 1: the lane from
    # x0 = 2 cannot meet the tolerance there and ends in stiff_failure,
    # while the lane from x0 = 1 carries on alone; the slope is -1
    def rhs(t, y):
        return (np.where((t > 0.5) & (y[0] > 1.0), np.nan, -y[0]),)
    cfg = SimConfig(t_end=10, **TIGHT)
    good, failed = integrate(rhs, np.array([[1.0, 2.0]]), ("x",), cfg,
                             crncalc.simulate._STEP_CAP)
    assert failed.termination.status == "stiff_failure"
    assert failed.termination.time == pytest.approx(0.5, abs=1e-6)
    assert good.termination.status == "completed"
    assert good.final("x") == pytest.approx(math.exp(-10.0), rel=1e-8)


def test_batch_down_to_one_lane_matches_solo_run():
    # once the tie blows up, the other lane carries on as an (n, 1) batch
    # of arrays, not on the float path of a run that starts with one lane
    points = [{"a": 3.0, "b": 3.0}, {"a": 2.0, "b": 5.0}]
    cfg = SimConfig(t_end=40, **TIGHT)
    prog, (tie, lane) = batch("max(a, b)", points, cfg)
    assert tie.termination.status == "blowup"
    assert lane.termination.status == "completed"
    assert lane.stats.steps > tie.stats.steps
    out = prog.bindings.output[0]
    solo = simulate_program(prog, points[1], cfg)
    assert solo.termination.status == "completed"
    assert abs(lane.final(out) - solo.final(out)) <= 1e-8 * 5.0
    assert lane.final(out) == pytest.approx(5.0, abs=1e-8)


def test_coefficient_table_reproduces_the_tableau():
    sim = crncalc.simulate
    coef, unit = sim._COEF, sim._UNIT
    assert coef.shape == unit.shape == (17, 17)
    for s in range(1, 16):  # stage inputs; stage 12's is the new state
        assert np.array_equal(coef[s - 1, 1:s + 1], sim._A[s, :s])
        assert not coef[s - 1, s + 1:].any()
    assert np.array_equal(coef[11, 1:13], sim._B)
    assert np.array_equal(coef[15, 1:13], sim._E5) and not coef[15, 13:].any()
    assert np.array_equal(coef[16, 1:13], sim._E3) and not coef[16, 13:].any()
    assert not coef[:, 0].any()
    assert np.array_equal(unit[:, 0], [1] * 15 + [0, 0]) and not unit[:, 1:].any()
    # the transcribed constants meet the pair's order conditions: every
    # stage is consistent, the weights integrate t^k exactly up to k = 7,
    # and the error weights (differences of consistent weights) vanish on
    # the powers the 5th- and 3rd-order solutions integrate exactly
    c = np.array(sim._C)
    assert np.all(np.abs(sim._A.sum(axis=1) - c) <= 1e-15)
    c = c[:12]
    for k in range(8):
        assert abs(sim._B.dot(c ** k) - 1 / (k + 1)) <= 1e-15, k
    for k in range(5):
        assert abs(sim._E5.dot(c ** k)) <= 1e-15, k
    for k in range(3):
        assert abs(sim._E3.dot(c ** k)) <= 1e-15, k


def test_fused_stage_combinations_match_the_reference():
    # Σ (h a_k) k_k with y stacked on top equals y + h Σ a_k k_k up to
    # roundoff, for every stage input (the new state is stage 12's) and
    # both error estimates
    rng = np.random.default_rng(9)
    sim = crncalc.simulate
    for _ in range(20):
        y = rng.uniform(0.5, 2.0, 40)
        K = rng.uniform(-1.0, 1.0, (16, 40))
        h = float(rng.uniform(1e-4, 1e-2))
        Z = np.vstack([y, K])
        C = h * sim._COEF + sim._UNIT
        for s in range(1, 16):
            fused = np.dot(Z[:s + 1].T, C[s - 1, :s + 1])
            ref = y + np.dot(K[:s].T, sim._A[s, :s]) * h
            size = np.abs(y) + h * np.dot(np.abs(K[:s].T), np.abs(sim._A[s, :s]))
            assert np.all(np.abs(fused - ref) <= 1e-15 * size), s
        for row, e in ((15, sim._E5), (16, sim._E3)):
            ref = np.dot(K[:12].T, e) * h
            size = h * np.dot(np.abs(K[:12].T), np.abs(e))
            assert np.all(np.abs(np.dot(C[row, 1:13], Z[1:13]) - ref) <= 1e-15 * size), row


def test_dense_output_meets_the_tolerance(monkeypatch):
    # the samples of the 7th-order interpolant start at the initial state,
    # its sample at t_end is the last step's state (which the lane's last
    # row holds) and they stay within ten times the tolerance of the exact
    # solution in between.  Its monomial coefficients sum stages weighted
    # by up to about 550, so at x = 1 they give y_new to roundoff of that
    # size on the step's increment.
    real = crncalc.simulate._sample_steps
    steps = []

    def spy(out, grid, start, pending, sigma):
        stop = real(out, grid, start, pending, sigma)
        if stop == grid.size:  # the pass that samples t_end
            steps.append((out[0, stop - 1].copy(), pending[-1][2][:, 0].copy()))
        return stop

    monkeypatch.setattr(crncalc.simulate, "_sample_steps", spy)
    cfg = SimConfig(t_end=40, **TIGHT)
    grid = np.linspace(0.0, 40.0, 1600)
    runs = [(designed_inversion_network(), {"A": a, "X": x0}, "X",
             closed_form_reference("designed_inversion", {"a": a, "x0": x0}, grid))
            for a, x0 in ((2.0, 1.0), (0.5, 1.0), (3.0, 0.25))]
    runs += [(double_identification_network(), {"A": a}, "X",
              closed_form_reference("double_identification", {"a": a}, grid))
             for a in (0.5, 3.0)]
    runs.append((parse_network("species: A, B\nA -> B ; k=3\nB -> A ; k=1\n"), {"A": 1.0},
                 "B", 0.75 * (1 - np.exp(-4 * grid))))
    for net, init, sid, exact in runs:
        traj = sampled(bare_program(net), init, cfg, [sid])
        got, y = traj.series(sid), traj.final(sid)
        assert np.array_equal(traj.times, grid)
        assert got[0] == init.get(sid, 0.0)
        # the last step's interpolant at t_end, and the state it starts from
        (at_end,), (y_old,) = steps[-1]
        assert abs(at_end - y) <= 1e-15 * y + 1e-12 * abs(y - y_old), init
        err = np.abs(got - exact)
        assert np.all(err <= 10 * cfg.rel_tol * (1 + np.abs(exact))), (init, err.max())


def test_attempt_budget_ends_the_batch(monkeypatch):
    # lanes still running when the attempts run out end in stiff_failure
    monkeypatch.setattr(crncalc.simulate, "_MAX_ATTEMPTS", 40)
    points = [{"a": 1.0, "b": 2.0}, {"a": 4.0, "b": 0.5}]
    cfg = SimConfig(t_end=40, **TIGHT)
    rec = Recorder()
    _, lanes = batch("a / b", points, cfg, wrap=rec.wrap)
    bounds = rec.bounds()
    for traj in lanes:
        term, stats = traj.termination, traj.stats
        assert term.status == "stiff_failure"
        assert "budget of 40" in term.detail
        assert 40 <= stats.steps + stats.rejected < 50  # checked between steps
        assert term.time == traj.times[-1] < 40.0
        assert stats.steps == bounds.size - 1
        assert term.time == pytest.approx(bounds[-1], rel=1e-15)
    one = simulate_program(compile_expression("a / b"), points[0], cfg)
    assert one.termination.status == "stiff_failure"
    assert 40 <= one.stats.steps + one.stats.rejected < 50


def test_rhs_rows_have_the_lane_shape():
    # held inputs and constant production still return one value per lane
    net = parse_network("species: A[input], X[output]\n0 -> X ; k=1\nA + X -> A ; k=1\n")
    y = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
    rows = np.asarray(network_integrand(net)[0](0.0, y))
    assert rows.shape == y.shape
    assert np.array_equal(rows[0], np.zeros(3))
    assert np.allclose(rows[1], 1.0 - y[0] * y[1])
    prog = compile_expression("a * b + 2")
    rows = np.asarray(program_integrand(prog)[0](0.0, np.ones((len(prog.species), 4))))
    assert rows.shape == (len(prog.species), 4)


def _held_rows(prog) -> list[int]:
    """The species whose rate is identically zero: no gate drives them in
    a compiled program, and no reaction changes them in a network."""
    if prog.gates is not None:
        driven = {s.id for g in prog.gates for s in (g.output, *g.intermediates)}
        return [i for i, sid in enumerate(prog.species_ids) if sid not in driven]
    return [i for i, poly in enumerate(mass_action(prog.network)) if not poly]


def test_rhs_writes_a_batch_in_place_with_the_tuple_bits():
    # the in-place rows of a batch are bit for bit the rows the tuple form
    # returns, and the held rows, which integrate keeps at +0.0, are never
    # written: out starts as nan and they stay nan
    nonneg = ["a", "a/b", "sqrt(a)", "root(3, a)", "abs(a - b)", "max(a, b) + 2"]
    real = ["a", "a/b", "a*b - c", "1/a"]
    progs = [compile_expression(src, mode) for mode, srcs in (("nonneg", nonneg), ("real", real))
             for src in srcs]
    kinds = {g.kind for prog in progs for g in prog.gates}
    assert {kind.tag for kind in kinds} == set(GATES)
    assert {kind.m for kind in kinds if kind.tag == "mth_root"} == {2, 3}
    # program text loads as its expanded field, and a bare network may hold
    # a zero-order reaction (B's constant row) and a rate written 1e-05
    progs.append(load_program(format_program(compile_expression("sqrt(abs(a - b)) + a/b"))))
    progs.append(load_program(format_program(compile_expression("a*b - c", "real"))))
    progs.append(bare_program(parse_network(
        "species: A[input], X[output], B\n0 -> B ; k=2\n0 -> X ; k=1\n"
        "A + X -> A ; k=1\nB + X -> B ; k=1/100000\n")))
    rng = np.random.default_rng(32)
    for prog in progs:
        rhs, _ = program_integrand(prog)
        n, held = len(prog.species_ids), _held_rows(prog)
        assert held
        y = rng.uniform(0.05, 4.0, (n, 25))
        want = np.asarray(rhs(0.0, y))
        out = np.full((n, 25), np.nan)
        assert rhs.in_place()(0.0, list(y), list(out)) is None
        assert np.isnan(out[held]).all()
        assert np.array_equal(want[held], np.zeros((len(held), 25)))
        driven = [i for i in range(n) if i not in held]
        assert np.array_equal(out[driven], want[driven])
        assert np.array_equal(np.signbit(out[driven]), np.signbit(want[driven]))
    assert crncalc.simulate._top_level_split("1e-05*x1 + -1.0*x0*x2") == (
        "add", "1e-05*x1", "-1.0*x0*x2")
    assert crncalc.simulate._top_level_split("-1.0*x0*x2") == ("multiply", "-1.0*x0", "x2")
    assert crncalc.simulate._top_level_split("x0 + x1 - (x2 - x3)") == (
        "subtract", "x0 + x1", "(x2 - x3)")
    assert crncalc.simulate._top_level_split("1e-05") is None


def test_dense_output_of_one_species_is_exact():
    # sampling one species gives exactly its column of sampling them all,
    # and what is sampled changes no step
    src = "sqrt(1/(a + b))"
    points = [{"a": a, "b": b} for a, b in ((0.1, 50.0), (2.0, 3.0), (7.0, 0.5))]
    cfg = SimConfig(t_end=40, **TIGHT)
    prog, full = batch(src, points, cfg)
    for sid in prog.species_ids:
        _, ones = batch(src, points, cfg, [sid])
        for every, one in zip(full, ones):
            assert every.species == prog.species_ids and one.species == (sid,)
            assert np.array_equal(one.times, every.times)
            assert (one.stats, one.termination) == (every.stats, every.termination)
            assert np.array_equal(one.states[:, 0], every.series(sid)), sid


def test_circuit_rhs_emission_is_exact(monkeypatch):
    # held rows share one zero, and the gate law is emitted bare
    sources = []

    def spy_exec(src, env):
        sources.append(src)
        exec(src, env)

    monkeypatch.setattr(crncalc.simulate, "exec", spy_exec, raising=False)
    prog = compile_expression("max(a, b) + 2")
    ids = prog.network.species_ids
    held = [ids.index(sid) for sid in
            [*prog.bindings.const_map(), *(r for rails in prog.bindings.input_map().values()
                                           for r in rails)]]
    assert len(held) == 3  # A, B, and the constant 2
    one = compile_circuit_rhs(prog)
    assert "1.0*" not in sources[0]
    y = np.random.default_rng(5).uniform(0.0, 4.0, (len(ids), 6))
    rows = np.asarray(one(0.0, y))
    assert np.array_equal(rows[held], np.zeros((3, 6)))
    assert not np.signbit(rows[held]).any()
    floats = one(0.0, y[:, 0].tolist())
    assert [floats[i] for i in held] == [0.0] * 3
    assert all(math.copysign(1.0, floats[i]) == 1.0 for i in held)
    assert np.array_equal(np.asarray(floats), rows[:, 0])
    # sigma is a change of time inside integrate: the same law is evaluated
    # at the same times and states, and the run ends in the same state,
    # reported at 1/sigma of its time
    y0 = program_state(prog, {"a": 1, "b": 3})[:, None]
    ref = Recorder()
    (base,) = integrate(ref.wrap(one), y0, ids, SimConfig(t_end=30), circuit_max_step(prog))
    for sigma in (2.0, 3.0):
        rec = Recorder()
        (fast,) = integrate(rec.wrap(one), y0, ids, SimConfig(t_end=30 / sigma, sigma=sigma),
                            circuit_max_step(prog))
        assert [t for t, _ in rec.calls] == [t for t, _ in ref.calls]
        assert all(np.array_equal(y, y_ref) for (_, y), (_, y_ref) in zip(rec.calls, ref.calls))
        assert np.array_equal(fast.states[-1], base.states[-1])
        assert np.array_equal(fast.times, np.linspace(0.0, 30 / sigma, fast.times.size))
        assert fast.times[-1] == fast.termination.time == 30 / sigma


def test_memory_does_not_grow_with_the_steps():
    # a 64-lane block of a real 8-term sum of products (122 species),
    # sampling its rails: four times the horizon takes about 50% more
    # steps, and no more memory, since a run keeps samples, not steps
    prog = compile_expression(" + ".join(f"a{i}*b{i}" for i in range(8)), "real")
    assert len(prog.species) == 122
    names = [f"{c}{i}" for i in range(8) for c in "ab"]
    y0 = np.column_stack([program_state(prog, {v: 0.5 + 0.02 * j + 0.1 * k
                                               for k, v in enumerate(names)})
                          for j in range(64)])
    rhs, cap = program_integrand(prog)
    # tracemalloc looks up the line of every allocation, which in the long
    # generated rhs is a scan of its code unless a profiler has built the
    # code's line table: one profiled call builds it
    sys.setprofile(lambda *args: None)
    rhs(0.0, y0)
    sys.setprofile(None)
    peaks, steps = [], []
    for t_end in (40, 160):
        tracemalloc.start()
        try:
            lanes = integrate(rhs, y0, prog.species_ids, SimConfig(t_end=t_end), cap,
                              sample=prog.bindings.output)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert {lane.termination.status for lane in lanes} == {"completed"}
        steps.append(lanes[0].stats.steps)
        del lanes
    assert steps[1] > 1.4 * steps[0], steps
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_stats_count_the_work():
    prog = compile_expression("a / b")
    rec = Recorder()
    traj = sampled(prog, {"a": 1, "b": 2}, SimConfig(t_end=20), wrap=rec.wrap)
    s = traj.stats
    assert s.steps == rec.bounds().size - 1
    assert s.rhs_evals == len(rec.calls) == 2 + 12 * (s.steps + s.rejected) + 3 * s.steps


def test_stats_count_the_work_of_bare_networks():
    # a bare network's cap, feed-forward or not, is exact and costs no rhs
    # evaluation, so its count is a circuit's
    for net in (double_identification_network(),
                parse_network("species: A, B\nA -> B ; k=3\nB -> A ; k=1\n")):
        calls = []
        rhs, max_step = network_integrand(net)

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        y0 = np.zeros((len(net.species), 1))
        y0[0] = 2.0
        traj = integrate(counted, y0, net.species_ids, SimConfig(t_end=40), max_step)[0]
        s = traj.stats
        assert s.steps > 2 * crncalc.simulate._RHO_INTERVAL
        assert s.rhs_evals == len(calls) == 2 + 12 * (s.steps + s.rejected) + 3 * s.steps


def test_steps_stay_within_the_cap():
    # a circuit's cap comes from its gates; a feed-forward network's from
    # its Jacobian's diagonal, here the constant rate 4 of X -> 0
    # at sigma = 3 no step is longer than a third of the cap in t
    prog = compile_expression("sqrt(abs(a - b))")
    rec = Recorder()
    sampled(prog, {"a": 5, "b": 2}, SimConfig(t_end=20, sigma=3.0), wrap=rec.wrap)
    cap = circuit_max_step(prog)
    assert cap == crncalc.simulate._STEP_CAP / 2
    assert np.diff(rec.bounds() / 3.0).max() == pytest.approx(cap / 3, rel=1e-12)
    net = parse_network("species: X[output]\nX -> 0 ; k=4\n")
    rec = Recorder()
    traj = sampled(bare_program(net), {"X": 1.0}, SimConfig(t_end=40), ["X"], rec.wrap)
    assert np.diff(rec.bounds()).max() <= crncalc.simulate._STEP_CAP / 4 * (1 + 1e-6)
    grid = traj.times
    assert np.abs(traj.series("X") - np.exp(-4 * grid)).max() <= 1e-10


def _jacobian(rhs, y):
    """Central-difference Jacobian of the one-lane rhs at y."""
    n = y.size
    d = 1e-6 * np.maximum(np.abs(y), 1.0)
    cols = []
    for j in range(n):
        up, down = y.copy(), y.copy()
        up[j] += d[j]
        down[j] -= d[j]
        cols.append((np.array(rhs(0.0, up.tolist())) - np.array(rhs(0.0, down.tolist())))
                    / (2 * d[j]))
    return np.column_stack(cols)


# one circuit per gate kind, with a non-degenerate limit
LIMIT_CASES = [("a", "nonneg", {"a": 2.0}), ("1/a", "nonneg", {"a": 2.0}),
               ("sqrt(a)", "nonneg", {"a": 2.0}), ("root(3, a)", "nonneg", {"a": 2.0}),
               ("root(5, a)", "nonneg", {"a": 2.0}), ("a + b", "nonneg", {"a": 2.0, "b": 0.5}),
               ("a * b", "nonneg", {"a": 2.0, "b": 0.5}),
               ("abs(a - b)", "nonneg", {"a": 2.0, "b": 0.5}),
               ("rsub(a, b)", "nonneg", {"a": 2.0, "b": 0.5}),
               ("rsub(a, b)", "nonneg", {"a": 0.5, "b": 2.0}),
               ("1/a", "real", {"a": -2.0})]


@pytest.mark.parametrize("src, mode, inputs", LIMIT_CASES)
def test_gate_limit_rate_is_the_jacobian_spectrum(src, mode, inputs):
    # lowering is feed-forward, so the Jacobian of the generated RHS is
    # lower-triangular in species order, and at the limit its spectral
    # radius is the gate's constant: 1, 2 for the subtraction gates, m for
    # an m-th root
    prog = compile_expression(src, mode)
    kinds = {g.kind for g in prog.gates}
    assert len(kinds) == 1
    traj = simulate_program(prog, inputs, SimConfig(t_end=40))
    assert traj.termination.status == "completed"
    J = _jacobian(program_integrand(prog)[0], traj.states[-1])
    assert not np.triu(J, 1).any()
    rho = np.abs(np.linalg.eigvals(J)).max()
    assert rho == pytest.approx(gate_limit_rate(kinds.pop()), abs=1e-2)
    cap = crncalc.simulate._STEP_CAP
    assert cap / circuit_max_step(prog) == pytest.approx(rho, abs=1e-2)


def test_limit_cases_cover_every_gate():
    tags = {g.kind.tag for src, mode, _ in LIMIT_CASES
            for g in lower_to_circuit(src, mode).gates}
    assert tags == set(GATES)
    roots = {g.kind.m for src, mode, _ in LIMIT_CASES
             for g in lower_to_circuit(src, mode).gates if g.kind.tag == "mth_root"}
    assert roots == {2, 3, 5}


def test_composite_limit_rate_is_sigma_times_its_largest_gate():
    prog = compile_expression("sqrt(abs(a - b)) + root(3, a*b)")
    rates = sorted(gate_limit_rate(g.kind) for g in prog.gates)
    assert rates[-2:] == [2, 3]
    cap = crncalc.simulate._STEP_CAP
    assert circuit_max_step(prog) == cap / 3
    rec = Recorder()
    traj = sampled(prog, {"a": 5, "b": 2}, SimConfig(t_end=20, sigma=2.0), wrap=rec.wrap)
    J = _jacobian(program_integrand(prog)[0], traj.states[-1])
    assert np.abs(np.linalg.eigvals(J)).max() == pytest.approx(3.0, abs=1e-2)
    # in t, sigma = 2 doubles the rate: the largest step is cap / 6
    assert np.diff(rec.bounds() / 2.0).max() == pytest.approx(cap / 6, rel=1e-12)


def test_network_cap_is_the_spectrum_of_the_jacobian_diagonal():
    # a loaded program text has no gates; its network is feed-forward in
    # species order, so the cap comes from the Jacobian's diagonal
    prog = compile_expression("sqrt(abs(a - b)) + root(3, a*b)")
    loaded = load_program(format_program(prog))
    assert loaded.gates is None
    rhs, cap_at = program_integrand(loaded)
    cap = crncalc.simulate._STEP_CAP
    for t_end in (0.5, 3.0, 20.0):
        y = simulate_program(prog, {"a": 5, "b": 2}, SimConfig(t_end=t_end)).states[-1]
        J = _jacobian(rhs, y)
        assert not np.triu(J, 1).any()
        rho = np.abs(np.linalg.eigvals(J)).max()
        assert cap / cap_at(0.0, y.tolist()) == pytest.approx(rho, rel=1e-6)
        # lanes share the cap of the fastest
        lanes = np.column_stack([y, 0.5 * y, y])
        assert cap_at(0.0, lanes) == pytest.approx(cap / rho, rel=1e-6)
    assert cap / cap_at(0.0, y.tolist()) == pytest.approx(3.0, abs=1e-2)


def test_cyclic_network_cap_is_exact():
    # A <-> B reads a later species, so its cap comes from the eigenvalues
    # of the full Jacobian, 0 and -4 at any state
    net = parse_network("species: A[input], B[output]\nA -> B ; k=3\nB -> A ; k=1\n")
    _, cap_at = network_integrand(net)
    y = np.random.default_rng(4).uniform(0.0, 5.0, (2, 6))
    for cap in [cap_at(0.0, y[:, 0].tolist()), cap_at(0.0, y), cap_at(0.0, [0.0, 0.0])]:
        assert cap == pytest.approx(5 / 4, rel=1e-12)
    rec = Recorder()
    traj = sampled(bare_program(net), {"A": 1.0}, SimConfig(t_end=40), wrap=rec.wrap)
    assert traj.termination.status == "completed"
    assert np.diff(rec.bounds()).max() <= 5 / 4 * (1 + 1e-12)
    assert traj.final("B") == pytest.approx(0.75, abs=1e-10)


def test_network_rhs_is_the_mass_action_field():
    nets = [compile_expression(src, mode).network
            for src, mode in (("sqrt(abs(a - b)) + a/b", "nonneg"), ("max(a, b) * c", "nonneg"),
                              ("a*b - c", "real"), ("1/(a - b)", "real"))]
    nets.append(parse_network("species: A, B\n2A -> B ; k=3\nB -> 2A ; k=1/3\n"))
    rng = np.random.default_rng(12)
    for net in nets:
        ids = net.species_ids
        rhs, _ = network_integrand(net)
        for _ in range(5):
            y = rng.uniform(0.0, 3.0, len(ids))
            want = evaluate_field(mass_action(net), ids, dict(zip(ids, y)))
            got = np.asarray(rhs(0.0, y.tolist()))
            assert np.allclose(got, [want[sid] for sid in ids], rtol=1e-12, atol=1e-12)


def test_rhs_sees_only_the_lane_shape(monkeypatch):
    # rhs is called with a list of n floats for one lane, else an
    # (n, lanes) array, and never with extra lanes
    real = crncalc.simulate.integrate
    seen = []

    def spy_integrate(rhs, y0, species, cfg, max_step, sample=None):
        n, lanes = y0.shape

        def spy(t, y):
            if lanes == 1:
                assert type(y) is list and len(y) == n
                assert all(type(v) is float for v in y)
            else:
                assert isinstance(y, np.ndarray) and y.shape == (n, lanes)
            seen.append(lanes)
            return rhs(t, y)

        return real(spy, y0, species, cfg, max_step, sample)

    monkeypatch.setattr(crncalc.simulate, "integrate", spy_integrate)
    net = parse_network("species: A, B\n2A -> B ; k=3\nB -> 2A ; k=1/3\n")
    traj = integrate_network(net, {"A": 1.0}, SimConfig(t_end=40))
    assert traj.termination.status == "completed"
    for form in ("linear", "power"):
        system = ForcedSystem(form, parse_forcing("1 + exp(-2*t)"), parse_forcing("2"), m=2)
        assert simulate_forced(system, SimConfig(t_end=40)).termination.status == "completed"
    y0 = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
    rhs, max_step = network_integrand(net)
    trajs = spy_integrate(rhs, y0, net.species_ids, SimConfig(t_end=40), max_step)
    assert [t.termination.status for t in trajs] == ["completed"] * 3
    assert set(seen) == {1, 3}


def test_lanes_that_left_are_masked_not_dropped():
    # x' = a x^2 - x: the lane from (a, x) = (1, 2) blows up at t = ln 2
    # and its column then overflows, while the other two decay.  rhs
    # always gets every lane; the step cap only the lanes still in the
    # batch, which at time t are those that end after t
    net = parse_network("species: A[input], X[output]\n"
                        "A + 2X -> A + 3X ; k=1\nX -> 0 ; k=1\n")
    rhs, cap_at = network_integrand(net)
    y0 = np.array([[1.0, 0.0, 0.5], [2.0, 1.0, 1.0]])
    calls = []

    def spy_rhs(t, y):
        calls.append(("rhs", t, np.array(y)))
        return rhs(t, y)

    def spy_cap(t, y):
        calls.append(("cap", t, np.array(y)))
        return cap_at(t, y)

    lanes = integrate(spy_rhs, y0, net.species_ids, SimConfig(t_end=10, **TIGHT), spy_cap)
    assert [lane.termination.status for lane in lanes] == ["blowup", "completed", "completed"]
    assert lanes[0].termination.time == pytest.approx(math.log(2.0), abs=1e-6)
    seen = [y for kind, _, y in calls if kind == "rhs"]
    assert all(y.shape == y0.shape for y in seen)
    assert not np.isfinite(seen[-1][:, 0]).all()  # the left lane is still computed
    left = 0
    for i, (kind, t, y) in enumerate(calls):
        if kind != "cap":
            continue
        live = [j for j, lane in enumerate(lanes) if lane.termination.time > t]
        left = max(left, len(lanes) - len(live))
        assert y.shape == (2, len(live)), t
        # the state the batch reached at t: the initial state, or that of
        # the accepted step's stage 12, called before its stages 13..15
        state = y0
        if t > 0:
            kind, t_new, state = calls[i - 4]
            assert kind == "rhs" and t_new == pytest.approx(t, rel=1e-15)
        assert np.array_equal(y, state[:, live]), t
    assert left == 1
    for lane in lanes:
        assert not np.isnan(lane.states).any() and not np.isnan(lane.times).any()


def test_lane_that_fails_at_the_start_keeps_its_initial_state():
    # the product overflows in the first evaluation of one lane; it leaves
    # with a one-row trajectory and the other lane carries on
    points = [{"a": 1e200, "b": 1e200}, {"a": 1.5, "b": 2.0}]
    prog, (bad, good) = batch("a*b", points, SimConfig(t_end=10, **TIGHT))
    assert bad.termination.status == "stiff_failure" and bad.termination.time == 0.0
    assert bad.times.tolist() == [0.0]
    assert bad.states.tolist() == [direct_state(prog, points[0]).tolist()]
    assert bad.final("X1") == 0.0
    assert good.termination.status == "completed"
    assert good.final("X1") == pytest.approx(3.0 * (1 - math.exp(-10)), abs=1e-8)
    # the good lane starts over from its own starting step, not from the
    # overflowing lane's, and takes about the steps of its solo run
    _, (solo,) = batch("a*b", points[1:], SimConfig(t_end=10, **TIGHT))
    assert abs(good.stats.steps - solo.stats.steps) <= 2, (good.stats, solo.stats)


def test_real_subtraction_ties_blow_up_alike():
    """Negation swaps rails, so both adders of real-mode a - b see the same
    transient: at every tie a = b of the criterion-3 grid the inner Y of
    one of the two normalising rsub gates crosses the blowup threshold at
    t = ln 1e12, after about the same number of steps."""
    circuit = lower_to_circuit("a - b", "real")
    prog = flatten(circuit)
    normalisers = {g.intermediates[0].id for g in circuit.gates
                   if g.kind.tag == "rectified_subtraction"}
    assert len(normalisers) == 2
    steps = []
    for a in np.geomspace(0.1, 50.0, 5):
        traj = simulate_program(prog, {"a": a, "b": a},
                                SimConfig(t_end=40, rel_tol=1e-10, abs_tol=1e-12))
        assert traj.termination.status == "blowup", a
        assert traj.termination.time == pytest.approx(math.log(1e12), abs=1e-4)
        assert traj.termination.species in normalisers, a
        steps.append(traj.stats.steps)
    assert max(steps) - min(steps) <= 5, steps


def test_real_subtraction_ties_name_one_owner():
    # both normalising rsub Ys cross together and differ there only by
    # roundoff, so the owner is the first of them in species order at
    # every magnitude, not whichever roundoff made larger
    circuit = lower_to_circuit("a - b", "real")
    prog = flatten(circuit)
    first = next(g.intermediates[0].id for g in circuit.gates
                 if g.kind.tag == "rectified_subtraction")
    for a in (0.1, 3.0, 50.0):
        traj = simulate_program(prog, {"a": a, "b": a},
                                SimConfig(t_end=40, rel_tol=1e-10, abs_tol=1e-12))
        assert traj.termination.status == "blowup", a
        assert traj.termination.species == first, a


def test_blowup_owner_ignores_roundoff_but_not_a_real_lead():
    owner = crncalc.simulate._blowup_owner
    y = np.array([1.0, 1e12, 1e12 * (1 + 1e-15), 5.0])
    assert owner(y, 1e-10) == 1
    y[2] = 1e12 * (1 + 1e-6)
    assert owner(y, 1e-10) == 2


def _record_steps(monkeypatch):
    """Record the steps of every _sample_steps call, (t_old, h, y_old, q,
    count) each, in order, and the grid times the call sampled."""
    real = crncalc.simulate._sample_steps
    steps, times = [], []

    def spy(out, grid, start, pending, sigma):
        stop = real(out, grid, start, pending, sigma)
        steps.extend(pending)
        times.append(grid[start:stop])
        return stop

    monkeypatch.setattr(crncalc.simulate, "_sample_steps", spy)
    return real, steps, times


def _lane_reference(steps, j, t, sigma=1.0):
    """_power_form_samples of lane j's columns of the recorded steps at the
    times t, as (times, species)."""
    t_old, h, y_old, q, _ = zip(*steps)
    y_old, q = np.array(y_old)[..., [j]], np.array(q)[:, :, [j]]
    return _power_form_samples(np.array(t_old), np.array(h), y_old, q, t, sigma)[:, 0].T


def test_resample_shares_grids_but_not_values(monkeypatch):
    # a zero-step lane, a blowup lane and two completed lanes: each lane
    # keeps the times of the shared grid before its end, then its end;
    # every step samples all lanes in one pass, and each lane's samples
    # equal, bit for bit, those computed from its own columns alone
    points = [{"a": 1e200, "b": 2.0}, {"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 3.0},
              {"a": 3.0, "b": 1.0}]
    rails = ["X2", "Y1"]
    cfg = SimConfig(t_end=40, **TIGHT)
    real, steps, times = _record_steps(monkeypatch)
    prog, lanes = batch("max(a, b)", points, cfg, rails)
    assert [lane.termination.status for lane in lanes] == [
        "stiff_failure", "blowup", "completed", "completed"]
    grid = np.linspace(0.0, 40.0, crncalc.simulate._SAMPLES)
    # each grid time is sampled once, by the step it lies in
    assert np.array_equal(np.concatenate(times), grid)
    assert sum(count for *_, count in steps) == grid.size
    zero, tie, low, high = lanes
    assert zero.times.tolist() == [0.0]
    init = direct_state(prog, points[0])
    assert zero.states.tolist() == [[init[prog.species_ids.index(sid)] for sid in rails]]
    assert low.times.base is high.times.base is zero.times.base  # views of one buffer
    assert tie.times.size - 1 == np.count_nonzero(grid < tie.termination.time)
    for j, lane in enumerate(lanes):
        k = lane.times.size - 1
        assert lane.species == tuple(rails)
        assert np.array_equal(lane.times[:k], grid[:k])
        assert lane.times[-1] == lane.termination.time
        assert np.all(grid[:k] < lane.times[-1]) and (k == grid.size or grid[k] >= lane.times[-1])
        assert np.array_equal(lane.states[-1], [lane.final(sid) for sid in rails])
        if not k:
            continue
        alone = np.empty((1, grid.size, len(rails)))
        real(alone, grid, 0, [(t_old, h, y_old[:, [j]], q[:, [j]], count)
                              for t_old, h, y_old, q, count in steps], cfg.sigma)
        assert np.array_equal(lane.states[:k], alone[0, :k])
        # Horner's order of the power sum differs from the sum's in the last bits
        want = _lane_reference(steps, j, grid[:k])
        np.testing.assert_allclose(lane.states[:k], want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())
    assert not np.array_equal(low.states, high.states)


def test_lanes_are_read_only_views_of_one_sample_buffer():
    # the lanes leave after three different steps: the zero-step lane at
    # the start, the blowup at its crossing and the completed two at t_end;
    # what the buffer holds for a lane after it has left reaches no lane
    points = [{"a": 1e200, "b": 2.0}, {"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 3.0},
              {"a": 3.0, "b": 1.0}]
    cfg = SimConfig(t_end=40, **TIGHT)
    prog, lanes = batch("max(a, b)", points, cfg)
    zero, tie, low, high = lanes
    assert [lane.termination.status for lane in lanes] == [
        "stiff_failure", "blowup", "completed", "completed"]
    assert 0 == zero.stats.steps < tie.stats.steps < low.stats.steps == high.stats.steps
    for lane in lanes:
        assert lane.species == prog.species_ids
        assert not np.isnan(lane.states).any()
        assert lane.states.base is low.states.base
    assert low.times.base is high.times.base is zero.times.base  # views of one buffer
    # the blowup lane ends at its crossing, after the grid times before it
    shared = tie.times.size - 1
    assert np.array_equal(tie.times[:shared], low.times[:shared])
    assert tie.times[-1] == tie.termination.time < low.times[shared]
    for values in (zero.times, tie.times, low.times, tie.states, low.states):
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_resample_keeps_lanes_that_end_in_one_step_apart(monkeypatch):
    # both lanes blow up in the same step, at different times: same steps,
    # one grid, each lane's samples on it up to its own crossing, then the
    # crossing, all on x0 e^t
    net = parse_network("X -> 2X ; k=1\n")
    rhs, cap = network_integrand(net)
    x0 = np.array([1.0, 1.0 + 1e-6])
    cfg = SimConfig(t_end=40, **TIGHT)
    _, steps, _ = _record_steps(monkeypatch)
    lanes = integrate(rhs, x0[None], net.species_ids, cfg, cap, sample=["X"])
    assert lanes[0].stats == lanes[1].stats
    assert lanes[0].times[-1] != lanes[1].times[-1]
    grid = np.linspace(0.0, 40.0, crncalc.simulate._SAMPLES)
    for j, (lane, a) in enumerate(zip(lanes, x0)):
        k = lane.times.size - 1
        assert lane.termination.status == "blowup"
        assert np.array_equal(lane.times[:k], grid[:k])
        assert grid[k - 1] < lane.times[-1] == lane.termination.time <= grid[k]
        exact = a * np.exp(lane.times)
        assert np.all(np.abs(lane.series("X") - exact) <= 10 * cfg.rel_tol * (1 + exact))
        want = _lane_reference(steps, j, grid[:k])
        np.testing.assert_allclose(lane.states[:k], want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


def _power_form_samples(t_old, h, y_old, q, t, sigma):
    """The interpolants of a step record one sample at a time, as (species,
    lanes, times): y_old + h sum_j q_j x^(j+1) with the powers of the step
    fraction x, from the steps' start times t_old (in t), sizes h (in tau
    = sigma t), start states y_old (steps, species, lanes) and
    coefficients q (steps, species, lanes, 7).  A time on a step boundary
    takes the step ending there."""
    out = []
    for ti in t:
        k = min(max(int(np.searchsorted(t_old, ti, side="left")) - 1, 0), h.size - 1)
        x = (ti - t_old[k]) * sigma / h[k]
        out.append(y_old[k] + h[k] * np.einsum("...j,j->...", q[k], np.cumprod(np.full(7, x))))
    return np.clip(np.moveaxis(np.array(out), 0, -1), 0.0, None)


def _step_polynomial(t_old, t_new, y_old, q, t):
    """The step's interpolant y_old + h sum_j q_j x^(j+1) at time t."""
    h = t_new - t_old
    return y_old + h * np.einsum("...ij,...j->...i", q, np.cumprod(np.full(7, (t - t_old) / h)))


@pytest.mark.parametrize("src,mode,point", [("rsub(a, b)", "nonneg", {"a": 1.0, "b": 1.0}),
                                            ("a - b", "real", {"a": 50.0, "b": 50.0})])
def test_blowup_crossing_matches_a_reference_bisection(src, mode, point, monkeypatch):
    # bisect the crossing step's polynomial for the first time max(y)
    # reaches the threshold: the run ends there, in the state there
    steps = []
    real = crncalc.simulate._crossing
    monkeypatch.setattr(crncalc.simulate, "_crossing",
                        lambda *args: steps.append(args) or real(*args))
    cfg = SimConfig(t_end=40, **TIGHT)
    prog = flatten(lower_to_circuit(src, mode))
    rec = Recorder()
    traj = sampled(prog, point, cfg, wrap=rec.wrap)
    assert traj.termination.status == "blowup"
    (step,) = steps
    t_old, t_new, y_old = step[:3]
    # the crossing step is the run's last, and starts where the one before ended
    ends = rec.step_ends()
    assert len(ends) == traj.stats.steps
    assert t_old == pytest.approx(ends[-2][0], rel=1e-15) and np.array_equal(y_old, ends[-2][1])
    assert t_new == pytest.approx(ends[-1][0], rel=1e-15)
    threshold = crncalc.simulate.BLOWUP_THRESHOLD
    assert _step_polynomial(*step, t_old).max() < threshold <= _step_polynomial(*step, t_new).max()
    lo, hi = t_old, t_new
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if threshold - _step_polynomial(*step, mid).max() > 0:
            lo = mid
        else:
            hi = mid
    y_hit = _step_polynomial(*step, hi)
    assert traj.termination.time == hi
    assert traj.termination.species == traj.species[
        crncalc.simulate._blowup_owner(y_hit, cfg.rel_tol)]
    assert np.array_equal(traj.states[-1], np.clip(y_hit, 0.0, None))
