"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion; the terminal summary
(see conftest.py) prints one pass/fail line per criterion.  Tolerances are
pinned in the assertions and are not configurable.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from crncalc import (
    ForcedSystem,
    Pipeline,
    SimConfig,
    check_lemma,
    compile_expression,
    digits_time,
    parse_forcing,
    predict_speed,
    simulate_program,
)
from crncalc.circuit import format_program, load_program
from crncalc.crn import Species, collect_network, mass_action
from crncalc.gates import GateKind, gate_fragment_network, make_gate
from crncalc.rates import check_speed
from crncalc.simulate import integrate, program_integrand, program_state

from closed_forms import (closed_form_reference, designed_inversion_network,
                          double_identification_network, integrate_network,
                          naive_inversion_network)
from field_helpers import check_admissible, count, densify, reserved_namer

F = Fraction
TIGHT = dict(rel_tol=1e-10, abs_tol=1e-12)


def test_criterion_1_closed_form_oracles():
    """Trajectories match the exact solutions of the three reference
    systems to 1e-8 in sup norm on [0, 20], each in under a second."""
    cases = [
        (naive_inversion_network(), {"A": 2.0, "X": 1.0}, "X",
         lambda t: closed_form_reference("naive_inversion", {"a": 2.0, "x0": 1.0}, t)),
        (designed_inversion_network(), {"A": 2.0, "X": 1.0}, "X",
         lambda t: closed_form_reference("designed_inversion", {"a": 2.0, "x0": 1.0}, t)),
        (double_identification_network(), {"A": 3.0}, "X",
         lambda t: closed_form_reference("double_identification", {"a": 3.0}, t)),
    ]
    for net, init, sid, exact in cases:
        t0 = time.perf_counter()
        traj = integrate_network(net, init, SimConfig(t_end=20, **TIGHT))
        elapsed = time.perf_counter() - t0
        sup = float(np.max(np.abs(traj.series(sid) - exact(traj.times))))
        print(f"criterion 1: {sid} sup error {sup:.3g} in {elapsed:.3f}s")
        assert sup <= 1e-8
        assert elapsed < 1.0


def test_criterion_2_speed_contrast():
    """Digit times: the naive inversion needs time proportional to 1/a per
    digit while the designed one is input-independent.  n*ln10/T_n falls
    within 10% of a (naive) and of 1 (designed) for n = 6.  Initial values
    put the error prefactor at 1 so the digit time isolates the rate."""
    n = 6
    score = n * math.log(10.0)
    for a in (0.5, 1.0, 4.0):
        t_end = max(1.4 * score / a, 6.0)
        traj = integrate_network(naive_inversion_network(),
                                 {"A": a, "X": 1.0 / a + 1.0},
                                 SimConfig(t_end=t_end, rel_tol=1e-10, abs_tol=1e-13))
        ratio = score / digits_time(traj, "X", 1.0 / a, n).time / a
        print(f"criterion 2: naive a={a:g} ratio {ratio:.4f}")
        assert abs(ratio - 1.0) <= 0.10
    for a in (0.5, 1.0, 4.0):
        traj = integrate_network(designed_inversion_network(),
                                 {"A": a, "X": 1.0 / (a * (1.0 + a))},
                                 SimConfig(t_end=25, rel_tol=1e-10, abs_tol=1e-13))
        rate = score / digits_time(traj, "X", 1.0 / a, n).time
        print(f"criterion 2: designed a={a:g} rate {rate:.4f}")
        assert abs(rate - 1.0) <= 0.10
    # the contrast itself: naive digit time moves with a, designed does not
    # (x0 = 0 variants stay within 10% wherever the prefactor allows it)
    for a in (0.5, 1.0):
        traj = integrate_network(naive_inversion_network(), {"A": a, "X": 0.0},
                                 SimConfig(t_end=1.4 * score / a + 8,
                                           rel_tol=1e-10, abs_tol=1e-13))
        ratio = score / digits_time(traj, "X", 1.0 / a, n).time / a
        assert abs(ratio - 1.0) <= 0.10


def test_criterion_3_composite_unit_bound():
    """Six two-input expressions over a 5x5 geometric grid in [0.1, 50]:
    the predicted bound is 1 on every point, every measured rail passes
    check_speed at 15% slack, and final errors reach 1e-6 by t = 40.  A
    run may end in blowup only at a tie a = b, and only through the inner
    Y of a subtraction gate, whose limit 1/|a - b| is infinite there.
    Each expression's 25 points run as one batch through `Pipeline`, the
    path that `verify` and `sweep` take."""
    t0 = time.perf_counter()
    grid = np.geomspace(0.1, 50.0, 5)
    exprs = [("a + b", "nonneg"), ("a * b", "nonneg"), ("a / b", "nonneg"),
             ("sqrt(1/(a + b))", "nonneg"), ("max(a, b)", "nonneg"),
             ("a - b", "real")]
    cfg = SimConfig(t_end=40, **TIGHT)
    points = [{"a": a, "b": b} for a, b in itertools.product(grid, grid)]
    n_rails, worst_rho, worst_err = 0, math.inf, 0.0
    for src, mode in exprs:
        pipeline = Pipeline.expression(src, mode, cfg)
        diff_ys = {g.intermediates[0].id for g in pipeline.prog.gates
                   if g.kind.tag in ("absolute_difference", "rectified_subtraction")}
        for point, run in zip(points, pipeline.run_points(points)):
            a, b = point["a"], point["b"]
            assert not isinstance(run, ValueError), (src, a, b, run)
            analysis, traj = run.analysis, run.traj
            assert analysis.bound.value == 1.0, (src, a, b)
            if traj.termination.status == "blowup":
                assert a == b, (src, a, b, traj.termination)
                assert traj.termination.species in diff_ys, (src, a, b, traj.termination)
            for sid, tgt, est in zip(run.rails, run.targets, run.rates):
                err = abs(traj.final(sid) - tgt)
                worst_err = max(worst_err, err)
                assert err <= 1e-6, (src, a, b, sid)
                assert not isinstance(est, ValueError), (src, a, b, sid, est)
                verdict = check_speed(est, analysis.bound, slack=0.15)
                assert verdict.passed, (src, a, b, sid, verdict)
                if math.isfinite(est.rho_hat):
                    worst_rho = min(worst_rho, est.rho_hat)
                n_rails += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: {n_rails} rails, slowest rho_hat {worst_rho:.4f}, "
          f"worst final error {worst_err:.3g}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_4_root_of_zero_degradation():
    """A root gate fed a zero limit is the one construct that slows a
    circuit down: sqrt|a-b| at a tie measures near 1/2, the nested double
    square root near 1/4."""
    cfg = SimConfig(t_end=60, **TIGHT)

    def tie_run(src, point):
        (run,) = Pipeline.expression(src, "nonneg", cfg).run_points([point])
        assert not isinstance(run, ValueError), (src, run)
        (est,) = run.rates
        assert not isinstance(est, ValueError), (src, est)
        return run.analysis, est

    analysis, est = tie_run("sqrt(abs(a - b))", {"a": 4.0, "b": 4.0})
    assert analysis.bound.value == 0.5
    assert analysis.output_value == 0.0
    print(f"criterion 4: sqrt tie rho_hat {est.rho_hat:.4f} (bound 0.5)")
    assert 0.42 <= est.rho_hat <= 0.60

    analysis, est = tie_run("sqrt(sqrt(abs(a - b)))", {"a": 2.0, "b": 2.0})
    assert analysis.bound.value == 0.25
    print(f"criterion 4: double sqrt rho_hat {est.rho_hat:.4f} (bound 0.25)")
    assert est.rho_hat >= 0.2


def test_criterion_5_sigma_time_change():
    """Running at sigma is scaling every rate constant by sigma: a run at
    sigma = 2 and at sigma = 3 to t = 20 agrees with the program text
    whose every k=1 reads k=sigma, loaded and run at sigma = 1 on its
    expanded mass-action field, to within 10x the integrator tolerance at
    each of the 1,600 samples of every species; both end at t = 20 and
    sample at the same times."""
    programs = [("a + b", {"a": 1, "b": 2}), ("1/a", {"a": 3}),
                ("sqrt(abs(a - b))", {"a": 5, "b": 2})]

    def run(prog, inputs, cfg):
        rhs, cap = program_integrand(prog)
        (traj,) = integrate(rhs, program_state(prog, inputs)[:, None], prog.species_ids,
                            cfg, cap, sample=prog.species_ids)
        return traj

    for src, inputs in programs:
        prog = compile_expression(src)
        text = format_program(prog)
        for sigma in (2.0, 3.0):
            scaled = load_program(text.replace("; k=1\n", f"; k={sigma:g}\n"))
            assert {r.rate for r in scaled.network.reactions} == {sigma}
            fast = run(prog, inputs, SimConfig(t_end=20, sigma=sigma, **TIGHT))
            ref = run(scaled, inputs, SimConfig(t_end=20, **TIGHT))
            assert fast.termination.time == ref.termination.time == 20
            assert np.array_equal(fast.times, ref.times)
            assert ref.times.size == 1600
            delta = np.abs(fast.states - ref.states)
            worst = float((delta / (1.0 + np.abs(ref.states))).max())
            print(f"criterion 5: {src} at sigma {sigma:g} worst relative gap {worst:.3g}")
            assert worst <= 10.0 * 1e-10, (src, sigma)


RATES = [0.5, 1.0, 2.0, 4.0]
LIMITS = [0.5, 1.0, 2.0]


def _rate_pairs():
    pairs = [(r, r) for r in RATES]
    pairs += [(r1, r2) for r1 in RATES for r2 in RATES if r1 < r2]
    pairs += [(4.0, 0.5), (2.0, 1.0)]
    return pairs


def _scenarios():
    return [(r1, r2, l) for (r1, r2) in _rate_pairs()[:8] for l in LIMITS][:20]


def _forcing(limit, rho, coeff=1.0):
    return parse_forcing(f"{limit} + {coeff}*exp(-{rho}*t)")


def test_criterion_6_forced_system_grid():
    """20 scenarios per forced-system family, each held to its lemma by
    check_lemma: the measured rate clears 85% of the predicted bound.  For
    the growth family that rate is the decay rate of 1/x toward 0.  Every
    family runs to t = 80."""
    cfg = SimConfig(t_end=80, **TIGHT)
    linear = [("driven_linear", ForcedSystem("linear", _forcing(1.0, r1), _forcing(lim, r2)))
              for r1, r2, lim in _scenarios()]
    power = [("driven_power", ForcedSystem("power", _forcing(lim, r1), _forcing(1.0, r2),
                                           m=[1, 2, 3][i % 3], x0=0.3))
             for i, (r1, r2, lim) in enumerate(_scenarios())]
    decay = [("decay_to_zero", ForcedSystem("power", _forcing(-lim, r1), _forcing(1.0, r2)))
             for r1, r2, lim in _scenarios()]
    grow = [(r, m, 1.0) for r in RATES for m in (1, 2, 3)]
    grow += [(r, 2, c) for r in RATES for c in (0.5, 2.0)]
    growth = [("unbounded_growth", ForcedSystem("power", parse_forcing("1"),
                                                parse_forcing(f"{c}*exp(-{r}*t)"), m=m))
              for r, m, c in grow[:20]]
    scenarios = linear + power + decay + growth
    for family, system in scenarios:
        check = check_lemma(system, cfg, 0.15)
        assert check.prediction.family == family, (family, system)
        assert check.passed, (family, system, check.verdict, check.error)
    print(f"criterion 6: {len(scenarios)} scenarios across 4 families")
    assert len(scenarios) == 80


def test_criterion_7_dual_rail_properties():
    """Dual-rail arithmetic: products of canonical pairs stay canonical
    (one target rail exactly zero), subtraction lands on (0, b-a) for
    a < b, and the normalizer collapses (5,3) to (2,0)."""
    product = compile_expression("a * b", mode="real")
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = float(rng.uniform(-9, 9))
        b = float(rng.uniform(-9, 9))
        sa = predict_speed(product, {"a": a, "b": b})
        p, n_ = sa.output_values
        assert p * n_ == 0.0, (a, b, sa.output_values)
        assert sa.output_value == pytest.approx(a * b, rel=1e-12, abs=1e-12)

    prog = compile_expression("a - b", mode="real")
    traj = simulate_program(prog, {"a": 1, "b": 3}, SimConfig(t_end=40, **TIGHT))
    pos, neg = prog.bindings.output
    assert abs(traj.final(pos) - 0.0) <= 1e-6
    assert abs(traj.final(neg) - 2.0) <= 1e-6

    namer = reserved_namer("P", "N")
    p_sp, n_sp = Species("P", "input"), Species("N", "input")
    g1 = make_gate(GateKind("rectified_subtraction"), [p_sp, n_sp], namer)
    g2 = make_gate(GateKind("rectified_subtraction"), [n_sp, p_sp], namer)
    net = collect_network(g1.reactions + g2.reactions,
                          {"P": "input", "N": "input"})
    init = {"P": 5.0, "N": 3.0}
    init.update({sid: 1.0 for sid in g1.positive_init + g2.positive_init})
    traj = integrate_network(net, init, SimConfig(t_end=40, **TIGHT))
    print(f"criterion 7: normalized (5,3) -> ({traj.final(g1.output.id):.8f}, "
          f"{traj.final(g2.output.id):.8f})")
    assert abs(traj.final(g1.output.id) - 2.0) <= 1e-6
    assert abs(traj.final(g2.output.id) - 0.0) <= 1e-6


GATE_SPECS = [("identification", 1, None), ("inversion", 1, None),
              ("mth_root", 1, 2), ("addition", 2, None),
              ("multiplication", 2, None), ("absolute_difference", 2, None),
              ("rectified_subtraction", 2, None),
              ("partial_real_inversion", 2, None)]

# output/intermediate derivatives of each gate over the fragment's species
# order (inputs, output, intermediate), written down independently of the
# constructors
GATE_FIELDS = {
    "identification": {"X1": {(1, 0): 1, (0, 1): -1}},
    "inversion": {"X1": {(0, 1): 1, (1, 2): -1}},
    "mth_root": {"X1": {(0, 1, 0): 1, (0, 2, 1): -1},
                 "Y1": {(0, 0, 1): 1, (1, 0, 3): -1}},
    "addition": {"X1": {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}},
    "multiplication": {"X1": {(1, 1, 0): 1, (0, 0, 1): -1}},
    "absolute_difference": {
        "X1": {(0, 0, 1, 0): 1, (0, 0, 2, 1): -1},
        "Y1": {(0, 0, 0, 1): 1, (2, 0, 0, 3): -1, (0, 2, 0, 3): -1,
               (1, 1, 0, 3): 2}},
    "rectified_subtraction": {
        "X1": {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1, (0, 0, 2, 1): -1},
        "Y1": {(0, 0, 0, 1): 1, (2, 0, 0, 3): -1, (0, 2, 0, 3): -1,
               (1, 1, 0, 3): 2}},
    "partial_real_inversion": {
        "X1": {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1, (2, 0, 2, 1): -1},
        "Y1": {(0, 0, 0, 1): 1, (1, 0, 0, 2): -1, (0, 1, 0, 2): -1}},
}


def _random_expr(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice(["a", "b", "c", "2", "0.5"])
    op = rng.choice(["add", "mul", "div", "sqrt", "root", "abs", "max", "rsub"])
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    if op == "add":
        return f"({left} + {right})"
    if op == "mul":
        return f"({left} * {right})"
    if op == "div":
        return f"({left} / {right})"
    if op == "sqrt":
        return f"sqrt({left})"
    if op == "root":
        return f"root({rng.choice([2, 3, 5])}, {left})"
    if op == "abs":
        return f"abs({left} - {right})"
    if op == "max":
        return f"max({left}, {right})"
    return f"rsub({left}, {right})"


def test_criterion_8_structural_properties():
    """Inputs are catalytic in every gate and in 50 random circuits, whose
    fields are admissible (every negative monomial of f_i contains x_i),
    the eight gate fragments reproduce their defining derivatives exactly,
    and accepted trajectories never leave the non-negative orthant."""
    for tag, n_in, m in GATE_SPECS:
        inputs = [Species(s, "input") for s in ("A", "B")[:n_in]]
        gate = make_gate(GateKind(tag, m), inputs, reserved_namer("A", "B"))
        net = gate_fragment_network(gate)
        for r in net.reactions:
            for sp in inputs:
                assert count(r.reactant, sp.id) == count(r.product, sp.id), tag
        field = densify(mass_action(net), net.species_ids)
        for sp in inputs:
            assert field[sp.id] == {}, tag
        derived = {sid: poly for sid, poly in field.items() if poly}
        expected = {sid: {e: F(c) for e, c in polys.items()}
                    for sid, polys in GATE_FIELDS[tag].items()}
        assert derived == expected, tag

    rng = random.Random(8)
    for i in range(50):
        src = _random_expr(rng, rng.choice([1, 2, 2, 3]))
        prog = compile_expression(src)
        field = mass_action(prog.network)
        assert check_admissible(field) == [], src
        held = [sid for _, rails in prog.bindings.inputs for sid in rails]
        held += [sid for sid, _ in prog.bindings.consts]
        for sid in held:
            assert field[prog.network.species_ids.index(sid)] == {}, (src, sid)
        for r in prog.network.reactions:
            for sid in held:
                assert count(r.reactant, sid) == count(r.product, sid), (src, sid)

    sims = [("a + b", {"a": 0.1, "b": 50.0}), ("a / b", {"a": 50.0, "b": 0.1}),
            ("sqrt(abs(a - b))", {"a": 2.0, "b": 2.0}),
            ("max(a, b)", {"a": 0.1, "b": 0.1}), ("a - b", {"a": 1.0, "b": 3.0})]
    for src, inputs in sims:
        mode = "real" if "-" in src and "abs" not in src else "nonneg"
        traj = simulate_program(compile_expression(src, mode), inputs,
                                SimConfig(t_end=40, **TIGHT))
        assert traj.negatives == (), src
        assert float(traj.states.min()) >= 0.0, src
    print("criterion 8: 8 gate fields, 50 random circuits, "
          f"{len(sims)} trajectories clean")
