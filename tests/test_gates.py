"""Elementary gates: fragments, targets, speed-bound rules, conservation.

The expected ODEs below were transcribed by hand from the defining
reaction lists before the gate constructors were written; the tests
assert the derived fields reproduce them symbolically (exact rational
coefficients, canonical monomial order).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from crncalc.crn import Complex, Reaction, mass_action, parse_network
from crncalc.gates import (
    DomainError,
    GATES,
    GateKind,
    SpeciesNamer,
    catalogue,
    gate_fragment_network,
    gate_limit_rate,
    gate_speed_bound,
    gate_target,
    make_gate,
)
from crncalc.simulate import SimConfig, _derivative

from closed_forms import integrate_network
from field_helpers import count, densify, evaluate_field, reserved_namer

F = Fraction


def build(tag, n_inputs, m=None, ids=("A", "B")):
    kind = GateKind(tag, m)
    inputs = ids[:n_inputs]
    gate = make_gate(kind, inputs, reserved_namer("A", "B"))
    return gate, gate_fragment_network(gate)


def field_of(tag, n_inputs, m=None):
    gate, net = build(tag, n_inputs, m)
    return gate, net, densify(mass_action(net), net.species_ids)


# --- the eight lemma ODEs, frozen -------------------------------------------

def test_identification_ode():
    # species order (A, X1): x' = a - x
    _, net, f = field_of("identification", 1)
    assert net.species_ids == ("A", "X1")
    assert f["X1"] == {(1, 0): F(1), (0, 1): F(-1)}
    assert f["A"] == {}


def test_inversion_ode():
    _, net, f = field_of("inversion", 1)
    assert f["X1"] == {(0, 1): F(1), (1, 2): F(-1)}  # x - a x^2


def test_mth_root_ode():
    # order (A, X1, Y1): y' = y - a y^(m+1), x' = x - y x^2
    _, net, f = field_of("mth_root", 1, m=2)
    assert net.species_ids == ("A", "X1", "Y1")
    assert f["Y1"] == {(0, 0, 1): F(1), (1, 0, 3): F(-1)}
    assert f["X1"] == {(0, 1, 0): F(1), (0, 2, 1): F(-1)}
    _, _, f5 = field_of("mth_root", 1, m=5)
    assert f5["Y1"] == {(0, 0, 1): F(1), (1, 0, 6): F(-1)}


def test_addition_ode():
    _, net, f = field_of("addition", 2)
    assert f["X1"] == {(1, 0, 0): F(1), (0, 1, 0): F(1), (0, 0, 1): F(-1)}


def test_multiplication_ode():
    _, net, f = field_of("multiplication", 2)
    assert f["X1"] == {(1, 1, 0): F(1), (0, 0, 1): F(-1)}  # a b - x


def test_absolute_difference_ode():
    # order (A, B, X1, Y1): y' = y - (a-b)^2 y^3 expanded, x' = x - y x^2
    _, net, f = field_of("absolute_difference", 2)
    assert net.species_ids == ("A", "B", "X1", "Y1")
    assert f["Y1"] == {(0, 0, 0, 1): F(1), (2, 0, 0, 3): F(-1),
                       (0, 2, 0, 3): F(-1), (1, 1, 0, 3): F(2)}
    assert f["X1"] == {(0, 0, 1, 0): F(1), (0, 0, 2, 1): F(-1)}


def test_rectified_subtraction_ode():
    # same y as absolute difference; x' = y x (a - b - x)
    _, net, f = field_of("rectified_subtraction", 2)
    assert f["Y1"] == {(0, 0, 0, 1): F(1), (2, 0, 0, 3): F(-1),
                       (0, 2, 0, 3): F(-1), (1, 1, 0, 3): F(2)}
    assert f["X1"] == {(1, 0, 1, 1): F(1), (0, 1, 1, 1): F(-1),
                       (0, 0, 2, 1): F(-1)}


def test_partial_real_inversion_ode():
    # inputs are the two rails; order (A, B, X1, Y1)
    # y' = y - (a_p + a_n) y^2, x' = (a_p - a_n) y x - a_p^2 y x^2
    _, net, f = field_of("partial_real_inversion", 2)
    assert f["Y1"] == {(0, 0, 0, 1): F(1), (1, 0, 0, 2): F(-1),
                       (0, 1, 0, 2): F(-1)}
    assert f["X1"] == {(1, 0, 1, 1): F(1), (0, 1, 1, 1): F(-1),
                       (2, 0, 2, 1): F(-1)}


def test_fragment_reaction_counts():
    expected = {("identification", 1, None): 2, ("inversion", 1, None): 2,
                ("mth_root", 1, 2): 4, ("addition", 2, None): 3,
                ("multiplication", 2, None): 2,
                ("absolute_difference", 2, None): 6,
                ("rectified_subtraction", 2, None): 7,
                ("partial_real_inversion", 2, None): 6}
    for (tag, n, m), count in expected.items():
        _, net = build(tag, n, m)
        assert len(net.reactions) == count, tag


# --- targets ----------------------------------------------------------------

def test_gate_targets():
    assert gate_target(GateKind("inversion"), [2]) == 0.5
    assert gate_target(GateKind("rectified_subtraction"), [3, 5]) == 0.0
    assert gate_target(GateKind("rectified_subtraction"), [5, 3]) == 2.0
    assert gate_target(GateKind("partial_real_inversion"), [0, 3]) == 0.0
    assert gate_target(GateKind("partial_real_inversion"), [4, 0]) == 0.25
    assert gate_target(GateKind("identification"), [7.5]) == 7.5
    assert gate_target(GateKind("mth_root", 2), [9]) == 3.0
    assert gate_target(GateKind("mth_root", 3), [0]) == 0.0  # lemma covers 0
    assert gate_target(GateKind("addition"), [1, 2]) == 3.0
    assert gate_target(GateKind("multiplication"), [2, 3]) == 6.0
    assert gate_target(GateKind("absolute_difference"), [2, 5]) == 3.0


def test_gate_target_domain_errors():
    with pytest.raises(DomainError):
        gate_target(GateKind("inversion"), [0])
    with pytest.raises(DomainError):
        gate_target(GateKind("partial_real_inversion"), [0, 0])
    with pytest.raises(DomainError):
        gate_target(GateKind("partial_real_inversion"), [2, 3])
    with pytest.raises(DomainError):
        gate_target(GateKind("addition"), [-1, 2])
    with pytest.raises(ValueError):
        gate_target(GateKind("addition"), [1])  # arity


# --- speed bounds -----------------------------------------------------------

def test_speed_bound_examples():
    b = gate_speed_bound(GateKind("multiplication"), [2, 0.5], [1, 1])
    assert b.value == 0.5
    b = gate_speed_bound(GateKind("mth_root", 3), [1.2], [0])
    assert b.value == pytest.approx(0.4)
    assert "zero" in b.case
    b = gate_speed_bound(GateKind("addition"), [math.inf, math.inf], [1, 2])
    assert b.value == 1.0


def test_unit_bound_for_instant_inputs():
    cases = [("identification", [math.inf], [2]),
             ("inversion", [math.inf], [2]),
             ("mth_root", [math.inf], [2]),
             ("addition", [math.inf] * 2, [1, 2]),
             ("multiplication", [math.inf] * 2, [1, 2]),
             ("absolute_difference", [math.inf] * 2, [1, 2]),
             ("rectified_subtraction", [math.inf] * 2, [1, 2]),
             ("partial_real_inversion", [math.inf] * 2, [3, 0])]
    for tag, bounds, limits in cases:
        kind = GateKind(tag, 2 if tag == "mth_root" else None)
        assert gate_speed_bound(kind, bounds, limits).value == 1.0, tag


def test_root_of_zero_degrades_bound():
    b = gate_speed_bound(GateKind("mth_root", 2), [1.0], [0])
    assert b.value == 0.5  # min{1/2, 1}
    b = gate_speed_bound(GateKind("mth_root", 4), [2.0], [0])
    assert b.value == 0.5  # min{2/4, 1}
    # the division only bites when the limit really is zero
    b = gate_speed_bound(GateKind("mth_root", 4), [2.0], [3.0])
    assert b.value == 1.0


def test_multiplication_zero_limit_cases():
    k = GateKind("multiplication")
    assert gate_speed_bound(k, [2, 3], [0, 0]).value == 1.0     # rho_a+rho_b capped
    assert gate_speed_bound(k, [0.3, 0.4], [0, 0]).value == 0.7
    assert gate_speed_bound(k, [0.3, 5], [0, 2]).value == 0.3   # first limit zero
    assert gate_speed_bound(k, [5, 0.3], [2, 0]).value == 0.3


@given(st.floats(min_value=0.05, max_value=5),
       st.floats(min_value=0.05, max_value=5),
       st.floats(min_value=0.05, max_value=5))
def test_bound_monotone_in_input_rates(r1, r2, bump):
    for tag in ["addition", "multiplication", "absolute_difference",
                "rectified_subtraction"]:
        kind = GateKind(tag)
        lo = gate_speed_bound(kind, [r1, r2], [1.0, 2.0]).value
        hi = gate_speed_bound(kind, [r1 + bump, r2 + bump], [1.0, 2.0]).value
        assert hi >= lo, tag


# --- structural invariants --------------------------------------------------

ALL_KINDS = [("identification", 1, None), ("inversion", 1, None),
             ("mth_root", 1, 3), ("addition", 2, None),
             ("multiplication", 2, None), ("absolute_difference", 2, None),
             ("rectified_subtraction", 2, None),
             ("partial_real_inversion", 2, None)]


@pytest.mark.parametrize("tag,n,m", ALL_KINDS)
def test_inputs_are_catalytic(tag, n, m):
    gate, net = build(tag, n, m)
    input_ids = set(gate.inputs)
    for r in net.reactions:
        for sid in input_ids:
            assert count(r.reactant, sid) == count(r.product, sid)
    f = mass_action(net)
    for sid in input_ids:
        assert f[net.species_ids.index(sid)] == {}


@pytest.mark.parametrize("tag,n,m", ALL_KINDS)
def test_output_and_intermediates_fresh(tag, n, m):
    namer = reserved_namer("A", "B")
    kind = GateKind(tag, m)
    inputs = ("A", "B")[:n]
    g1 = make_gate(kind, inputs, namer)
    g2 = make_gate(kind, inputs, namer)
    own1 = {g1.output} | set(g1.intermediates)
    own2 = {g2.output} | set(g2.intermediates)
    assert not own1 & own2
    assert not own1 & {"A", "B"}


def test_positive_init_requirements():
    needs = {"inversion", "mth_root", "absolute_difference",
             "rectified_subtraction", "partial_real_inversion"}
    for tag, n, m in ALL_KINDS:
        gate, _ = build(tag, n, m)
        flagged = set(gate.positive_init)
        owned = {gate.output} | set(gate.intermediates)
        if tag in needs:
            assert flagged == owned, tag
        else:
            assert flagged == set(), tag


def test_wrong_arity_rejected():
    a = "A"
    with pytest.raises(ValueError):
        make_gate(GateKind("addition"), [a], reserved_namer("A"))
    with pytest.raises(ValueError):
        make_gate(GateKind("inversion"), [a, a], reserved_namer("A"))


def test_mth_root_m_validation():
    with pytest.raises(ValueError):
        GateKind("mth_root", 1)  # m=1 is identification's job
    with pytest.raises(ValueError):
        GateKind("mth_root")
    with pytest.raises(ValueError):
        GateKind("addition", 2)  # m only belongs on roots
    with pytest.raises(ValueError):
        GateKind("square_root")


# steady-state consistency: plugging the lemma's limiting values into the
# derived field zeroes the output (and intermediate) coordinates

positive = st.floats(min_value=0.1, max_value=9.0)


@given(positive)
def test_steady_state_single_input_gates(a):
    for tag, m, x_star, y_star in [
            ("identification", None, a, None),
            ("inversion", None, 1 / a, None),
            ("mth_root", 2, a ** 0.5, a ** -0.5),
            ("mth_root", 3, a ** (1 / 3), a ** (-1 / 3))]:
        gate, net, _ = None, None, None
        gate, net = build(tag, 1, m)
        f = mass_action(net)
        state = {"A": a, gate.output: x_star}
        if y_star is not None:
            state[gate.intermediates[0]] = y_star
        vals = evaluate_field(f, net.species_ids, state)
        for sid, v in vals.items():
            assert v == pytest.approx(0.0, abs=1e-9), (tag, sid)


@given(positive, positive)
def test_steady_state_two_input_gates(a, b):
    cases = [("addition", a + b, None), ("multiplication", a * b, None)]
    if abs(a - b) > 0.05:
        cases.append(("absolute_difference", abs(a - b), 1 / abs(a - b)))
        cases.append(("rectified_subtraction", max(a - b, 0.0), 1 / abs(a - b)))
    for tag, x_star, y_star in cases:
        gate, net = build(tag, 2)
        f = mass_action(net)
        state = {"A": a, "B": b, gate.output: x_star}
        if y_star is not None:
            state[gate.intermediates[0]] = y_star
        vals = evaluate_field(f, net.species_ids, state)
        for sid, v in vals.items():
            assert v == pytest.approx(0.0, abs=1e-8), (tag, sid)


@given(positive)
def test_steady_state_partial_real_inversion(ap):
    gate, net = build("partial_real_inversion", 2)
    f, ids = mass_action(net), net.species_ids
    # positive rail active: x* = 1/a_p, y* = 1/a_p
    vals = evaluate_field(f, ids, {"A": ap, "B": 0.0,
                                   gate.intermediates[0]: 1 / ap,
                                   gate.output: 1 / ap})
    for sid, v in vals.items():
        assert v == pytest.approx(0.0, abs=1e-9), sid
    # negative rail active: x* = 0, y* = 1/a_n
    vals = evaluate_field(f, ids, {"A": 0.0, "B": ap,
                                   gate.intermediates[0]: 1 / ap,
                                   gate.output: 0.0})
    for sid, v in vals.items():
        assert v == pytest.approx(0.0, abs=1e-9), sid


LIMIT_KINDS = [GateKind(tag) for tag, spec in GATES.items() if not spec.takes_m] + [
    GateKind("mth_root", m) for m in (2, 3, 5)]


def _limit_inputs(kind, rng):
    """Seeded input values with a non-degenerate limit: no tie for the
    subtraction gates, one rail zero for partial real inversion."""
    while True:
        values = np.exp(rng.uniform(np.log(0.2), np.log(5.0), GATES[kind.tag].arity))
        if kind.tag == "partial_real_inversion":
            values[rng.integers(2)] = 0.0
        if kind.tag not in ("absolute_difference", "rectified_subtraction") \
                or abs(values[0] - values[1]) >= 0.25 * values.max():
            return values


# a + a and a * a feed one species to both inputs; the other two-input
# gates would see equal inputs, a tie that leaves them no exponential limit
SHARED = [pytest.param(kind, ("A", "A"), id=f"{kind}[shared]")
          for kind in (GateKind("addition"), GateKind("multiplication"))]


@pytest.mark.parametrize("kind,inputs", [pytest.param(kind, ("A", "B"), id=str(kind))
                                      for kind in LIMIT_KINDS] + SHARED)
def test_limit_rate_is_the_fragment_jacobian_diagonal(kind, inputs):
    # the gate's network, inputs held, integrated to its limit: there the
    # exact d f_i / d x_i is -1 for X and -gate_limit_rate for Y, whatever
    # the inputs
    rng = np.random.default_rng(sum(map(ord, str(kind))))
    gate, net = build(kind.tag, GATES[kind.tag].arity, kind.m, inputs)
    field = mass_action(net)
    ids = net.species_ids
    want = {gate.output: -1.0}
    if gate.intermediates:
        want[gate.intermediates[0]] = -float(gate_limit_rate(kind))
    for _ in range(4):
        values = _limit_inputs(kind, rng)
        init = dict(zip(inputs, values)) | {sid: 1.0 for sid in gate.positive_init}
        traj = integrate_network(net, init, SimConfig(t_end=40))
        assert traj.termination.status == "completed", (kind, values)
        y = traj.states[-1]
        for sid, rate in want.items():
            i = ids.index(sid)
            diagonal = sum(float(c) * math.prod(y[j] ** e for j, e in mono)
                           for mono, c in _derivative(field[i], i).items())
            assert diagonal == pytest.approx(rate, rel=1e-6), (kind, values, sid)


def test_catalogue_documents_every_gate():
    text = catalogue()
    for tag, _, _ in ALL_KINDS:
        assert tag in text
    assert "k=1" in text and "target" in text and "speed" in text


CATALOGUE_ODES = {
    "identification": ["x1' = a - x1"],
    "inversion": ["x1' = x1 - a*x1^2"],
    "mth_root (shown for m=2)": ["x1' = x1 - x1^2*y1", "y1' = y1 - a*y1^3"],
    "addition": ["x1' = a + b - x1"],
    "multiplication": ["x1' = a*b - x1"],
    "absolute_difference": ["x1' = x1 - x1^2*y1",
                            "y1' = 2*a*b*y1^3 + y1 - a^2*y1^3 - b^2*y1^3"],
    "rectified_subtraction": ["x1' = a*x1*y1 - b*x1*y1 - x1^2*y1",
                              "y1' = 2*a*b*y1^3 + y1 - a^2*y1^3 - b^2*y1^3"],
    "partial_real_inversion": ["x1' = a_p*x1*y1 - a_p^2*x1^2*y1 - a_n*x1*y1",
                               "y1' = y1 - a_p*y1^2 - a_n*y1^2"],
}


def test_catalogue_ode_lines():
    # gain terms first, then losses, each ordered by its leading species
    odes = {}
    for section in catalogue().split("\n\n"):
        head, *lines = section.splitlines()
        odes[head.removeprefix("## ")] = [line.removeprefix("# ode: ")
                                          for line in lines if line.startswith("# ode: ")]
    assert odes == CATALOGUE_ODES


def test_mth_root_degree_fits_stoichiometry():
    # the root gate's reactions hold m + 1 copies of Y, capped at 255
    GateKind("mth_root", 254)
    with pytest.raises(ValueError, match=r"m in 2\.\.254"):
        GateKind("mth_root", 255)


# --- instantiation against renaming reaction by reaction --------------------


def reference_reactions(kind, input_ids, xid, yid):
    """The gate's reactions renamed one reaction at a time: shared species
    merge their counts and every complex and reaction is checked as built."""
    spec = GATES[kind.tag]
    text = spec.reactions
    if kind.m is not None:
        text = text.format(m=kind.m, m1=kind.m + 1)
    ids = dict(zip(spec.inputs, input_ids), X=xid, Y=yid)

    def relabel(c):
        counts = {}
        for sid, n in c.coeffs:
            counts[ids[sid]] = counts.get(ids[sid], 0) + n
        return Complex.make(counts)

    return tuple(Reaction(relabel(r.reactant), relabel(r.product), r.rate)
                 for r in parse_network(text).reactions)


def instantiation_cases():
    kinds = [GateKind(tag) for tag, spec in GATES.items() if not spec.takes_m]
    kinds += [GateKind("mth_root", m) for m in (2, 3, 254)]
    for kind in kinds:
        # "A" sorts before the gate's own X1 and Y1, "b" after them
        if GATES[kind.tag].arity == 1:
            cases = [("A",), ("b",)]
        else:
            cases = [("A", "b"), ("b", "A"), ("A", "A"), ("b", "b")]
        for input_ids in cases:
            yield kind, input_ids


def check_against_reference(kind, input_ids, namer):
    g = make_gate(kind, input_ids, namer)
    xid = g.output
    assert g.reactions == reference_reactions(kind, input_ids, xid, "Y" + xid[1:])
    for r in g.reactions:
        for c in (r.reactant, r.product):
            ids = [sid for sid, _ in c.coeffs]
            assert ids == sorted(set(ids))  # canonical: sorted, one pair per species


@pytest.mark.parametrize("kind,input_ids", list(instantiation_cases()), ids=str)
def test_make_gate_matches_reference_renaming(kind, input_ids):
    check_against_reference(kind, input_ids, reserved_namer(*input_ids))


@pytest.mark.parametrize("tag", GATES)
def test_make_gate_input_named_like_its_own_species(tag):
    # an input that is the gate's own X1 or Y1 merges with it exactly as
    # renaming reaction by reaction does
    kind = GateKind(tag, 2 if GATES[tag].takes_m else None)
    for sid in ("X1", "Y1"):
        check_against_reference(kind, (sid,) * GATES[tag].arity, SpeciesNamer())
