"""Network data model, derived fields, admissibility, and the text format."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crncalc.crn import (
    AdmissibilityReport,
    Complex,
    FormatError,
    Monomial,
    PolynomialField,
    Reaction,
    ReactionNetwork,
    Species,
    check_admissible,
    collect_network,
    derive_ode,
    format_network,
    format_polynomial,
    parse_network,
    parse_number,
)

from field_helpers import evaluate_field

F = Fraction


def rxn(reactant, product, rate=1):
    return Reaction(Complex.make(reactant), Complex.make(product), F(rate))


def net(reactions, roles=None, order=None):
    return collect_network(reactions, roles, order)


def poly_dict(field, sid):
    """Monomials as {exponent tuple: coefficient} for comparison."""
    return {m.exponents: m.coeff for m in field.polynomial(sid)}


# --- derive_ode oracles -----------------------------------------------------

def test_derive_ode_bimolecular_example():
    # X1 + X2 -> X3, X3 -> X1 + X2, 2 X3 -> 0; expected field written out
    # by hand from mass-action kinetics before the implementation existed.
    n = net([rxn({"X1": 1, "X2": 1}, {"X3": 1}),
             rxn({"X3": 1}, {"X1": 1, "X2": 1}),
             rxn({"X3": 2}, {})],
            order=["X1", "X2", "X3"])
    f = derive_ode(n)
    assert poly_dict(f, "X1") == {(1, 1, 0): F(-1), (0, 0, 1): F(1)}
    assert poly_dict(f, "X2") == {(1, 1, 0): F(-1), (0, 0, 1): F(1)}
    assert poly_dict(f, "X3") == {(1, 1, 0): F(1), (0, 0, 1): F(-1),
                                  (0, 0, 2): F(-2)}


def test_derive_ode_empty_network():
    n = ReactionNetwork((Species("A", "input"),), ())
    f = derive_ode(n)
    assert f.polynomial("A") == ()
    assert f.is_zero("A")


def test_derive_ode_addition_fragment():
    n = net([rxn({"A": 1}, {"A": 1, "X": 1}),
             rxn({"B": 1}, {"B": 1, "X": 1}),
             rxn({"X": 1}, {})],
            order=["A", "B", "X"])
    f = derive_ode(n)
    assert f.is_zero("A") and f.is_zero("B")
    assert poly_dict(f, "X") == {(1, 0, 0): F(1), (0, 1, 0): F(1),
                                 (0, 0, 1): F(-1)}


def test_derive_ode_combines_like_monomials():
    # two reactions contributing the same monomial with opposite signs
    n = net([rxn({"X": 1}, {"X": 2}), rxn({"X": 1}, {})], order=["X"])
    f = derive_ode(n)
    assert f.polynomial("X") == ()


def test_rational_rate_constants_stay_exact():
    n = net([rxn({"A": 1}, {"A": 1, "X": 1}, F(1, 3)),
             rxn({"X": 1}, {}, F(2, 3))], order=["A", "X"])
    f = derive_ode(n)
    assert poly_dict(f, "X") == {(1, 0): F(1, 3), (0, 1): F(-2, 3)}


# --- admissibility ----------------------------------------------------------

def field_1d(species, terms):
    """Single-species helper: terms as {exponents: coeff}."""
    monos = tuple(sorted((Monomial(F(c), e) for e, c in terms.items()),
                         key=lambda m: m.exponents))
    zeros = tuple(() for _ in species[:-1])
    return PolynomialField(tuple(species), zeros + (monos,))


def test_admissible_naive_inversion_field():
    # x' = 1 - a x over (a, x)
    f = field_1d(["a", "x"], {(0, 0): 1, (1, 1): -1})
    assert check_admissible(f).ok


def test_inadmissible_constant_decay():
    f = field_1d(["x"], {(0,): -1})
    rep = check_admissible(f)
    assert not rep.ok
    assert rep.violations
    assert "x" in rep.violations[0]


def test_admissible_designed_inversion_field():
    # x' = x - a x^2 (the expanded form of x(1 - a x))
    f = field_1d(["a", "x"], {(0, 1): 1, (1, 2): -1})
    assert check_admissible(f).ok


def test_derived_fields_always_admissible():
    n = net([rxn({"A": 2, "X": 1}, {"A": 2}), rxn({"X": 2}, {"X": 3})])
    assert check_admissible(derive_ode(n)).ok


# --- evaluation -------------------------------------------------------------

def test_evaluate_addition_field():
    n = net([rxn({"A": 1}, {"A": 1, "X": 1}),
             rxn({"B": 1}, {"B": 1, "X": 1}),
             rxn({"X": 1}, {})])
    f = derive_ode(n)
    vals = evaluate_field(f, {"A": 1.0, "B": 2.0, "X": 0.0})
    assert vals["X"] == pytest.approx(3.0)
    assert vals["A"] == 0.0


def test_evaluate_inversion_fixed_point_and_slope():
    n = net([rxn({"X": 1}, {"X": 2}), rxn({"A": 1, "X": 2}, {"A": 1, "X": 1})])
    f = derive_ode(n)
    assert evaluate_field(f, {"A": 2.0, "X": 0.5})["X"] == pytest.approx(0.0)
    assert evaluate_field(f, {"A": 2.0, "X": 1.0})["X"] == pytest.approx(-1.0)


def test_evaluate_missing_species_errors():
    n = net([rxn({"X": 1}, {})])
    with pytest.raises(ValueError):
        evaluate_field(derive_ode(n), {})


# --- type invariants --------------------------------------------------------

def test_reaction_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        rxn({"X": 1}, {}, 0)
    with pytest.raises(ValueError):
        rxn({"X": 1}, {}, -2)


def test_reaction_rejects_null_reaction():
    with pytest.raises(ValueError):
        rxn({"X": 1}, {"X": 1})


def test_stoichiometry_cap():
    Complex.make({"X": 255})
    with pytest.raises(ValueError):
        Complex.make({"X": 256})


def test_species_id_pattern():
    Species("A_p2", "input")
    with pytest.raises(ValueError):
        Species("2A", "input")
    with pytest.raises(ValueError):
        Species("A", "sidechannel")


def test_network_requires_declared_species():
    with pytest.raises(ValueError):
        ReactionNetwork((Species("A", "input"),),
                        (rxn({"A": 1}, {"A": 1, "X": 1}),))


# --- text format ------------------------------------------------------------

RECT_SUB_TEXT = """\
species: A[input], B[input], Y[intermediate], X[output]
Y -> 2Y ; k=1
2A + 3Y -> 2A + 2Y ; k=1
2B + 3Y -> 2B + 2Y ; k=1
A + B + 3Y -> A + B + 5Y ; k=1
A + Y + X -> A + Y + 2X ; k=1
B + Y + X -> B + Y ; k=1
Y + 2X -> Y + X ; k=1
"""


def test_parse_format_canonical_roundtrip():
    n = parse_network(RECT_SUB_TEXT)
    assert len(n.reactions) == 7
    assert format_network(n) == RECT_SUB_TEXT
    # and printing is a fixed point
    assert format_network(parse_network(format_network(n))) == format_network(n)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nA -> A + X ; k=1\n\nX -> 0 ; k=1/2\n"
    n = parse_network(text)
    assert len(n.reactions) == 2
    assert n.reactions[1].rate == F(1, 2)


def test_parse_implicit_declaration_order():
    n = parse_network("B + X -> B ; k=1\nA -> A + X ; k=2\n")
    assert n.species_ids == ("B", "X", "A")


def test_parse_rejects_garbage():
    for bad in ["A -> ; k=1", "A + -> X ; k=1", "A -> X ; k=0",
                "A -> X ; k=-1", "-> X ; k=1", "A -> A ; k=1",
                "A -> X ; rate=1", "species: A\nspecies: B\nA -> B ; k=1"]:
        with pytest.raises(FormatError):
            parse_network(bad)


def test_parse_rejects_undeclared_species_under_header():
    # the first species in reaction order that the header leaves out is named
    with pytest.raises(FormatError, match="undeclared species Q "):
        parse_network("species: A[input], X[output]\nA -> A + X\nX + Q -> R\n")


def test_parse_rate_defaults_to_one():
    # shorthand: an omitted rate clause means k=1
    n = parse_network("A -> A + X\nX -> 0\n")
    assert all(r.rate == 1 for r in n.reactions)


@pytest.mark.parametrize("text,value", [("3", 3), ("0.25", Fraction(1, 4)),
                                        ("1e-3", Fraction(1, 1000)), (" 2/3 ", Fraction(2, 3)),
                                        ("0e-400", 0), ("1e308", 10 ** 308)])
def test_parse_number_takes_finite_literals(text, value):
    assert parse_number(text) == value


def test_parse_number_reads_a_zero_without_its_exponent():
    # Fraction would build 10**100000000 before normalising to 0
    assert parse_number("0e-100000000") == 0
    assert parse_number(" -0.000E+100000000 ") == 0
    with pytest.raises(ValueError, match="out of a float's range"):
        parse_number("1e-100000000")


@pytest.mark.parametrize("text,message", [("1e400", "out of a float's range"),
                                          ("-1e400", "out of a float's range"),
                                          ("1e-400", "out of a float's range"),
                                          ("9" * 400, "out of a float's range"),
                                          ("1/" + "9" * 400, "out of a float's range"),
                                          ("inf", "out of a float's range"),
                                          ("nan", "out of a float's range"),
                                          ("1/0", "divides by zero"),
                                          ("abc", "could not convert"),
                                          ("1/1e5", "Invalid literal")])
def test_parse_number_refuses_what_a_float_cannot_hold(text, message):
    with pytest.raises(ValueError, match=message):
        parse_number(text)


def test_parse_rate_out_of_range_is_a_format_error():
    with pytest.raises(FormatError, match="line 2: bad rate constant: number '1e400'"):
        parse_network("A -> A + X\nX -> 0 ; k=1e400\n")


def test_parse_empty_complex_symbol():
    n = parse_network("0 -> X ; k=1\nX -> 0 ; k=1\n")
    assert n.reactions[0].reactant.is_empty()
    assert n.reactions[1].product.is_empty()


def test_format_polynomial_readable():
    n = net([rxn({"A": 1}, {"A": 1, "X": 1}),
             rxn({"B": 1}, {"B": 1, "X": 1}),
             rxn({"X": 1}, {})])
    f = derive_ode(n)
    assert format_polynomial(f, "X") == "a + b - x"
    assert format_polynomial(f, "A") == "0"


# --- property tests ---------------------------------------------------------

species_ids = st.sampled_from(["A", "B", "X", "Y", "Z"])
complexes = st.dictionaries(species_ids, st.integers(min_value=0, max_value=3),
                            min_size=1, max_size=3)


@st.composite
def reactions_strategy(draw):
    reactant = draw(complexes)
    product = draw(complexes)
    # avoid null reactions
    if Complex.make(reactant) == Complex.make(product):
        product = dict(product)
        product["Z"] = product.get("Z", 0) + 1
    rate = draw(st.integers(min_value=1, max_value=5))
    return rxn(reactant, product, rate)


networks = st.lists(reactions_strategy(), min_size=1, max_size=6).map(net)


@given(networks)
def test_orthant_forward_invariance(n):
    # on any boundary face x_i = 0 the field component f_i is non-negative
    f = derive_ode(n)
    rng = np.random.default_rng(0)
    for sid in n.species_ids:
        state = {s: float(v) for s, v in
                 zip(n.species_ids, rng.uniform(0.0, 3.0, len(n.species_ids)))}
        state[sid] = 0.0
        assert evaluate_field(f, state)[sid] >= 0.0


@given(st.lists(reactions_strategy(), min_size=1, max_size=4),
       st.lists(reactions_strategy(), min_size=1, max_size=4))
def test_derive_ode_linear_in_reactions(rs1, rs2):
    order = ["A", "B", "X", "Y", "Z"]
    f1 = derive_ode(net(rs1, order=order))
    f2 = derive_ode(net(rs2, order=order))
    f12 = derive_ode(net(rs1 + rs2, order=order))
    state = {s: v for s, v in zip(order, [0.7, 1.3, 0.2, 2.0, 0.9])}
    v1, v2, v12 = (evaluate_field(f, state) for f in (f1, f2, f12))
    for sid in order:
        assert v12[sid] == pytest.approx(v1[sid] + v2[sid], abs=1e-12)


@given(networks, st.integers(min_value=1, max_value=7))
def test_rate_scaling_scales_coefficients_exactly(n, sigma):
    scaled = net([Reaction(r.reactant, r.product, r.rate * sigma)
                  for r in n.reactions], order=n.species_ids)
    f, g = derive_ode(n), derive_ode(scaled)
    for sid in n.species_ids:
        assert [m.exponents for m in f.polynomial(sid)] == \
               [m.exponents for m in g.polynomial(sid)]
        for a, b in zip(f.polynomial(sid), g.polynomial(sid)):
            assert b.coeff == a.coeff * sigma


@settings(max_examples=50)
@given(networks)
def test_text_roundtrip_is_byte_stable(n):
    text = format_network(n)
    again = parse_network(text)
    assert format_network(again) == text
    assert again.species_ids == n.species_ids
    assert list(again.reactions) == list(n.reactions)
