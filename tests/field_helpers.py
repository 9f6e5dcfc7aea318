"""Test oracles on a field in crn.mass_action's form: evaluated term by
term in plain Python, for checking generated right-hand sides against,
densified, for comparing against hand-written exponent tuples, and checked
for admissibility; a complex's count of one species; and a species namer
that skips given ids."""

from crncalc.gates import SpeciesNamer


def evaluate_field(field, species, state) -> dict[str, float]:
    """Evaluate the field over the species ids at a state given as
    {species id: value}."""
    missing = [sid for sid in species if sid not in state]
    if missing:
        raise ValueError(f"state missing species {missing}")
    vals = [float(state[sid]) for sid in species]
    out = {}
    for sid, poly in zip(species, field):
        total = 0.0
        for mono, c in poly.items():
            term = float(c)
            for j, e in mono:
                term *= vals[j] ** e
            total += term
        out[sid] = total
    return out


def densify(field, species) -> dict[str, dict[tuple[int, ...], object]]:
    """Each species' polynomial as {dense exponent tuple: coefficient}."""
    def exponents(mono):
        dense = [0] * len(species)
        for j, e in mono:
            dense[j] = e
        return tuple(dense)

    return {sid: {exponents(mono): c for mono, c in poly.items()}
            for sid, poly in zip(species, field)}


def check_admissible(field) -> list:
    """The terms of the field whose coefficient is negative but whose
    monomial lacks x_i, as (species index i, monomial, coefficient); an
    empty list means the field is admissible.

    Admissibility keeps the non-negative orthant forward invariant: on
    the face x_i = 0 all surviving terms of f_i are non-negative.
    Mass-action derivation satisfies it by construction; the check guards
    hand-written fields.
    """
    return [(i, mono, c) for i, poly in enumerate(field) for mono, c in poly.items()
            if c < 0 and i not in dict(mono)]


def count(complex_, sid: str) -> int:
    """The stoichiometric count of sid in a crn.Complex (0 if absent)."""
    return dict(complex_.coeffs).get(sid, 0)


def reserved_namer(*ids: str) -> SpeciesNamer:
    """A SpeciesNamer that never hands out the given ids."""
    namer = SpeciesNamer()
    namer.reserve(*ids)
    return namer
