"""Test oracle: the polynomial field of crn.derive_ode evaluated term by
term in plain Python, for checking generated right-hand sides against."""

from crncalc.crn import PolynomialField


def evaluate_field(field: PolynomialField, state) -> dict[str, float]:
    """Evaluate the field at a state given as {species id: value}."""
    missing = [sid for sid in field.species if sid not in state]
    if missing:
        raise ValueError(f"state missing species {missing}")
    vals = [float(state[sid]) for sid in field.species]
    out = {}
    for i, sid in enumerate(field.species):
        total = 0.0
        for m in field.polynomials[i]:
            term = float(m.coeff)
            for j, e in enumerate(m.exponents):
                if e:
                    term *= vals[j] ** e
            total += term
        out[sid] = total
    return out
