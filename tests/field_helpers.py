"""Test oracles on a field in crn.mass_action's form: evaluated term by
term in plain Python, for checking generated right-hand sides against, and
densified, for comparing against hand-written exponent tuples."""


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
