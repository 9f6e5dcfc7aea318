"""Mass-action reaction networks and their polynomial rate equations.

A network is a list of species plus a list of reactions with positive
rational rate constants.  Under mass action a reaction with reactant
complex nu fires at rate k * prod_i x_i^nu_i, and the induced ODE is
polynomial.  All symbolic work here (ODE derivation, admissibility,
conservation checks) is done in exact Fraction arithmetic so the checks
are decidable; floats only enter at evaluation time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

SPECIES_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
ROLES = ("input", "output", "intermediate")
MAX_STOICH = 255


class FormatError(ValueError):
    """Raised when network text cannot be parsed."""


@dataclass(frozen=True, slots=True)
class Species:
    id: str
    role: str = "intermediate"

    def __post_init__(self):
        if not SPECIES_RE.match(self.id):
            raise ValueError(f"bad species id {self.id!r}")
        if self.role not in ROLES:
            raise ValueError(f"bad role {self.role!r} for species {self.id}")


@dataclass(frozen=True, slots=True)
class Complex:
    """Multiset of species, stored as (id, count) pairs sorted by id."""

    coeffs: tuple[tuple[str, int], ...]

    @staticmethod
    def make(counts: Mapping[str, int]) -> "Complex":
        items = []
        for sid, n in counts.items():
            if n == 0:
                continue
            if n < 0 or n > MAX_STOICH:
                raise ValueError(f"stoichiometry {n} for {sid} outside 1..{MAX_STOICH}")
            items.append((sid, int(n)))
        return Complex(tuple(sorted(items)))

    def count(self, sid: str) -> int:
        for s, n in self.coeffs:
            if s == sid:
                return n
        return 0

    def is_empty(self) -> bool:
        return not self.coeffs


EMPTY = Complex(())


@dataclass(frozen=True, slots=True)
class Reaction:
    reactant: Complex
    product: Complex
    rate: Fraction = Fraction(1)

    def __post_init__(self):
        if not isinstance(self.rate, Fraction):
            object.__setattr__(self, "rate", Fraction(self.rate))
        if self.rate <= 0:
            raise ValueError(f"rate constant must be positive, got {self.rate}")
        if self.reactant == self.product:
            raise ValueError("reaction must change at least one species count")


def _species_used(reactions: Iterable[Reaction]) -> dict[str, int]:
    """Every species id the reactions name, keyed in first-appearance order."""
    used: dict[str, int] = {}
    for r in reactions:
        used.update(r.reactant.coeffs)
        used.update(r.product.coeffs)
    return used


@dataclass(frozen=True, slots=True)
class ReactionNetwork:
    species: tuple[Species, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        declared = {s.id for s in self.species}
        if len(declared) != len(self.species):
            raise ValueError("duplicate species ids")
        used = _species_used(self.reactions)
        if used.keys() - declared:
            sid = next(sid for sid in used if sid not in declared)
            raise ValueError(f"reaction references undeclared species {sid}")

    @property
    def species_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.species)


def collect_network(reactions: Iterable[Reaction],
                    roles: Mapping[str, str] | None = None,
                    order: Iterable[str] | None = None) -> ReactionNetwork:
    """Build a network declaring species in first-appearance order.

    ``order`` forces declaration order for the ids it lists; any species
    appearing in reactions but not in ``order`` follow in appearance order.
    """
    roles = dict(roles or {})
    reactions = tuple(reactions)
    seen = dict.fromkeys(order or ())
    seen.update(_species_used(reactions))
    species = tuple(Species(sid, roles.get(sid, "intermediate")) for sid in seen)
    return ReactionNetwork(species, reactions)


# ---------------------------------------------------------------------------
# polynomial rate equations


@dataclass(frozen=True, slots=True)
class Monomial:
    coeff: Fraction
    exponents: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class PolynomialField:
    """One polynomial per species, monomials in a canonical order.

    Monomials are sorted lexicographically by exponent vector, exponents
    indexed by the species order of ``species``.  Zero coefficients are
    dropped, so two fields are equal iff they are the same polynomial map.
    """

    species: tuple[str, ...]
    polynomials: tuple[tuple[Monomial, ...], ...]

    def polynomial(self, sid: str) -> tuple[Monomial, ...]:
        return self.polynomials[self.species.index(sid)]

    def is_zero(self, sid: str) -> bool:
        return not self.polynomial(sid)


def mass_action(net: ReactionNetwork) -> list[dict[tuple[tuple[int, int], ...], Fraction]]:
    """Expand the mass-action rate law, sparsely: entry i is f_i as
    {monomial: coefficient}.

    A monomial is a reactant complex as sorted (species index, exponent)
    pairs, and its coefficient the exact sum of rate * (change in species
    i) over the reactions with that reactant.  Zero terms are dropped, and
    the monomials come in PolynomialField's canonical order: sorting the
    pairs as (-index, exponent) orders them as their dense exponent vectors.
    """
    index = {sid: i for i, sid in enumerate(net.species_ids)}
    acc: list[dict] = [{} for _ in index]
    for r in net.reactions:
        mono = tuple(sorted((index[sid], n) for sid, n in r.reactant.coeffs))
        delta = {sid: -n for sid, n in r.reactant.coeffs}
        for sid, n in r.product.coeffs:
            delta[sid] = delta.get(sid, 0) + n
        for sid, d in delta.items():
            if d:
                terms = acc[index[sid]]
                terms[mono] = terms.get(mono, 0) + r.rate * d
    return [dict(sorted(((m, c) for m, c in terms.items() if c),
                        key=lambda term: [(-i, e) for i, e in term[0]]))
            for terms in acc]


def derive_ode(net: ReactionNetwork) -> PolynomialField:
    """The mass-action rate law as per-species dense polynomials."""
    n = len(net.species)

    def exponents(mono) -> tuple[int, ...]:
        dense = [0] * n
        for j, e in mono:
            dense[j] = e
        return tuple(dense)

    return PolynomialField(net.species_ids, tuple(
        tuple(Monomial(c, exponents(m)) for m, c in poly.items())
        for poly in mass_action(net)))


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple[tuple[str, Monomial], ...]


def check_admissible(field: PolynomialField) -> AdmissibilityReport:
    """Check that every negative monomial of f_i contains x_i.

    This is the structural condition that keeps the non-negative orthant
    forward invariant: on the face x_i = 0 all surviving terms of f_i are
    non-negative.  Mass-action derivation satisfies it by construction;
    the check guards hand-written fields.
    """
    bad = []
    for i, sid in enumerate(field.species):
        for m in field.polynomials[i]:
            if m.coeff < 0 and m.exponents[i] == 0:
                bad.append((sid, m))
    return AdmissibilityReport(not bad, tuple(bad))


def format_polynomial(field: PolynomialField, sid: str) -> str:
    """Render f_sid like ``a + b - x1`` with lowercase concentration names.

    Positive terms come first, ordered by their leading species, so gate
    ODEs read the way they are usually written (gain terms, then losses).
    """
    names = [s.lower() for s in field.species]

    def key(m):
        lead = next((j for j, e in enumerate(m.exponents) if e), len(m.exponents))
        return (m.coeff < 0, lead, m.exponents)

    parts = []
    for m in sorted(field.polynomial(sid), key=key):
        mag = abs(m.coeff)
        factors = [] if mag == 1 else [str(mag)]
        for j, e in enumerate(m.exponents):
            if e == 0:
                continue
            factors.append(names[j] if e == 1 else f"{names[j]}^{e}")
        if not factors:
            factors = [str(mag)]
        term = "*".join(factors)
        sign = "-" if m.coeff < 0 else "+"
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


# ---------------------------------------------------------------------------
# text format
#
#   # comment
#   species: A[input], X[output], Y[intermediate]
#   2A + 3Y -> 2A + 2Y ; k=1
#
# Formatting is canonical (species order from the declaration, coefficient 1
# omitted, rates as integers or p/q), so format(parse(format(n))) == format(n).

_TERM_RE = re.compile(r"(\d+)?\s*([A-Za-z][A-Za-z0-9_]*)\Z")


def _parse_complex(text: str, lineno: int) -> Complex:
    text = text.strip()
    if text == "0":
        return EMPTY
    counts: dict[str, int] = {}
    for raw in text.split("+"):
        m = _TERM_RE.match(raw.strip())
        if not m:
            raise FormatError(f"line {lineno}: bad complex term {raw.strip()!r}")
        n = int(m.group(1)) if m.group(1) else 1
        if n == 0 or n > MAX_STOICH:
            raise FormatError(f"line {lineno}: stoichiometry {n} outside 1..{MAX_STOICH}")
        sid = m.group(2)
        counts[sid] = counts.get(sid, 0) + n
    return Complex.make(counts)


def parse_number(text: str) -> Fraction:
    """The exact value of a numeric literal ("3", "0.25", "1e-3", "2/3"), or
    ValueError unless a float holds it.  Each side is tried as a float
    first: "1e1000000" is refused before Fraction builds 10**1000000, and
    a zero mantissa ("0e-1000000") is read without its exponent."""
    for part in text.split("/", 1):
        f = float(part)
        mantissa = part.lower().split("e")[0]
        if not math.isfinite(f) or (f == 0 and re.search("[1-9]", mantissa)):
            raise ValueError(f"number {text.strip()!r} is out of a float's range")
    if "/" not in text and f == 0:
        text = mantissa  # only a literal without "/" takes an exponent
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"number {text.strip()!r} divides by zero") from None


def _parse_rate(text: str, lineno: int) -> Fraction:
    try:
        rate = parse_number(text)
    except ValueError as e:
        raise FormatError(f"line {lineno}: bad rate constant: {e}") from None
    if rate <= 0:
        raise FormatError(f"line {lineno}: rate constant must be positive")
    return rate


def parse_network(text: str) -> ReactionNetwork:
    roles: dict[str, str] = {}
    order: list[str] = []
    have_header = False
    reactions: list[Reaction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("species:"):
            if have_header or reactions:
                raise FormatError(f"line {lineno}: species header must come first, once")
            have_header = True
            for item in line[len("species:"):].split(","):
                item = item.strip()
                m = re.match(r"([A-Za-z][A-Za-z0-9_]*)(?:\[(\w+)\])?\Z", item)
                if not m:
                    raise FormatError(f"line {lineno}: bad species declaration {item!r}")
                sid, role = m.group(1), m.group(2) or "intermediate"
                if role not in ROLES:
                    raise FormatError(f"line {lineno}: bad role {role!r}")
                if sid in roles:
                    raise FormatError(f"line {lineno}: duplicate species {sid}")
                roles[sid] = role
                order.append(sid)
            continue
        if "->" not in line:
            raise FormatError(f"line {lineno}: expected a reaction, got {line!r}")
        lhs, rhs = line.split("->", 1)
        if ";" in rhs:
            rhs, tail = rhs.split(";", 1)
            tail = tail.strip()
            if not tail.startswith("k="):
                raise FormatError(f"line {lineno}: expected k=RATE after ';'")
            rate = _parse_rate(tail[2:], lineno)
        else:
            rate = Fraction(1)
        reactant = _parse_complex(lhs, lineno)
        product = _parse_complex(rhs, lineno)
        try:
            reactions.append(Reaction(reactant, product, rate))
        except ValueError as e:
            raise FormatError(f"line {lineno}: {e}") from None
    if have_header:
        for sid in _species_used(reactions):
            if sid not in roles:
                raise FormatError(f"undeclared species {sid} (header present)")
    return collect_network(reactions, roles, order)


def _format_complex(c: Complex, order: Mapping[str, int]) -> str:
    if c.is_empty():
        return "0"
    items = c.coeffs if len(c.coeffs) == 1 else sorted(c.coeffs, key=lambda p: order[p[0]])
    return " + ".join([sid if n == 1 else f"{n}{sid}" for sid, n in items])


def format_fraction(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _format_reaction(r: Reaction, order: Mapping[str, int]) -> str:
    return (f"{_format_complex(r.reactant, order)} -> "
            f"{_format_complex(r.product, order)} ; k={format_fraction(r.rate)}")


def format_species(species: Iterable[Species]) -> str:
    """The header line declaring species, in the order given."""
    return "species: " + ", ".join(f"{s.id}[{s.role}]" for s in species)


def format_network(net: ReactionNetwork) -> str:
    order = {sid: i for i, sid in enumerate(net.species_ids)}
    lines = [format_species(net.species)]
    lines += [_format_reaction(r, order) for r in net.reactions]
    return "\n".join(lines) + "\n"
