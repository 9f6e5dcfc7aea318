"""The elementary computing gates and their convergence guarantees.

Each gate is a small mass-action fragment, all rate constants 1, whose
designated output species converges to an arithmetic function of the
steady values of its input species.  The speed bounds returned here are
the per-gate exponential rates: every gate converges at rate at least
min over its inputs' rates capped at 1, except that taking an m-th root
of a quantity converging to zero divides the rate by m.

Everything a gate means is written once, in its `GateSpec` in `GATES`:
reactions, target, speed bound, factored rate law and catalogue text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .crn import (MAX_STOICH, Complex, Reaction, ReactionNetwork, Species, _format_reaction,
                  collect_network, parse_network)


class DomainError(ValueError):
    """Gate applied outside the region where its limit is defined."""


@dataclass(frozen=True)
class GateKind:
    tag: str
    m: int | None = None

    def __post_init__(self):
        if self.tag not in GATES:
            raise ValueError(f"unknown gate tag {self.tag!r}")
        if GATES[self.tag].takes_m:
            # its reactions hold m + 1 copies of Y
            if self.m is None or not 2 <= self.m < MAX_STOICH:
                raise ValueError(f"{self.tag} needs integer m in 2..{MAX_STOICH - 1}")
        elif self.m is not None:
            raise ValueError(f"{self.tag} takes no m parameter")

    def __str__(self):
        return f"{self.tag}[m={self.m}]" if self.m else self.tag


@dataclass(frozen=True)
class SpeedBound:
    """A lower bound on an exponential convergence rate, with the
    min-expression case it came from.  value may be math.inf (inputs
    held constant)."""

    value: float
    case: str = ""


@dataclass(frozen=True, slots=True)
class GateInstance:
    kind: GateKind
    inputs: tuple[Species, ...]
    output: Species
    intermediates: tuple[Species, ...]
    positive_init: tuple[str, ...]

    @property
    def species(self) -> tuple[Species, ...]:
        """The species bound to its roles: inputs, X and, if it has one, Y."""
        return (*self.inputs, self.output, *self.intermediates)

    @property
    def reactions(self) -> tuple[Reaction, ...]:
        """The gate's reactions, parsed from the program lines gate_text
        writes for it, so they are exactly what its program text says.
        Built on every read: lowering, flattening and formatting never
        read it."""
        order = {s.id: i for i, s in enumerate(self.species)}
        return parse_network(gate_text(self, order)).reactions


class SpeciesNamer:
    """Allocates fresh species ids, skipping anything reserved."""

    def __init__(self, reserved: Iterable[str] = ()):
        self._used = set(reserved)
        self._gate = 0
        self._counters: dict[str, int] = {}

    def reserve(self, *ids: str):
        self._used.update(ids)

    def gate_pair(self) -> tuple[str, str]:
        """Next (X{n}, Y{n}) pair; one index per gate."""
        while True:
            self._gate += 1
            x, y = f"X{self._gate}", f"Y{self._gate}"
            if x not in self._used and y not in self._used:
                self._used.update((x, y))
                return x, y

    def fresh(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        while True:
            n += 1
            sid = f"{prefix}{n}"
            if sid not in self._used:
                self._counters[prefix] = n
                self._used.add(sid)
                return sid


# ---------------------------------------------------------------------------
# the gate table


def _slowest_input(rates, limits, m) -> SpeedBound:
    if len(rates) == 1:
        return SpeedBound(min(rates[0], 1.0), "min{rho_a, 1}")
    return SpeedBound(min(rates[0], rates[1], 1.0), "min{rho_a, rho_b, 1}")


def _root_speed(rates, limits, m) -> SpeedBound:
    if limits[0] == 0:
        return SpeedBound(min(rates[0] / m, 1.0),
                          f"root of zero limit: min{{rho_a/{m}, 1}}")
    return _slowest_input(rates, limits, m)


def _product_speed(rates, limits, m) -> SpeedBound:
    a, b = limits
    if a == 0 and b == 0:
        return SpeedBound(min(rates[0] + rates[1], 1.0),
                          "both limits zero: min{rho_a + rho_b, 1}")
    if a == 0:
        return SpeedBound(min(rates[0], 1.0), "zero limit factor: min{rho_a, 1}")
    if b == 0:
        return SpeedBound(min(rates[1], 1.0), "zero limit factor: min{rho_b, 1}")
    return _slowest_input(rates, limits, m)


def _inverse(v, m) -> float:
    if v[0] == 0:
        raise DomainError("inversion requires a positive input limit")
    return 1.0 / v[0]


def _partial_inverse(v, m) -> float:
    ap, an = v
    if ap > 0 and an > 0:
        raise DomainError("partial real inversion needs a canonical pair (one rail zero)")
    if ap == 0 and an == 0:
        raise DomainError("partial real inversion undefined at (0, 0)")
    return 1.0 / ap if ap > 0 else 0.0


# the inner stage of both subtraction gates, Y -> 1/|a - b|, and its rate law
_DIFF_STAGE = "Y -> 2Y\n2A + 3Y -> 2A + 2Y\n2B + 3Y -> 2B + 2Y\nA + B + 3Y -> A + B + 5Y\n"
_DIFF_RATE = "{Y}*(1.0 - ({A} - {B})*({A} - {B})*{Y}*{Y})"


@dataclass(frozen=True)
class GateSpec:
    """One gate, defined once.

    `reactions` is network text over the input names, the output X and
    the inner stage Y ({m} and {m1} stand for m and m + 1).  `rate_x` and
    `rate_y` are the same mass-action law in factored form, over the same
    names in braces ({Ym} is Y to the m); they expand to exactly the
    polynomials of `reactions` but evaluate differences like (A - B)
    before squaring, which keeps the large-Y regime free of cancellation.
    `target(limits, m)` raises DomainError outside the gate's domain and
    `speed(rates, limits, m)` gives the rate bound at those limits.
    `limit_rate` is the spectral radius of the gate's own Jacobian block
    (its X and Y rows against X and Y) at a non-degenerate limit; a gate
    that takes m has m times it (see `gate_limit_rate`).
    """

    tag: str
    inputs: tuple[str, ...]
    reactions: str
    target: Callable[[Sequence[float], int | None], float]
    rate_x: str
    shows_target: str
    shows_speed: str
    rate_y: str | None = None
    speed: Callable[..., SpeedBound] = _slowest_input
    starts_positive: bool = True  # output and inner stage start at 1
    takes_m: bool = False
    limit_rate: int = 1

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def roles(self) -> tuple[str, ...]:
        """The species names its reactions use: the inputs, X and Y."""
        return (*self.inputs, "X", "Y")

    @property
    def has_y(self) -> bool:
        return self.rate_y is not None


GATES: dict[str, GateSpec] = {spec.tag: spec for spec in (
    GateSpec("identification", ("A",), "A -> A + X\nX -> 0",
             lambda v, m: float(v[0]), "{A} - {X}",
             "x* = a*", "rho_x >= min{rho_a, 1}", starts_positive=False),
    GateSpec("inversion", ("A",), "X -> 2X\nA + 2X -> A + X",
             _inverse, "{X}*(1.0 - {A}*{X})",
             "x* = 1/a*  (a* > 0)", "rho_x >= min{rho_a, 1}"),
    GateSpec("mth_root", ("A",),
             "Y -> 2Y\nA + {m1}Y -> A + {m}Y\nX -> 2X\nY + 2X -> Y + X",
             lambda v, m: float(v[0]) ** (1.0 / m), "{X}*(1.0 - {Y}*{X})",
             "x* = a*^(1/m)", "rho_x >= min{rho_a, 1}, or min{rho_a/m, 1} when a* = 0",
             rate_y="{Y}*(1.0 - {A}*{Ym})", speed=_root_speed, takes_m=True),
    GateSpec("addition", ("A", "B"), "A -> A + X\nB -> B + X\nX -> 0",
             lambda v, m: float(v[0] + v[1]), "{A} + {B} - {X}",
             "x* = a* + b*", "rho_x >= min{rho_a, rho_b, 1}", starts_positive=False),
    GateSpec("multiplication", ("A", "B"), "A + B -> A + B + X\nX -> 0",
             lambda v, m: float(v[0] * v[1]), "{A}*{B} - {X}",
             "x* = a* b*", "rho_x >= min{rho_a, rho_b, 1}; rates add when both limits are 0",
             speed=_product_speed, starts_positive=False),
    GateSpec("absolute_difference", ("A", "B"),
             _DIFF_STAGE + "X -> 2X\nY + 2X -> Y + X",
             lambda v, m: abs(float(v[0] - v[1])), "{X}*(1.0 - {Y}*{X})",
             "x* = |a* - b*|", "rho_x >= min{rho_a, rho_b, 1}", rate_y=_DIFF_RATE,
             limit_rate=2),
    GateSpec("rectified_subtraction", ("A", "B"),
             _DIFF_STAGE + "A + Y + X -> A + Y + 2X\nB + Y + X -> B + Y\nY + 2X -> Y + X",
             lambda v, m: max(float(v[0] - v[1]), 0.0), "{X}*{Y}*(({A} - {B}) - {X})",
             "x* = max(a* - b*, 0)  (Y diverges when a* = b*)",
             "rho_x >= min{rho_a, rho_b, 1}", rate_y=_DIFF_RATE, limit_rate=2),
    GateSpec("partial_real_inversion", ("A_p", "A_n"),
             "Y -> 2Y\nA_p + 2Y -> A_p + Y\nA_n + 2Y -> A_n + Y\n"
             "A_p + Y + X -> A_p + Y + 2X\nA_n + Y + X -> A_n + Y\n"
             "2A_p + Y + 2X -> 2A_p + Y + X",
             _partial_inverse, "{X}*{Y}*({A_p} - {A_n} - {A_p}*{A_p}*{X})",
             "x* = 1/a_p* if a_p* > 0 else 0  (canonical pair)",
             "rho_x >= min{rho_ap, rho_an, 1}",
             rate_y="{Y}*(1.0 - ({A_p} + {A_n})*{Y})"),
)}


def _pattern(bound: Sequence, kind: GateKind) -> tuple[int, ...]:
    """The sharing pattern of the values bound to a gate's roles, equal
    values standing for one species; a gate without Y binds none to it."""
    return (*map(bound.index, bound), *range(len(bound), len(GATES[kind.tag].roles)))


@lru_cache(maxsize=None)
def _template(kind: GateKind, pattern: tuple[int, ...]) -> tuple[Reaction, ...]:
    """The gate's reactions with its roles (inputs, X, Y) merged by
    `pattern` and written as str.format fields.

    pattern[i] is the index of the first role bound to the same species as
    role i, and role i is written {pattern[i]}, so `a*a` gives
    multiplication (0, 0, 2, 3) and A + B -> A + B + X becomes
    2{0} -> 2{0} + {2}.  Merged roles add their counts and the result goes
    through the checking constructors once per pattern: the stoichiometry
    cap, the rate's sign and reactant != product.
    """
    spec = GATES[kind.tag]
    text = spec.reactions
    if kind.m is not None:
        text = text.format(m=kind.m, m1=kind.m + 1)
    slot = {role: f"{{{i}}}" for role, i in zip(spec.roles, pattern)}

    def merged(c: Complex) -> Complex:
        counts: dict[str, int] = {}
        for sid, n in c.coeffs:
            counts[slot[sid]] = counts.get(slot[sid], 0) + n
        return Complex.make(counts)

    return tuple(Reaction(merged(r.reactant), merged(r.product), r.rate)
                 for r in parse_network(text).reactions)


@lru_cache(maxsize=None)
def _line_format(kind: GateKind, ranks: tuple[int, ...]) -> str:
    """The gate's reactions as program text, with str.format fields {i}
    for the species bound to its roles (inputs, X, Y).

    ranks[i] is the place of role i's species among the gate's distinct
    species in network order, so equal ranks are one species, and the
    ranks fix both the sharing pattern and format_network's order of each
    complex.
    """
    order = {f"{{{i}}}": rank for i, rank in enumerate(ranks)}
    return "\n".join(_format_reaction(r, order)
                     for r in _template(kind, _pattern(ranks, kind)))


def make_gate(kind: GateKind, inputs: Sequence[Species], namer: SpeciesNamer) -> GateInstance:
    """Instantiate a gate fragment on the given input species: fresh
    output and inner species; its reactions are built only when read."""
    spec = GATES[kind.tag]
    if len(inputs) != spec.arity:
        raise ValueError(f"{kind} takes {spec.arity} inputs, got {len(inputs)}")
    xid, yid = namer.gate_pair()
    intermediates = (Species(yid, "intermediate"),) if spec.has_y else ()
    pos = tuple(s.id for s in intermediates) + (xid,) if spec.starts_positive else ()
    return GateInstance(kind, tuple(inputs), Species(xid, "output"), intermediates, pos)


def gate_text(g: GateInstance, order: Mapping[str, int]) -> str:
    """The gate's reactions as format_network writes them in a network
    whose species positions `order` gives, without building them: its
    cached _line_format with the gate's species filled in."""
    bound = [s.id for s in g.species]
    places = [order[sid] for sid in bound]
    distinct = sorted(set(places))
    return _line_format(g.kind, tuple(map(distinct.index, places))).format(*bound)


def factored_rates(g: GateInstance, name: Callable[[str], str]) -> list[tuple[str, str]]:
    """(species id, rate law) for the species the gate drives, in the
    factored form of its GateSpec, each species written as name(id)."""
    spec = GATES[g.kind.tag]
    names = {role: name(s.id) for role, s in zip(spec.inputs, g.inputs)}
    names["X"] = name(g.output.id)
    if not spec.has_y:
        return [(g.output.id, spec.rate_x.format_map(names))]
    y = g.intermediates[0].id
    names["Y"] = name(y)
    names["Ym"] = "*".join([names["Y"]] * (g.kind.m or 1))
    return [(y, spec.rate_y.format_map(names)), (g.output.id, spec.rate_x.format_map(names))]


def gate_fragment_network(g: GateInstance) -> ReactionNetwork:
    """Standalone network for one gate, inputs declared with input role."""
    species = [Species(s.id, "input") for s in g.inputs] + [g.output, *g.intermediates]
    return collect_network(g.reactions, {s.id: s.role for s in species},
                           [s.id for s in species])


def gate_target(kind: GateKind, values: Sequence[float]) -> float:
    """Steady output value for the given input limits."""
    spec = GATES[kind.tag]
    if len(values) != spec.arity:
        raise ValueError(f"{kind} takes {spec.arity} inputs")
    for v in values:
        if v < 0:
            raise DomainError(f"{kind} input limits must be non-negative, got {v}")
    return spec.target(values, kind.m)


def gate_limit_rate(kind: GateKind) -> int:
    """Spectral radius of the gate's own Jacobian block at its limit: the
    inner Y of the subtraction gates has slope -2 there, the Y of an m-th
    root -m and every other X or Y row -1.  Lowering is feed-forward, so a circuit's
    Jacobian is lower-triangular in species order and these are its
    eigenvalues."""
    return GATES[kind.tag].limit_rate * (kind.m or 1)


def gate_speed_bound(kind: GateKind, input_bounds: Sequence,
                     input_limits: Sequence[float]) -> SpeedBound:
    """Per-gate rate bound, selecting the min-expression case from the
    input limits.  Input rates may be math.inf for constant inputs."""
    rates = [b.value if isinstance(b, SpeedBound) else float(b) for b in input_bounds]
    for r in rates:
        if r <= 0:
            raise ValueError("input rates must be positive")
    gate_target(kind, input_limits)  # reuse the domain checks
    return GATES[kind.tag].speed(rates, input_limits, kind.m)


# ---------------------------------------------------------------------------
# catalogue


def catalogue() -> str:
    """Human-readable listing of every gate: reactions, ODE, target, speed."""
    from .crn import derive_ode, format_network, format_polynomial

    sections = []
    for spec in GATES.values():
        kind = GateKind(spec.tag, 2 if spec.takes_m else None)
        g = make_gate(kind, [Species(sid, "input") for sid in spec.inputs], SpeciesNamer())
        net = gate_fragment_network(g)
        ode = derive_ode(net)
        lines = [f"## {spec.tag}" + (" (shown for m=2)" if spec.takes_m else "")]
        for s in (g.output,) + g.intermediates:
            lines.append(f"# ode: {s.id.lower()}' = {format_polynomial(ode, s.id)}")
        lines.append(f"# target: {spec.shows_target}")
        lines.append(f"# speed: {spec.shows_speed}")
        if g.positive_init:
            lines.append(f"# init+ : {', '.join(g.positive_init)}")
        lines.append(format_network(net).rstrip("\n"))
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"
