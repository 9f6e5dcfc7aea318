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
from typing import Callable, Mapping, NamedTuple, Sequence

from .crn import (MAX_STOICH, Complex, Reaction, ReactionNetwork, _format_reaction,
                  collect_network, format_network, format_polynomial, mass_action,
                  parse_network)


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


class GateInstance(NamedTuple):
    kind: GateKind
    inputs: tuple[str, ...]  # species ids, as are all its other fields
    output: str
    intermediates: tuple[str, ...]
    positive_init: tuple[str, ...]

    @property
    def reactions(self) -> tuple[Reaction, ...]:
        """The gate's reactions, parsed from the program lines gate_text
        writes for it, so they are exactly what its program text says.
        Built on every read: lowering, flattening and formatting never
        read it."""
        species = (*self.inputs, self.output, *self.intermediates)
        return parse_network(gate_text(self, {sid: i for i, sid in enumerate(species)})
                             ).reactions


class SpeciesNamer:
    """Allocates fresh species ids, skipping anything reserved; an id in
    use, reserved or handed out, cannot be reserved."""

    def __init__(self):
        self._used: set[str] = set()
        self._gate = 0
        self._counters: dict[str, int] = {}

    def reserve(self, *ids: str):
        if taken := self._used.intersection(ids):
            raise ValueError(f"species id {min(taken)} is already in use")
        self._used.update(ids)

    def gate_pair(self) -> tuple[str, str]:
        """Next (X{n}, Y{n}) pair; one index per gate."""
        used = self._used
        while True:
            self._gate += 1
            x, y = f"X{self._gate}", f"Y{self._gate}"
            if x not in used and y not in used:
                used.add(x)
                used.add(y)
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
_DIFF_RATE = ("{Y}", "*", "1.0 - ({A} - {B})*({A} - {B})*{Y}*{Y}")


@dataclass(frozen=True)
class GateSpec:
    """One gate, defined once.

    `reactions` is network text over the input names, the output X and
    the inner stage Y ({m} and {m1} stand for m and m + 1).  `rate_x` and
    `rate_y` are the same mass-action law in factored form, over the same
    names in braces ({Ym} is Y to the m), as (left, op, right): the law is
    (left) op (right), op the operation Python applies last, one of + - *.
    They expand to exactly the polynomials of `reactions` but evaluate
    differences like (A - B) before squaring, which keeps the large-Y
    regime free of cancellation.
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
    rate_x: tuple[str, str, str]
    shows_target: str
    shows_speed: str
    rate_y: tuple[str, str, str] | None = None
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


GATES: dict[str, GateSpec] = {spec.tag: spec for spec in (
    GateSpec("identification", ("A",), "A -> A + X\nX -> 0",
             lambda v, m: float(v[0]), ("{A}", "-", "{X}"),
             "x* = a*", "rho_x >= min{rho_a, 1}", starts_positive=False),
    GateSpec("inversion", ("A",), "X -> 2X\nA + 2X -> A + X",
             _inverse, ("{X}", "*", "1.0 - {A}*{X}"),
             "x* = 1/a*  (a* > 0)", "rho_x >= min{rho_a, 1}"),
    GateSpec("mth_root", ("A",),
             "Y -> 2Y\nA + {m1}Y -> A + {m}Y\nX -> 2X\nY + 2X -> Y + X",
             lambda v, m: float(v[0]) ** (1.0 / m), ("{X}", "*", "1.0 - {Y}*{X}"),
             "x* = a*^(1/m)", "rho_x >= min{rho_a, 1}, or min{rho_a/m, 1} when a* = 0",
             rate_y=("{Y}", "*", "1.0 - {A}*{Ym}"), speed=_root_speed, takes_m=True),
    GateSpec("addition", ("A", "B"), "A -> A + X\nB -> B + X\nX -> 0",
             lambda v, m: float(v[0] + v[1]), ("{A} + {B}", "-", "{X}"),
             "x* = a* + b*", "rho_x >= min{rho_a, rho_b, 1}", starts_positive=False),
    GateSpec("multiplication", ("A", "B"), "A + B -> A + B + X\nX -> 0",
             lambda v, m: float(v[0] * v[1]), ("{A}*{B}", "-", "{X}"),
             "x* = a* b*", "rho_x >= min{rho_a, rho_b, 1}; rates add when both limits are 0",
             speed=_product_speed, starts_positive=False),
    GateSpec("absolute_difference", ("A", "B"),
             _DIFF_STAGE + "X -> 2X\nY + 2X -> Y + X",
             lambda v, m: abs(float(v[0] - v[1])), ("{X}", "*", "1.0 - {Y}*{X}"),
             "x* = |a* - b*|", "rho_x >= min{rho_a, rho_b, 1}", rate_y=_DIFF_RATE,
             limit_rate=2),
    GateSpec("rectified_subtraction", ("A", "B"),
             _DIFF_STAGE + "A + Y + X -> A + Y + 2X\nB + Y + X -> B + Y\nY + 2X -> Y + X",
             lambda v, m: max(float(v[0] - v[1]), 0.0), ("{X}*{Y}", "*", "({A} - {B}) - {X}"),
             "x* = max(a* - b*, 0)  (Y diverges when a* = b*)",
             "rho_x >= min{rho_a, rho_b, 1}", rate_y=_DIFF_RATE, limit_rate=2),
    GateSpec("partial_real_inversion", ("A_p", "A_n"),
             "Y -> 2Y\nA_p + 2Y -> A_p + Y\nA_n + 2Y -> A_n + Y\n"
             "A_p + Y + X -> A_p + Y + 2X\nA_n + Y + X -> A_n + Y\n"
             "2A_p + Y + 2X -> 2A_p + Y + X",
             _partial_inverse, ("{X}*{Y}", "*", "{A_p} - {A_n} - {A_p}*{A_p}*{X}"),
             "x* = 1/a_p* if a_p* > 0 else 0  (canonical pair)",
             "rho_x >= min{rho_ap, rho_an, 1}",
             rate_y=("{Y}", "*", "1.0 - ({A_p} + {A_n})*{Y}")),
)}


@lru_cache(maxsize=None)
def _line_writer(tag: str, m: int | None, ranks: tuple[int, ...]) -> Callable[..., str]:
    """The reactions of gate kind (tag, m) as program text, compiled to an
    f-string of the ids bound to its roles (inputs, X, Y), passed in that
    order.  Keyed on plain values, so a hit hashes a str, an int and a
    tuple.

    ranks[i] is the number of roles whose species comes before role i's
    in network order, so equal ranks are one species, and they fix
    format_network's order of each complex.  Role i is written {_j}, j
    the first role bound to its species, so `a*a` writes multiplication's
    A + B -> A + B + X as 2{_0} -> 2{_0} + {_2}: merged roles add their
    counts, and the merged reactions go through the checking constructors
    once per kind and ranks: the stoichiometry cap, the rate's sign and
    reactant != product.
    """
    spec = GATES[tag]
    text = spec.reactions if m is None else spec.reactions.format(m=m, m1=m + 1)
    slot = {role: f"{{_{ranks.index(rank)}}}" for role, rank in zip(spec.roles, ranks)}
    order = {f"{{_{i}}}": rank for i, rank in enumerate(ranks)}

    def merged(c: Complex) -> Complex:
        counts: dict[str, int] = {}
        for sid, n in c.coeffs:
            counts[slot[sid]] = counts.get(slot[sid], 0) + n
        return Complex.make(counts)

    lines = "\n".join(
        _format_reaction(Reaction(merged(r.reactant), merged(r.product), r.rate), order)
        for r in parse_network(text).reactions)
    params = ", ".join(f"_{i}" for i in range(len(ranks)))
    return eval(f"lambda {params}: f{lines!r}")


def make_gate(kind: GateKind, inputs: Sequence[str], namer: SpeciesNamer) -> GateInstance:
    """Instantiate a gate fragment on the given input species ids: fresh
    output and inner species; its reactions are built only when read."""
    spec = GATES[kind.tag]
    if len(inputs) != len(spec.inputs):
        raise ValueError(f"{kind} takes {spec.arity} inputs, got {len(inputs)}")
    xid, yid = namer.gate_pair()
    inner = () if spec.rate_y is None else (yid,)
    return GateInstance(kind, tuple(inputs), xid, inner,
                        (*inner, xid) if spec.starts_positive else ())


def gate_text(g: GateInstance, order: Mapping[str, int]) -> str:
    """The gate's reactions as format_network writes them in a network
    whose species positions `order` gives, without building them: its
    cached _line_writer called on the gate's species."""
    bound = (*g.inputs, g.output, *g.intermediates)
    places = [*map(order.__getitem__, bound)]
    ranks = tuple(map(sorted(places).index, places))
    return _line_writer(g.kind.tag, g.kind.m, ranks)(*bound)


def factored_rates(g: GateInstance, name: Callable[[str], str]
                   ) -> list[tuple[str, tuple[str, str, str]]]:
    """(species id, (left, op, right)) for the species the gate drives, in
    the factored form of its GateSpec, each species written as name(id)."""
    spec = GATES[g.kind.tag]
    names = {role: name(sid) for role, sid in
             zip(spec.roles, (*g.inputs, g.output, *g.intermediates))}
    laws = [(g.output, spec.rate_x)]
    if spec.rate_y is not None:
        names["Ym"] = "*".join([names["Y"]] * (g.kind.m or 1))
        laws.insert(0, (g.intermediates[0], spec.rate_y))
    # op has no braces, so it formats to itself
    return [(sid, tuple(part.format_map(names) for part in law)) for sid, law in laws]


def gate_fragment_network(g: GateInstance) -> ReactionNetwork:
    """Standalone network for one gate, inputs declared with input role."""
    roles = dict.fromkeys(g.inputs, "input")
    roles[g.output] = "output"
    roles.update(dict.fromkeys(g.intermediates, "intermediate"))
    return collect_network(g.reactions, roles, roles)


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
    sections = []
    for spec in GATES.values():
        kind = GateKind(spec.tag, 2 if spec.takes_m else None)
        g = make_gate(kind, spec.inputs, SpeciesNamer())
        net = gate_fragment_network(g)
        ode, ids = mass_action(net), net.species_ids
        lines = [f"## {spec.tag}" + (" (shown for m=2)" if spec.takes_m else "")]
        for sid in (g.output, *g.intermediates):
            lines.append(f"# ode: {sid.lower()}' = "
                         f"{format_polynomial(ode[ids.index(sid)], ids)}")
        lines.append(f"# target: {spec.shows_target}")
        lines.append(f"# speed: {spec.shows_speed}")
        if g.positive_init:
            lines.append(f"# init+ : {', '.join(g.positive_init)}")
        lines.append(format_network(net).rstrip("\n"))
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"
