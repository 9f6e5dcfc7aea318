"""Expressions, their parser, and compilation into reaction networks.

Non-negative mode lowers +, *, /, roots, abs-differences, rectified
subtraction and max directly onto gates.  Real mode represents every
value as a dual-rail pair (u_p, u_n) encoding u_p - u_n and lowers the
field operations +, -, *, / onto rail arithmetic; max, abs, rsub and
roots are rejected there because the gates computing them are only
defined on non-negative quantities.

Compilation is deterministic: same expression and mode, byte-identical
program text.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .crn import (FormatError, ReactionNetwork, Species, format_fraction, format_network,
                  format_species, parse_network, parse_number)
from .gates import (DomainError, GateInstance, GateKind, SpeciesNamer,
                    SpeedBound, gate_speed_bound, gate_target, gate_text, make_gate)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"col {pos + 1}: {message}")
        self.pos = pos


class ModeError(ValueError):
    """Expression uses an operation the selected mode cannot lower."""


# ---------------------------------------------------------------------------
# expression trees


class Expr:
    """An immutable expression node, interned: constructing a node equal to
    a live one returns that node, so equal expressions are one object and
    compare and hash by identity at any depth.  The table holds nodes
    weakly, so dropped expressions leave it."""

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            node = _INTERNED[key] = object.__new__(cls)
            for name, value in zip(cls.__dataclass_fields__, fields):
                object.__setattr__(node, name, value)
        return node

    def __reduce__(self):  # unpickle through the constructor, so interned too
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


_INTERNED: weakref.WeakValueDictionary[tuple, Expr] = weakref.WeakValueDictionary()


def _node(cls):
    # fields are set once, by Expr.__new__: a reused node keeps its values
    return dataclass(frozen=True, eq=False, init=False)(cls)


@_node
class Const(Expr):
    value: Fraction


@_node
class Var(Expr):
    name: str


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Neg(Expr):
    child: Expr


@_node
class Root(Expr):
    m: int
    child: Expr


@_node
class AbsDiff(Expr):
    left: Expr
    right: Expr


@_node
class Max(Expr):
    left: Expr
    right: Expr


@_node
class RectSub(Expr):
    left: Expr
    right: Expr


def _fold(root: Expr, steps, cache: dict):
    """The value of root, computed bottom-up over an explicit stack.

    steps(node) is a generator that yields each child whose value it
    needs, is sent that value back, and returns the node's value.  Nodes
    are visited in the order their parents ask for them, as plain
    recursion would, but at any depth.  Values are memoised in cache.
    """
    if root in cache:
        return cache[root]
    stack = [(root, steps(root))]
    value = None
    while True:
        node, gen = stack[-1]
        try:
            child = gen.send(value)
        except StopIteration as done:
            value = cache[node] = done.value
            stack.pop()
            if not stack:
                return value
            continue
        if child in cache:
            value = cache[child]
        else:
            stack.append((child, steps(child)))
            value = None


def free_vars(e: Expr) -> set[str]:
    names, todo = set(), [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            names.add(x.name)
        elif isinstance(x, (Neg, Root)):
            todo.append(x.child)
        elif not isinstance(x, Const):
            todo += (x.left, x.right)
    return names


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"  # 3, 0.25, 1e-3
                       r"|([A-Za-z_][A-Za-z0-9_]*)|([-+*/(),]))")
_FUNCTIONS = ("sqrt", "root", "abs", "max", "rsub")
# Parentheses, calls and unary minus nested deeper than this are refused:
# the parser recurses, and each level costs up to five stack frames.
_MAX_NESTING = 100


@dataclass(frozen=True)
class _Tok:
    kind: str  # num, ident, op, end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.group(1):
            toks.append(_Tok("num", m.group(1), m.start(1)))
        elif m.group(2):
            toks.append(_Tok("ident", m.group(2), m.start(2)))
        else:
            toks.append(_Tok("op", m.group(3), m.start(3)))
        i = m.end()
    toks.append(_Tok("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.kind == "end" or t.text != text:
            raise ParseError(f"expected {text!r}, got {t.text or 'end of input'!r}", t.pos)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            op = self.next().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().text in ("*", "/") and self.peek().kind == "op":
            op = self.next().text
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            try:
                return Const(parse_number(t.text))
            except ValueError:
                raise ParseError("number out of a float's range", t.pos) from None
        if t.kind == "ident":
            if t.text in _FUNCTIONS and self.peek().text == "(":
                return self.nested(t, self.call, t)
            return Var(t.text)
        if t.text == "(":
            e = self.nested(t, self.expr)
            self.expect(")")
            return e
        if t.text == "-":
            inner = self.nested(t, self.factor)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        raise ParseError(f"expected a value, got {t.text or 'end of input'!r}", t.pos)

    def nested(self, t: _Tok, parse, *args) -> Expr:
        """parse(*args), one nesting level below the token t."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", t.pos)
        e = parse(*args)
        self.depth -= 1
        return e

    def call(self, name: _Tok) -> Expr:
        self.expect("(")
        if name.text == "sqrt":
            e = self.expr()
            self.expect(")")
            return Root(2, e)
        if name.text == "root":
            t = self.next()
            if t.kind != "num" or not t.text.isdecimal() or int(t.text) < 2:
                raise ParseError("root degree must be an integer >= 2", t.pos)
            self.expect(",")
            e = self.expr()
            self.expect(")")
            return Root(int(t.text), e)
        if name.text == "abs":
            e = self.expr()
            self.expect(")")
            if not isinstance(e, Sub):
                raise ParseError("abs takes a difference: abs(e1 - e2)", name.pos)
            return AbsDiff(e.left, e.right)
        ctor = Max if name.text == "max" else RectSub
        a = self.expr()
        self.expect(",")
        b = self.expr()
        self.expect(")")
        return ctor(a, b)


def parse_expression(text: str) -> Expr:
    return _Parser(text).parse()


def eval_expr(e: Expr | str, values: Mapping[str, float]) -> float:
    """Evaluate an expression numerically; the reference its compiled
    network is supposed to converge to."""
    if isinstance(e, str):
        e = parse_expression(e)

    def ev(x: Expr):
        if isinstance(x, Const):
            return float(x.value)
        if isinstance(x, Var):
            if x.name not in values:
                raise ValueError(f"no value for variable {x.name!r}")
            return float(values[x.name])
        if isinstance(x, Neg):
            return -(yield x.child)
        if isinstance(x, Root):
            v = yield x.child
            if v < 0:
                raise DomainError("root of a negative value")
            return v ** (1.0 / x.m)
        l, r = (yield x.left), (yield x.right)
        if isinstance(x, Add):
            return l + r
        if isinstance(x, Sub):
            return l - r
        if isinstance(x, Mul):
            return l * r
        if isinstance(x, Div):
            if r == 0:
                raise DomainError("division by a zero limit")
            return l / r
        if isinstance(x, AbsDiff):
            return abs(l - r)
        if isinstance(x, Max):
            return max(l, r)
        if isinstance(x, RectSub):
            return max(l - r, 0.0)
        raise AssertionError(x)  # pragma: no cover
    return _fold(e, ev, {})


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class DualRailWire:
    p: Species
    n: Species


Value = Union[Species, DualRailWire]


@dataclass
class Circuit:
    gates: tuple[GateInstance, ...]
    inputs: dict[str, Value]
    consts: dict[str, Fraction]  # species id -> pinned value
    output: Value


class CircuitBuilder:
    """Incremental circuit construction; also the lowering backend.

    Gate outputs are X{n} and inner species Y{n}, one index per gate.
    Input species take the uppercased variable name (rails get _p/_n),
    constants are pinned K{n} species deduplicated by value.
    """

    def __init__(self, mode: str = "nonneg"):
        if mode not in ("nonneg", "real"):
            raise ValueError(f"mode must be 'nonneg' or 'real', got {mode!r}")
        self.mode = mode
        self.namer = SpeciesNamer()
        self.gates: list[GateInstance] = []
        self.inputs: dict[str, Value] = {}
        self.consts: dict[str, Fraction] = {}
        self._const_cache: dict[Fraction, Species] = {}
        self._cse: dict[Expr, Value] = {}
        self._bases: dict[str, str] = {}  # input species base -> variable

    def input_species(self, name: str) -> Value:
        if name in self.inputs:
            return self.inputs[name]
        base = name.upper()
        other = self._bases.setdefault(base, name)
        if other != name:
            raise ValueError(f"variables {other!r} and {name!r} differ only in case, "
                             "so their input species would collide")
        if self.mode == "nonneg":
            self.namer.reserve(base)
            val: Value = Species(base, "input")
        else:
            self.namer.reserve(base + "_p", base + "_n")
            val = DualRailWire(Species(base + "_p", "input"),
                               Species(base + "_n", "input"))
        self.inputs[name] = val
        return val

    def const_species(self, value: Fraction) -> Species:
        if value < 0:
            raise ValueError("const species hold non-negative values")
        if value in self._const_cache:
            return self._const_cache[value]
        sid = self.namer.fresh("K")
        sp = Species(sid, "input")
        self._const_cache[value] = sp
        self.consts[sid] = value
        return sp

    def zero_species(self) -> Species:
        return self.const_species(Fraction(0))

    def gate(self, kind: GateKind, inputs: Sequence[Species]) -> Species:
        g = make_gate(kind, inputs, self.namer)
        self.gates.append(g)
        return g.output

    # rail arithmetic (real mode recipes)

    def normalize(self, w: DualRailWire) -> DualRailWire:
        rsub = GateKind("rectified_subtraction")
        return DualRailWire(self.gate(rsub, [w.p, w.n]),
                            self.gate(rsub, [w.n, w.p]))

    def neg_wire(self, w: DualRailWire) -> DualRailWire:
        """-(p - n) = n - p: negation swaps the rails and needs no gate."""
        return DualRailWire(w.n, w.p)

    def add_wires(self, a: DualRailWire, b: DualRailWire) -> DualRailWire:
        add = GateKind("addition")
        raw = DualRailWire(self.gate(add, [a.p, b.p]), self.gate(add, [a.n, b.n]))
        return self.normalize(raw)

    def mul_wires(self, a: DualRailWire, b: DualRailWire) -> DualRailWire:
        mul, add = GateKind("multiplication"), GateKind("addition")
        pp = self.gate(mul, [a.p, b.p])
        nn = self.gate(mul, [a.n, b.n])
        pn = self.gate(mul, [a.p, b.n])
        np_ = self.gate(mul, [a.n, b.p])
        return DualRailWire(self.gate(add, [pp, nn]), self.gate(add, [pn, np_]))

    def inv_wire(self, w: DualRailWire) -> DualRailWire:
        pri = GateKind("partial_real_inversion")
        return DualRailWire(self.gate(pri, [w.p, w.n]),
                            self.gate(pri, [w.n, w.p]))

    # lowering

    def lower(self, e: Expr) -> Value:
        steps = self._lower_nonneg if self.mode == "nonneg" else self._lower_real
        return _fold(e, steps, self._cse)

    # Lowering steps for _fold: each yields the subexpressions it needs, in
    # the order that fixes gate numbering, and returns the node's value.

    def _lower_nonneg(self, e: Expr):
        if isinstance(e, Const):
            if e.value < 0:
                raise ModeError("negative constant needs real mode")
            return self.const_species(e.value)
        if isinstance(e, Var):
            return self.input_species(e.name)
        if isinstance(e, (Sub, Neg)):
            raise ModeError("subtraction is not expressible over non-negative "
                            "values; use rsub, abs, or real mode")
        if isinstance(e, Add):
            return self.gate(GateKind("addition"),
                             [(yield e.left), (yield e.right)])
        if isinstance(e, Mul):
            return self.gate(GateKind("multiplication"),
                             [(yield e.left), (yield e.right)])
        if isinstance(e, Div):
            inv = self.gate(GateKind("inversion"), [(yield e.right)])
            if e.left == Const(Fraction(1)):
                return inv
            return self.gate(GateKind("multiplication"), [(yield e.left), inv])
        if isinstance(e, Root):
            return self.gate(GateKind("mth_root", e.m), [(yield e.child)])
        if isinstance(e, AbsDiff):
            return self.gate(GateKind("absolute_difference"),
                             [(yield e.left), (yield e.right)])
        if isinstance(e, RectSub):
            return self.gate(GateKind("rectified_subtraction"),
                             [(yield e.left), (yield e.right)])
        if isinstance(e, Max):
            # max(a,b) = a + rsub(b, a)
            d = yield RectSub(e.right, e.left)
            return self.gate(GateKind("addition"), [(yield e.left), d])
        raise AssertionError(e)  # pragma: no cover

    def _lower_real(self, e: Expr):
        if isinstance(e, Const):
            if e.value >= 0:
                return DualRailWire(self.const_species(e.value), self.zero_species())
            return DualRailWire(self.zero_species(), self.const_species(-e.value))
        if isinstance(e, Var):
            return self.input_species(e.name)
        if isinstance(e, (Root, AbsDiff, Max, RectSub)):
            raise ModeError(f"{type(e).__name__.lower()} is defined on "
                            "non-negative values only; use nonneg mode")
        if isinstance(e, Neg):
            return self.neg_wire((yield e.child))
        if isinstance(e, Add):
            return self.add_wires((yield e.left), (yield e.right))
        if isinstance(e, Sub):
            return self.add_wires((yield e.left), (yield Neg(e.right)))
        if isinstance(e, Mul):
            return self.mul_wires((yield e.left), (yield e.right))
        if isinstance(e, Div):
            inv = self.inv_wire((yield e.right))
            if e.left == Const(Fraction(1)):
                return inv
            return self.mul_wires((yield e.left), inv)
        raise AssertionError(e)  # pragma: no cover

    def _as_gate_output(self, s: Species) -> Species:
        if any(g.output.id == s.id for g in self.gates):
            return s
        return self.gate(GateKind("identification"), [s])

    def finish(self, value: Value) -> Circuit:
        """Close the circuit; inputs and constants at the output are passed
        through identification gates so the output is always computed."""
        if isinstance(value, DualRailWire):
            value = DualRailWire(self._as_gate_output(value.p),
                                 self._as_gate_output(value.n))
        else:
            value = self._as_gate_output(value)
        return Circuit(tuple(self.gates), dict(self.inputs), dict(self.consts), value)


def lower_to_circuit(expr: Expr | str, mode: str = "nonneg") -> Circuit:
    if isinstance(expr, str):
        expr = parse_expression(expr)
    b = CircuitBuilder(mode)
    # reserve all input ids up front so gate names never collide with them
    for name in sorted(free_vars(expr)):
        b.input_species(name)
    return b.finish(b.lower(expr))


# ---------------------------------------------------------------------------
# flattening to a single network


@dataclass(frozen=True)
class ProgramBindings:
    inputs: tuple[tuple[str, tuple[str, ...]], ...]  # var -> rail species ids
    consts: tuple[tuple[str, str], ...]              # species id -> value text
    output: tuple[str, ...]
    positive_init: tuple[str, ...]

    def input_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.inputs)

    def const_map(self) -> dict[str, Fraction]:
        return {sid: Fraction(v) for sid, v in self.consts}


class CompiledProgram:
    """A program's species in network order, its bindings and, when it was
    compiled here, its gates, which prediction, the right-hand side and
    the step cap read.  A loaded program is given its network and has no
    gates; its bindings are None when its text has no binding line (a
    bare network, whose point values are initial species values).  A
    compiled one parses its network from its own network text the first
    time `network` is read, so it equals the network of the program
    loaded from its text; compiling, formatting and simulating it never
    need the reactions.
    """

    def __init__(self, species: Sequence[Species], bindings: ProgramBindings | None,
                 gates: Sequence[GateInstance] | None = None,
                 network: ReactionNetwork | None = None):
        self.species = tuple(species)
        self.species_ids = tuple(s.id for s in self.species)
        self.bindings = bindings
        self.gates = gates
        self._network = network

    @property
    def network(self) -> ReactionNetwork:
        if self._network is None:
            self._network = parse_network(_network_text(self))
        return self._network


def _rail_ids(v: Value) -> tuple[str, ...]:
    if isinstance(v, DualRailWire):
        return (v.p.id, v.n.id)
    return (v.id,)


def flatten(circuit: Circuit) -> CompiledProgram:
    """Lay the gate fragments out as one program with stable species
    order: inputs, constants, then per-gate intermediates and outputs."""
    species: list[Species] = []
    for v in circuit.inputs.values():
        species.extend([v.p, v.n] if isinstance(v, DualRailWire) else [v])
    for sid in circuit.consts:
        species.append(Species(sid, "input"))
    for g in circuit.gates:
        species.extend(g.intermediates)
        species.append(g.output)
    pos = [sid for g in circuit.gates for sid in g.positive_init]
    order = {s.id: i for i, s in enumerate(species)}
    bindings = ProgramBindings(
        inputs=tuple((name, _rail_ids(v)) for name, v in circuit.inputs.items()),
        consts=tuple((sid, format_fraction(v)) for sid, v in circuit.consts.items()),
        output=_rail_ids(circuit.output),
        positive_init=tuple(sorted(pos, key=order.__getitem__)),
    )
    return CompiledProgram(species, bindings, circuit.gates)


def compile_expression(expr: Expr | str, mode: str = "nonneg") -> CompiledProgram:
    return flatten(lower_to_circuit(expr, mode))


# ---------------------------------------------------------------------------
# program text: bindings header + network


def _network_text(prog: CompiledProgram) -> str:
    """The species header and reactions as format_network writes them; a
    compiled program's reactions come straight from its gates' line
    formats, without building one."""
    if prog.gates is None:
        return format_network(prog.network)
    order = {sid: i for i, sid in enumerate(prog.species_ids)}
    lines = [format_species(prog.species)]
    lines += [gate_text(g, order) for g in prog.gates]
    return "\n".join(lines) + "\n"


def format_program(prog: CompiledProgram) -> str:
    """Bindings header, then the network text."""
    lines = []
    for name, rails in prog.bindings.inputs:
        target = rails[0] if len(rails) == 1 else f"({rails[0]}, {rails[1]})"
        lines.append(f"# input {name} -> {target}")
    for sid, value in prog.bindings.consts:
        lines.append(f"# const {sid} = {value}")
    out = prog.bindings.output
    lines.append("# output -> " + (out[0] if len(out) == 1 else f"({out[0]}, {out[1]})"))
    if prog.bindings.positive_init:
        lines.append("# init+ : " + ", ".join(prog.bindings.positive_init))
    return "\n".join(lines) + "\n" + _network_text(prog)


_RAILS = r"(?:\(\s*(\w+)\s*,\s*(\w+)\s*\)|(\w+))"  # (P, N) or X
_BINDING_RE = re.compile(r"#\s*(input|const|output|init\+)(?!\w)\s*(.*)")
_BINDING_FORMS = {"input": re.compile(rf"(\w+)\s*->\s*{_RAILS}"),
                  "const": re.compile(r"(\w+)\s*=\s*(\S+)"),
                  "output": re.compile(rf"->\s*{_RAILS}"),
                  "init+": re.compile(r":\s*(.*)")}


def load_program(text: str) -> CompiledProgram:
    """Parse program text produced by format_program (or by hand): the
    text of a --crn file.  A `#` line whose first word is `input`,
    `const`, `output` or `init+` is a binding line and must have its form;
    an input name, a const species, the output and init+ are each bound
    once, and so is each species an input rail, const or init+ starts.
    A text without a binding line is a bare network and loads with
    bindings None; one with any must bind an output and declared species."""
    inputs: dict[str, tuple[str, ...]] = {}
    consts: dict[str, str] = {}
    output: tuple[str, ...] | None = None
    init: tuple[str, ...] = ()
    seen: set[tuple[str, ...]] = set()  # (keyword,) or (keyword, name) of each binding
    started: set[str] = set()  # species an input, const or init+ binds
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not (key := _BINDING_RE.match(line)):
            continue
        word, rest = key.groups()
        if not (m := _BINDING_FORMS[word].fullmatch(rest)):
            raise FormatError(f"line {lineno}: bad binding line {line!r}")
        binding = (word, m.group(1)) if word in ("input", "const") else (word,)
        if binding in seen:
            raise FormatError(f"line {lineno}: {' '.join(binding)} bound twice")
        seen.add(binding)
        held: tuple[str, ...] = ()  # the species whose initial value the line sets
        if word == "input":
            held = inputs[m.group(1)] = tuple(filter(None, m.groups()[1:]))
        elif word == "const":
            try:
                parse_number(m.group(2))  # validate
            except ValueError as e:
                raise FormatError(f"line {lineno}: const {m.group(1)}: {e}") from None
            consts[m.group(1)] = m.group(2)
            held = (m.group(1),)
        elif word == "output":
            output = tuple(filter(None, m.groups()))
        else:
            held = init = tuple(s.strip() for s in m.group(1).split(",") if s.strip())
        for sid in held:
            if sid in started:
                raise FormatError(f"line {lineno}: species {sid} bound twice")
            started.add(sid)
    net = parse_network(text)
    if not seen:
        return CompiledProgram(net.species, None, network=net)
    if output is None:
        raise FormatError("program text lacks an '# output ->' binding")
    declared = set(net.species_ids)
    for sid in [s for rails in inputs.values() for s in rails] + list(output) + list(init) \
            + list(consts):
        if sid not in declared:
            raise FormatError(f"binding references undeclared species {sid}")
    bindings = ProgramBindings(tuple(inputs.items()), tuple(consts.items()), output, init)
    return CompiledProgram(net.species, bindings, network=net)


# ---------------------------------------------------------------------------
# speed prediction


@dataclass(frozen=True)
class SpeedAnalysis:
    limits: dict[str, float]         # species id -> steady value
    bounds: dict[str, SpeedBound]    # species id -> rate bound
    output_values: tuple[float, ...]
    bound: SpeedBound

    @property
    def output_value(self) -> float:
        if len(self.output_values) == 1:
            return self.output_values[0]
        return self.output_values[0] - self.output_values[1]


def input_rails(inputs: Mapping[str, tuple[str, ...]],
                values: Mapping[str, float]) -> dict[str, float]:
    """The value of each rail of the inputs (name -> rail ids) at a point
    that gives one number v per input: a one-rail input's v, which must be
    non-negative, or a dual-rail input's (v, 0) or (0, -v).  A missing or
    unknown input raises ValueError, a negative one-rail v DomainError."""
    rails: dict[str, float] = {}
    for name, ids in inputs.items():
        if name not in values:
            raise ValueError(f"missing value for input {name!r}")
        v = float(values[name])
        if v < 0 and len(ids) == 1:
            raise DomainError(f"input {name} must be non-negative in nonneg mode")
        rails.update(zip(ids, (0.0, -v) if v < 0 else (v, 0.0)))  # one rail takes v
    if extra := set(values) - set(inputs):
        raise ValueError(f"unknown inputs {sorted(extra)}")
    return rails


def predict_speed(prog: CompiledProgram, values: Mapping[str, float]) -> SpeedAnalysis:
    """Propagate limits and per-gate rate bounds through the program's
    gates from its bindings.  Raises ValueError for a program without
    gates (loaded text, a bare network), and DomainError, naming the gate,
    if some gate's input limits fall outside its domain (inversion of 0,
    non-canonical inversion pair).
    """
    if prog.gates is None:
        raise ValueError("speed prediction needs a compiled program's gates; "
                         "loaded program text and bare networks have none")
    limits = input_rails(prog.bindings.input_map(), values)
    limits.update((sid, float(val)) for sid, val in prog.bindings.const_map().items())
    bounds = dict.fromkeys(limits, SpeedBound(float("inf"), "held input"))
    for g in prog.gates:
        in_lims = [limits[s.id] for s in g.inputs]
        in_bnds = [bounds[s.id] for s in g.inputs]
        try:
            limits[g.output.id] = gate_target(g.kind, in_lims)
            b = gate_speed_bound(g.kind, in_bnds, in_lims)
        except DomainError as e:
            raise DomainError(f"gate {g.output.id} ({g.kind}): {e}") from None
        bounds[g.output.id] = SpeedBound(b.value, f"{g.output.id}: {b.case}")
    rails = prog.bindings.output
    worst = min((bounds[sid] for sid in rails), key=lambda b: b.value)
    return SpeedAnalysis(limits, bounds, tuple(limits[sid] for sid in rails), worst)
