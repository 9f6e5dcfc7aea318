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
from functools import lru_cache, partial
from typing import Mapping, NamedTuple, Sequence, Union

from .crn import (MAX_STOICH, SPECIES_ID, FormatError, ReactionNetwork, Species,
                  format_fraction, format_network, format_species, parse_network,
                  parse_number)
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
        ref = _INTERNED.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            node.__dict__.update(zip(cls.__dataclass_fields__, fields))
            _INTERNED[key] = weakref.ref(node, partial(_forget, key))
        return node

    def __reduce__(self):  # unpickle through the constructor, so interned too
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


# (class, *fields) -> weak reference to the live node; a node's death
# removes its entry unless a newer node already took the key
_INTERNED: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, ref: weakref.ref):
    if _INTERNED.get(key) is ref:
        del _INTERNED[key]


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
        if type(x) is Var:  # the node classes are final
            names.add(x.name)
        elif type(x) in (Neg, Root):
            todo.append(x.child)
        elif type(x) is not Const:
            todo += (x.left, x.right)
    return names


# ---------------------------------------------------------------------------
# parser

# A number (3, 0.25, 1e-3), a name spelled like a species id, an operator,
# or, in group 4, any other character, which is refused.  The group that
# matched gives the token's kind.
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
                       rf"|({SPECIES_ID})|([-+*/(),])|(\S))")
_TOKEN_KINDS = (None, "num", "ident", "op")
_FUNCTIONS = ("sqrt", "root", "abs", "max", "rsub")
# Parentheses, calls and unary minus nested deeper than this are refused:
# the parser recurses, and each level costs up to five stack frames.
_MAX_NESTING = 100


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Each token's kind (num, ident, op, end), text and position, as three
    lists that end with an end token of text "" at len(text)."""
    kinds, texts, starts = [], [], []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
        kinds.append(_TOKEN_KINDS[group])
        texts.append(m[group])
        starts.append(m.start(group))
    return kinds + ["end"], texts + [""], starts + [len(text)]


class _Parser:
    """Recursive descent over the token lists from token self.i.  Only the
    end token's text is "" and only an operator is spelled like one."""

    def __init__(self, text: str):
        self.kinds, self.texts, self.starts = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.consts: dict[str, Const] = {}  # literal text -> its node

    def expect(self, text: str):
        if (got := self.texts[self.i]) != text:
            raise ParseError(f"expected {text!r}, got {got or 'end of input'!r}",
                             self.starts[self.i])
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        if self.texts[self.i]:
            raise ParseError(f"trailing input {self.texts[self.i]!r}", self.starts[self.i])
        return e

    def expr(self) -> Expr:
        e = self.term()
        texts = self.texts
        while (op := texts[self.i]) in ("+", "-"):
            self.i += 1
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        texts = self.texts
        while (op := texts[self.i]) in ("*", "/"):
            self.i += 1
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        i = self.i
        self.i += 1
        kind, text = self.kinds[i], self.texts[i]
        if kind == "num":
            if (const := self.consts.get(text)) is None:
                try:
                    const = self.consts[text] = Const(parse_number(text))
                except ValueError:
                    raise ParseError("number out of a float's range", self.starts[i]) from None
            return const
        if kind == "ident":
            if text in _FUNCTIONS and self.texts[self.i] == "(":
                return self.nested(i, self.call, i)
            return Var(text)
        if text == "(":
            e = self.nested(i, self.expr)
            self.expect(")")
            return e
        if text == "-":
            inner = self.nested(i, self.factor)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        raise ParseError(f"expected a value, got {text or 'end of input'!r}", self.starts[i])

    def nested(self, at: int, parse, *args) -> Expr:
        """parse(*args), one nesting level below token number at."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels",
                             self.starts[at])
        e = parse(*args)
        self.depth -= 1
        return e

    def call(self, at: int) -> Expr:
        """The call whose function name is token number at."""
        name = self.texts[at]
        self.expect("(")
        if name == "sqrt":
            e = self.expr()
            self.expect(")")
            return Root(2, e)
        if name == "root":
            i = self.i
            self.i += 1
            m = self.texts[i]
            if self.kinds[i] != "num" or not m.isdecimal() or int(m) < 2:
                raise ParseError("root degree must be an integer >= 2", self.starts[i])
            if int(m) >= MAX_STOICH:  # its gate holds m + 1 copies of Y
                raise ParseError(f"root degree must be at most {MAX_STOICH - 1}", self.starts[i])
            self.expect(",")
            e = self.expr()
            self.expect(")")
            return Root(int(m), e)
        if name == "abs":
            e = self.expr()
            self.expect(")")
            if not isinstance(e, Sub):
                raise ParseError("abs takes a difference: abs(e1 - e2)", self.starts[at])
            return AbsDiff(e.left, e.right)
        ctor = Max if name == "max" else RectSub
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


class DualRailWire(NamedTuple):
    p: str  # species ids of the rails
    n: str


Value = Union[str, DualRailWire]  # a species id or a rail pair

# the kinds lowering instantiates, each made and checked once
_IDENT, _INV, _ADD, _MUL, _ABS_DIFF, _RSUB, _PRI = map(GateKind, (
    "identification", "inversion", "addition", "multiplication", "absolute_difference",
    "rectified_subtraction", "partial_real_inversion"))


@lru_cache(maxsize=None)  # one per m in 2..MAX_STOICH - 1; GateKind refuses others
def _root_kind(m: int) -> GateKind:
    return GateKind("mth_root", m)


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
    constants are pinned K{n} species deduplicated by value; both are held.
    """

    def __init__(self, mode: str = "nonneg"):
        if mode not in ("nonneg", "real"):
            raise ValueError(f"mode must be 'nonneg' or 'real', got {mode!r}")
        self.mode = mode
        self.namer = SpeciesNamer()
        self.gates: list[GateInstance] = []
        self.inputs: dict[str, Value] = {}
        self.consts: dict[str, Fraction] = {}
        self._const_cache: dict[Fraction, str] = {}
        self._held: set[str] = set()
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
        Species(base)  # a variable's id comes from outside: check its spelling
        val = base if self.mode == "nonneg" else DualRailWire(base + "_p", base + "_n")
        rails = _rail_ids(val)
        self.namer.reserve(*rails)
        self._held.update(rails)
        self.inputs[name] = val
        return val

    def const_species(self, value: Fraction) -> str:
        if value < 0:
            raise ValueError("const species hold non-negative values")
        if value in self._const_cache:
            return self._const_cache[value]
        sid = self._const_cache[value] = self.namer.fresh("K")
        self._held.add(sid)
        self.consts[sid] = value
        return sid

    def zero_species(self) -> str:
        return self.const_species(Fraction(0))

    def gate(self, kind: GateKind, inputs: Sequence[str]) -> str:
        g = make_gate(kind, inputs, self.namer)
        self.gates.append(g)
        return g.output

    # rail arithmetic (real mode recipes)

    def normalize(self, w: DualRailWire) -> DualRailWire:
        return DualRailWire(self.gate(_RSUB, [w.p, w.n]),
                            self.gate(_RSUB, [w.n, w.p]))

    def neg_wire(self, w: DualRailWire) -> DualRailWire:
        """-(p - n) = n - p: negation swaps the rails and needs no gate."""
        return DualRailWire(w.n, w.p)

    def add_wires(self, a: DualRailWire, b: DualRailWire) -> DualRailWire:
        raw = DualRailWire(self.gate(_ADD, [a.p, b.p]), self.gate(_ADD, [a.n, b.n]))
        return self.normalize(raw)

    def mul_wires(self, a: DualRailWire, b: DualRailWire) -> DualRailWire:
        pp = self.gate(_MUL, [a.p, b.p])
        nn = self.gate(_MUL, [a.n, b.n])
        pn = self.gate(_MUL, [a.p, b.n])
        np_ = self.gate(_MUL, [a.n, b.p])
        return DualRailWire(self.gate(_ADD, [pp, nn]), self.gate(_ADD, [pn, np_]))

    def inv_wire(self, w: DualRailWire) -> DualRailWire:
        return DualRailWire(self.gate(_PRI, [w.p, w.n]),
                            self.gate(_PRI, [w.n, w.p]))

    # lowering

    def lower(self, e: Expr) -> Value:
        # the inputs are lowered first, so no gate is handed one of their ids
        for name in sorted(free_vars(e)):
            self._cse[Var(name)] = self.input_species(name)
        steps = self._lower_nonneg if self.mode == "nonneg" else self._lower_real
        return _fold(e, steps, self._cse)

    # Lowering steps for _fold: each yields the subexpressions it needs, in
    # the order that fixes gate numbering, and returns the node's value.
    # Variables never reach them: lower puts every input in the cache.

    def _lower_nonneg(self, e: Expr):
        if isinstance(e, Const):
            if e.value < 0:
                raise ModeError("negative constant needs real mode")
            return self.const_species(e.value)
        if isinstance(e, (Sub, Neg)):
            raise ModeError("subtraction is not expressible over non-negative "
                            "values; use rsub, abs, or real mode")
        if isinstance(e, Add):
            return self.gate(_ADD, [(yield e.left), (yield e.right)])
        if isinstance(e, Mul):
            return self.gate(_MUL, [(yield e.left), (yield e.right)])
        if isinstance(e, Div):
            inv = self.gate(_INV, [(yield e.right)])
            if isinstance(e.left, Const) and e.left.value == 1:
                return inv
            return self.gate(_MUL, [(yield e.left), inv])
        if isinstance(e, Root):
            return self.gate(_root_kind(e.m), [(yield e.child)])
        if isinstance(e, AbsDiff):
            return self.gate(_ABS_DIFF, [(yield e.left), (yield e.right)])
        if isinstance(e, RectSub):
            return self.gate(_RSUB, [(yield e.left), (yield e.right)])
        if isinstance(e, Max):
            # max(a,b) = a + rsub(b, a)
            d = yield RectSub(e.right, e.left)
            return self.gate(_ADD, [(yield e.left), d])
        raise AssertionError(e)  # pragma: no cover

    def _lower_real(self, e: Expr):
        if isinstance(e, Const):
            if e.value >= 0:
                return DualRailWire(self.const_species(e.value), self.zero_species())
            return DualRailWire(self.zero_species(), self.const_species(-e.value))
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
            if isinstance(e.left, Const) and e.left.value == 1:
                return inv
            return self.mul_wires((yield e.left), inv)
        raise AssertionError(e)  # pragma: no cover

    def finish(self, value: Value) -> Circuit:
        """Close the circuit; inputs and constants at the output are passed
        through identification gates so the output is always computed."""
        rails = [self.gate(_IDENT, [sid]) if sid in self._held else sid
                 for sid in _rail_ids(value)]  # a gate's output, an input or a const
        value = DualRailWire(*rails) if isinstance(value, DualRailWire) else rails[0]
        return Circuit(tuple(self.gates), dict(self.inputs), dict(self.consts), value)


def lower_to_circuit(expr: Expr | str, mode: str = "nonneg") -> Circuit:
    if isinstance(expr, str):
        expr = parse_expression(expr)
    b = CircuitBuilder(mode)
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
    """A program's species (`roles`, id -> role in network order), its
    bindings and, when it was compiled here, its gates, which prediction,
    the right-hand side and the step cap read.  A loaded program is given
    its network and has no gates; its bindings are None when its text has
    no binding line (a bare network, whose point values are initial
    species values).  A compiled one parses its network from its own
    network text the first time `network` is read, so it equals the
    network of the program loaded from its text; compiling, formatting and
    simulating it never need the reactions.
    """

    def __init__(self, roles: Mapping[str, str], bindings: ProgramBindings | None,
                 gates: Sequence[GateInstance] | None = None,
                 network: ReactionNetwork | None = None):
        self.roles = roles
        self.species_ids = tuple(roles)
        self.bindings = bindings
        self.gates = gates
        self._network = network

    @property
    def network(self) -> ReactionNetwork:
        if self._network is None:
            self._network = parse_network(_network_text(self))
        return self._network


def _rail_ids(v: Value) -> tuple[str, ...]:
    return tuple(v) if isinstance(v, DualRailWire) else (v,)


def flatten(circuit: Circuit) -> CompiledProgram:
    """Lay the gate fragments out as one program with stable species
    order: inputs, constants, then per-gate intermediates and outputs."""
    roles = dict.fromkeys([sid for v in circuit.inputs.values() for sid in _rail_ids(v)],
                          "input")
    roles.update(dict.fromkeys(circuit.consts, "input"))
    for g in circuit.gates:
        for sid in g.intermediates:
            roles[sid] = "intermediate"
        roles[g.output] = "output"
    pos = [sid for g in circuit.gates for sid in g.positive_init]
    order = {sid: i for i, sid in enumerate(roles)}
    bindings = ProgramBindings(
        inputs=tuple((name, _rail_ids(v)) for name, v in circuit.inputs.items()),
        consts=tuple((sid, format_fraction(v)) for sid, v in circuit.consts.items()),
        output=_rail_ids(circuit.output),
        positive_init=tuple(sorted(pos, key=order.__getitem__)),
    )
    return CompiledProgram(roles, bindings, circuit.gates)


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
    lines = [format_species(prog.roles.items())]
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
        return CompiledProgram(net.roles, None, network=net)
    if output is None:
        raise FormatError("program text lacks an '# output ->' binding")
    declared = set(net.species_ids)
    for sid in [s for rails in inputs.values() for s in rails] + list(output) + list(init) \
            + list(consts):
        if sid not in declared:
            raise FormatError(f"binding references undeclared species {sid}")
    bindings = ProgramBindings(tuple(inputs.items()), tuple(consts.items()), output, init)
    return CompiledProgram(net.roles, bindings, network=net)


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
        in_lims = [limits[sid] for sid in g.inputs]
        in_bnds = [bounds[sid] for sid in g.inputs]
        try:
            limits[g.output] = gate_target(g.kind, in_lims)
            b = gate_speed_bound(g.kind, in_bnds, in_lims)
        except DomainError as e:
            raise DomainError(f"gate {g.output} ({g.kind}): {e}") from None
        bounds[g.output] = SpeedBound(b.value, f"{g.output}: {b.case}")
    rails = prog.bindings.output
    worst = min((bounds[sid] for sid in rails), key=lambda b: b.value)
    return SpeedAnalysis(limits, bounds, tuple(limits[sid] for sid in rails), worst)
