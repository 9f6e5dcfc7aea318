"""Seeded inputs for each workload and the checks made on their outputs.

The targets the checks compare against come from Python's own arithmetic,
not from the program under test; crncalc is imported only to load and
integrate the program texts that `compile` printed.

A workload is a list of operations (one round).  Every run of a workload
repeats the same round, so the share of failed operations is the same in
every run whatever its length.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

TOLS = ["--t-end", "40", "--rtol", "1e-10", "--atol", "1e-12"]
MAX_FINAL_ERROR = 1e-6
# The paper's input-independent unit bound under the repo's 15% slack.
MIN_RHO = 0.85

# The criterion-3 grid: 5 geometric points over [0.1, 50], endpoints exact.
GRID_AXIS = [0.1] + [0.1 * 500.0 ** (k / 4) for k in (1, 2, 3)] + [50.0]

GRID_EXPRS = {
    "a + b": lambda v: v["a"] + v["b"],
    "a * b": lambda v: v["a"] * v["b"],
    "a / b": lambda v: v["a"] / v["b"],
    "sqrt(1/(a + b))": lambda v: math.sqrt(1.0 / (v["a"] + v["b"])),
    "max(a, b)": lambda v: max(v["a"], v["b"]),
}

REAL_EXPRS = {
    "a - b": lambda v: v["a"] - v["b"],
    "a*b - c": lambda v: v["a"] * v["b"] - v["c"],
    "a/b": lambda v: v["a"] / v["b"],
}

# Expressions whose lowering holds a subtraction gate (abs, rsub or a real
# mode normalising rsub) that sees a zero limit when a == b.  Such a gate's
# inner species grows without bound, so blowup is the expected ending.
TIE_EXPRS = {"max(a, b)", "a - b"}

# a - b ties at a small and a large magnitude: at this commit the small one
# blows up after about 1.3k steps and the large one completes after about
# 22k steps, so every run holds both tie outcomes.
REAL_TIES = [{"a": 0.1, "b": 0.1}, {"a": 50.0, "b": 50.0}]

# a/b points whose zero-target output rail starts exactly at its target and
# never moves more than 5e-3 from it: estimate_rate finds no sample between
# err_floor and err_ceil and raises EstimationError.  Fixed, not seeded, so
# that every run fails on exactly these rows.
REAL_ZERO_RAIL = [{"a": 0.144, "b": -36.15}, {"a": -0.08, "b": -45.0}]
ZERO_RAIL_ERROR = "EstimationError: only 0 samples with error in"

REAL_SEEDED_PRODUCTS = 8
REAL_SEEDED_QUOTIENTS = 8

# Terms per compiled expression, for each mode.  The largest stays below the
# ~330-term sum at which lowering overflows the recursion limit.
COMPILE_SIZES = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 200, 300]
# Programs small enough to integrate in the check: at most this many terms.
CHECK_MAX_TERMS = 8
CHECK_SAMPLE = 3  # per mode
HORIZON_TRIES = 3


@dataclass
class Op:
    """One sweep command (rows = points) or one compile command."""
    argv: list[str]
    expr: str
    mode: str
    points: list[dict] = field(default_factory=list)
    tree: tuple | None = None
    terms: int = 0


def sweep_op(expr: str, mode: str, axes: dict[str, list[float]]) -> Op:
    grid = ";".join(f"{k}=" + ",".join(repr(float(x)) for x in vals)
                    for k, vals in axes.items())
    points = [{}]
    for name, vals in axes.items():
        points = [dict(p, **{name: v}) for p in points for v in vals]
    argv = ["sweep", f"--expr={expr}", "--mode", mode, f"--grid={grid}",
            "--jobs", "1", *TOLS]
    return Op(argv, expr, mode, points)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return round(mag if rng.random() < 0.5 else -mag, 4)


def grid_ops(seed: int) -> list[Op]:
    """Five sweeps over the 5x5 grid; the seed sets only their order."""
    rng = random.Random(seed)
    exprs = list(GRID_EXPRS)
    rng.shuffle(exprs)
    ops = []
    for e in exprs:
        a, b = GRID_AXIS[:], GRID_AXIS[:]
        rng.shuffle(a)
        rng.shuffle(b)
        ops.append(sweep_op(e, "nonneg", {"a": a, "b": b}))
    return ops


def real_ops(seed: int) -> list[Op]:
    """Ties, the fixed zero-rail quotients and seeded signed points.

    Seeded products keep |a*b - c| at least a quarter of the larger of
    |a*b| and |c|, and seeded quotients keep |a/b| >= 0.1, ten times above
    the ratio below which the zero-rail fault appears.
    """
    rng = random.Random(seed)
    ops = [sweep_op("a - b", "real", {k: [v] for k, v in p.items()})
           for p in REAL_TIES]
    ops += [sweep_op("a/b", "real", {k: [v] for k, v in p.items()})
            for p in REAL_ZERO_RAIL]
    n = 0
    while n < REAL_SEEDED_PRODUCTS:
        a, b, c = _signed(rng, 0.3, 4), _signed(rng, 0.3, 4), _signed(rng, 0.2, 10)
        if abs(a * b - c) < 0.25 * max(abs(a * b), abs(c)):
            continue
        ops.append(sweep_op("a*b - c", "real", {"a": [a], "b": [b], "c": [c]}))
        n += 1
    for _ in range(REAL_SEEDED_QUOTIENTS):
        a, b = _signed(rng, 0.5, 5), _signed(rng, 0.2, 5)
        ops.append(sweep_op("a/b", "real", {"a": [a], "b": [b]}))
    return ops


# ---------------------------------------------------------------------------
# expression trees for the compile workload
#
# Nodes are tuples: ("var", name), ("const", text), (op, child...) with op in
# add sub mul div neg sqrt root abs max rsub; root is ("root", m, child).

VARS = "abcdefgh"
NONNEG_CONSTS = ["0.25", "0.5", "1.5", "2", "3", "4"]
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3}


def to_text(node) -> str:
    op = node[0]
    if op == "var" or op == "const":
        return node[1]
    if op == "neg":
        return "-" + _wrap(node[1], 3)
    if op == "sqrt":
        return f"sqrt({to_text(node[1])})"
    if op == "root":
        return f"root({node[1]}, {to_text(node[2])})"
    if op == "abs":
        return f"abs({to_text(node[1])} - {_wrap(node[2], 2)})"
    if op in ("max", "rsub"):
        return f"{op}({to_text(node[1])}, {to_text(node[2])})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    p = _PREC[op]
    return f"{_wrap(node[1], p)} {sym} {_wrap(node[2], p + 1)}"


def _wrap(node, min_prec: int) -> str:
    text = to_text(node)
    return f"({text})" if _PREC.get(node[0], 4) < min_prec else text


def depth(node) -> int:
    kids = [c for c in node[1:] if isinstance(c, tuple)]
    return 1 + max((depth(c) for c in kids), default=0)


def variables(node) -> set[str]:
    if node[0] == "var":
        return {node[1]}
    return set().union(*(variables(c) for c in node[1:] if isinstance(c, tuple)))


def _leaf(rng: random.Random, mode: str):
    if rng.random() < 0.75:
        return ("var", rng.choice(VARS))
    c = ("const", rng.choice(NONNEG_CONSTS))
    return ("neg", c) if mode == "real" and rng.random() < 0.5 else c


def _pair(rng: random.Random, mode: str, first=None):
    """Two different leaves (the first one given or drawn), so that no
    difference in the expression is identically zero."""
    a = first or _leaf(rng, mode)
    b = _leaf(rng, mode)
    while b == a:
        b = _leaf(rng, mode)
    return a, b


def _factor(rng: random.Random, mode: str):
    """A leaf or a small construct from the mode's grammar."""
    leaf = lambda: _leaf(rng, mode)  # noqa: E731
    var = lambda: ("var", rng.choice(VARS))  # noqa: E731
    if mode == "nonneg":
        kind = rng.choice(["leaf", "leaf", "sqrt", "root", "abs", "max",
                           "rsub", "inv", "quot", "sum"])
        if kind == "sqrt":
            return ("sqrt", ("add", leaf(), leaf()))
        if kind == "root":
            return ("root", rng.choice([3, 4]), ("mul", var(), leaf()))
        if kind in ("abs", "max", "rsub"):
            return (kind, *_pair(rng, mode))
        if kind == "inv":
            return ("div", ("const", "1"), var())
        if kind == "quot":
            return ("div", leaf(), ("add", var(), ("const", rng.choice(NONNEG_CONSTS))))
        if kind == "sum":
            return ("add", leaf(), leaf())
        return leaf()
    # Real mode divides only by canonical pairs: inputs and normalised sums.
    kind = rng.choice(["leaf", "leaf", "neg", "diff", "sum", "inv", "quot"])
    if kind == "neg":
        return ("neg", var())
    if kind == "diff":
        return ("sub", *_pair(rng, mode, var()))
    if kind == "sum":
        return ("add", leaf(), leaf())
    if kind == "inv":
        return ("div", ("const", "1"), var())
    if kind == "quot":
        return ("div", leaf(), ("sub", *_pair(rng, mode, var())))
    return leaf()


def make_expression(rng: random.Random, mode: str, terms: int):
    """A sum of `terms` products of 1-3 factors; real mode mixes in minus."""
    def term():
        node = _factor(rng, mode)
        for _ in range(rng.choice([0, 1, 1, 2])):
            node = ("mul", node, _factor(rng, mode))
        return node
    node = term()
    for _ in range(terms - 1):
        op = "sub" if mode == "real" and rng.random() < 0.4 else "add"
        node = (op, node, term())
    return node


def compile_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for mode in ("nonneg", "real"):
        for n in COMPILE_SIZES:
            tree = make_expression(rng, mode, n)
            text = to_text(tree)
            ops.append(Op(["compile", f"--expr={text}", "--mode", mode], text,
                          mode, tree=tree, terms=n))
    return ops


WORKLOADS = {"grid": grid_ops, "real": real_ops, "compile": compile_ops}

WARMUP = {
    "grid": ["sweep", "--expr", "a + b", "--grid", "a=1;b=2", "--jobs", "1", *TOLS],
    "real": ["sweep", "--mode", "real", "--expr", "a - b", "--grid",
             "a=1.5;b=-0.5", "--jobs", "1", *TOLS],
    "compile": ["compile", "--expr", "a*b + c"],
}


# ---------------------------------------------------------------------------
# checks on sweep rows


class CheckError(Exception):
    """An output that is wrong (as opposed to an operation that failed)."""


def _is_tie(expr: str, point: dict) -> bool:
    return expr in TIE_EXPRS and point["a"] == point["b"]


def is_expected_failure(op: Op, point: dict) -> bool:
    return op.expr == "a/b" and op.mode == "real" and point in REAL_ZERO_RAIL


def check_sweep(op: Op, csv_text: str) -> tuple[int, list[str]]:
    """Check every row of one sweep; return (failed rows, notes).

    A row whose status is not ok is a failed operation; its note says
    whether it is the known zero-rail fault on a zero-rail point.  Raises
    CheckError for output that is malformed or claims success but is wrong.
    """
    ref = (GRID_EXPRS if op.mode == "nonneg" else REAL_EXPRS)[op.expr]
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise CheckError(f"{op.expr}: no output")
    header, rows = lines[0].split(","), lines[1:]
    names = sorted(op.points[0])
    want = names + ["target", "final_abs_error", "rho_hat", "r_squared",
                    "termination", "status"]
    if header != want:
        raise CheckError(f"{op.expr}: header {header} != {want}")
    if len(rows) != len(op.points):
        raise CheckError(f"{op.expr}: {len(rows)} rows for {len(op.points)} points")
    failed, notes = 0, []
    for point, line in zip(op.points, rows):
        row = dict(zip(header, line.split(",")))
        where = f"{op.expr} at {point}"
        for k in names:
            if not math.isclose(float(row[k]), point[k], rel_tol=1e-9):
                raise CheckError(f"{where}: input column {k}={row[k]}")
        if row["status"] != "ok":
            failed += 1
            expected = (is_expected_failure(op, point)
                        and row["status"].startswith(ZERO_RAIL_ERROR))
            notes.append(("expected" if expected else "UNEXPECTED")
                         + f" failure {where}: {row['status']}")
            continue
        target = ref(point)
        if not math.isclose(float(row["target"]), target,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise CheckError(f"{where}: target {row['target']} != {target!r}")
        if not float(row["final_abs_error"]) <= MAX_FINAL_ERROR:
            raise CheckError(f"{where}: final error {row['final_abs_error']}")
        if not float(row["rho_hat"]) >= MIN_RHO:
            raise CheckError(f"{where}: rho_hat {row['rho_hat']} < {MIN_RHO}")
        term = row["termination"]
        if term == "blowup" and not _is_tie(op.expr, point):
            raise CheckError(f"{where}: blowup without a zero-limit subtraction")
        if term not in ("completed", "blowup"):
            raise CheckError(f"{where}: termination {term}")
    return failed, notes


# ---------------------------------------------------------------------------
# checks on compiled programs


def _root(m, x):
    return x ** (1.0 / m)


def _rsub(x, y):
    return max(x - y, 0.0)


PY_FUNCS = {"sqrt": math.sqrt, "root": _root, "abs": abs, "max": max,
            "rsub": _rsub, "__builtins__": {}}


def python_value(text: str, inputs: dict) -> float:
    """Python's own evaluation of an expression text (same precedence)."""
    return float(eval(text, dict(PY_FUNCS), dict(inputs)))  # noqa: S307


_OPS = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
        "mul": lambda x, y: x * y, "div": lambda x, y: x / y if y else math.inf,
        "neg": lambda x: -x, "sqrt": math.sqrt, "abs": lambda x, y: abs(x - y),
        "max": max, "rsub": _rsub}


def _node_values(node, inputs: dict, out: list) -> float:
    """Evaluate a tree, appending (op, value, operand values) per node."""
    op = node[0]
    if op == "var":
        return inputs[node[1]]
    if op == "const":
        return float(node[1])
    args = [_node_values(c, inputs, out) for c in node[1:] if isinstance(c, tuple)]
    v = _root(node[1], args[0]) if op == "root" else _OPS[op](*args)
    out.append((op, v, args))
    return v


def well_conditioned(tree, mode: str, inputs: dict) -> bool:
    """True when no gate of the program sits near a degenerate limit:
    differences fed to abs/rsub/max and real-mode sums stay >= 0.1 away
    from zero, denominators >= 0.2, and root arguments >= 0.05."""
    nodes: list = []
    _node_values(tree, inputs, nodes)
    for op, v, args in nodes:
        if op in ("abs", "max", "rsub") and abs(args[0] - args[1]) < 0.1:
            return False
        if op == "div" and abs(args[1]) < 0.2:
            return False
        if op in ("sqrt", "root") and args[0] < 0.05:
            return False
        if mode == "real" and op in ("add", "sub") and abs(v) < 0.1:
            return False
    return True


def draw_inputs(rng: random.Random, tree, mode: str, tries: int = 200) -> dict | None:
    for _ in range(tries):
        if mode == "nonneg":
            vals = {v: round(rng.uniform(0.5, 3.0), 3) for v in sorted(variables(tree))}
        else:
            vals = {v: _signed(rng, 0.5, 3.0) for v in sorted(variables(tree))}
        if well_conditioned(tree, mode, vals):
            return vals
    return None


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def check_program_text(op: Op, text: str):
    """Load the program text back and check its bindings; returns it."""
    from crncalc.circuit import load_program
    from crncalc.crn import FormatError
    try:
        prog = load_program(text)
    except (FormatError, ValueError) as e:
        raise CheckError(f"{op.mode} program of {op.expr[:60]!r} does not load: {e}")
    names = {m.group(0) for m in _IDENT.finditer(op.expr)} - set(PY_FUNCS)
    bound = {name for name, _ in prog.bindings.inputs}
    if bound != names:
        raise CheckError(f"inputs {sorted(bound)} != variables {sorted(names)}")
    rails = 2 if op.mode == "real" else 1
    for name, r in prog.bindings.inputs:
        if len(r) != rails:
            raise CheckError(f"input {name} has {len(r)} rails in {op.mode} mode")
    if len(prog.bindings.output) != rails:
        raise CheckError(f"output has {len(prog.bindings.output)} rails")
    return prog


def check_program_value(op: Op, prog, inputs: dict):
    """Integrate a loaded program and compare its output with Python's
    evaluation of the expression text."""
    from crncalc.simulate import SimConfig, simulate_program
    ref = python_value(op.expr, inputs)
    # A real-mode sum whose partial sums change sign on the way can leave a
    # normalising rsub output near 1e-40, and it takes ~100 time units to
    # grow back; so the horizon grows until the output has converged.
    t_end = 40.0 + 3.0 * depth(op.tree)
    for _ in range(HORIZON_TRIES):
        traj = simulate_program(prog, inputs,
                                SimConfig(t_end=t_end, rel_tol=1e-10, abs_tol=1e-12))
        if traj.termination.status != "completed":
            raise CheckError(f"{op.expr!r} at {inputs}: {traj.termination.status}")
        out = [traj.final(s) for s in prog.bindings.output]
        got = out[0] if len(out) == 1 else out[0] - out[1]
        if abs(got - ref) <= MAX_FINAL_ERROR * max(1.0, abs(ref)):
            return t_end
        t_end *= 4
    raise CheckError(f"{op.expr!r} at {inputs}: output {got!r} != {ref!r} "
                     f"at t={t_end / 4:g}")


def check_programs(ops: list[Op], texts: list[str], seed: int) -> int:
    """Every text must load; a seeded sample of the small ones must
    integrate to Python's value.  Returns how many were integrated."""
    progs = [check_program_text(op, text) for op, text in zip(ops, texts)]
    rng = random.Random(seed + 1_000_003)
    for mode in ("nonneg", "real"):
        pool = [i for i, op in enumerate(ops)
                if op.mode == mode and op.terms <= CHECK_MAX_TERMS]
        picked = 0
        for i in rng.sample(pool, len(pool)):
            inputs = draw_inputs(rng, ops[i].tree, mode)
            if inputs is not None:
                check_program_value(ops[i], progs[i], inputs)
                picked += 1
                if picked == CHECK_SAMPLE:
                    break
        else:
            raise CheckError(f"only {picked} {mode} programs could be integrated")
    return 2 * CHECK_SAMPLE

