"""Expression parsing, lowering to gate circuits, flattening, speed analysis."""

import contextlib
import hashlib
import importlib.util
import io
import pickle
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import crncalc.circuit
import crncalc.gates
from crncalc import cli
from crncalc.crn import MAX_STOICH, FormatError, format_network, mass_action
from crncalc.gates import DomainError
from crncalc.circuit import (
    Add,
    CircuitBuilder,
    CompiledProgram,
    Const,
    ModeError,
    Mul,
    Neg,
    ParseError,
    RectSub,
    Root,
    Sub,
    Var,
    compile_expression,
    eval_expr,
    format_program,
    flatten,
    free_vars,
    input_rails,
    load_program,
    lower_to_circuit,
    parse_expression,
    predict_speed,
)

F = Fraction


def shape(circuit):
    return [(g.kind.tag, list(g.inputs), g.output)
            for g in circuit.gates]


# --- parsing ----------------------------------------------------------------

def test_parse_precedence_and_sugar():
    e = parse_expression("a + b * c")
    assert e == Add(Var("a"), Mul(Var("b"), Var("c")))
    assert parse_expression("(a + b) * c") == Mul(Add(Var("a"), Var("b")), Var("c"))
    assert parse_expression("sqrt(a)") == Root(2, Var("a"))
    assert parse_expression("root(5, a)") == Root(5, Var("a"))
    assert parse_expression("0.5") == Const(F(1, 2))
    assert parse_expression("-3") == Const(F(-3))
    assert parse_expression("a - b") == Sub(Var("a"), Var("b"))
    assert free_vars(parse_expression("a*b + sqrt(a)")) == {"a", "b"}


def test_parse_errors_carry_positions():
    cases = [("a+", 2), ("max(a)", 5), ("sqrt(a,b)", 6), ("a b", 2),
             ("2^x", 1), ("((a)", 4), ("foo(a)", 3), ("_a + b", 0), ("a + _b", 4)]
    for src, pos in cases:
        with pytest.raises(ParseError) as exc:
            parse_expression(src)
        assert exc.value.pos == pos, src
        assert f"col {pos + 1}" in str(exc.value)


@pytest.mark.parametrize("src, message", [
    ("2^x", "col 2: unexpected character '^'"),
    ("a + _b", "col 5: unexpected character '_'"),
    ("\u0663+a", "col 1: unexpected character '\u0663'"),  # an Arabic-Indic 3
    ("a b", "col 3: trailing input 'b'"),
    ("a)", "col 2: trailing input ')'"),
    ("foo(a)", "col 4: trailing input '('"),
    ("", "col 1: expected a value, got 'end of input'"),
    ("a +", "col 4: expected a value, got 'end of input'"),
    ("a + *", "col 5: expected a value, got '*'"),
    ("a + ,", "col 5: expected a value, got ','"),
    ("(a", "col 3: expected ')', got 'end of input'"),
    ("sqrt(a,b)", "col 7: expected ')', got ','"),
    ("root(2, a b)", "col 11: expected ')', got 'b'"),
    ("max(a)", "col 6: expected ',', got ')'"),
    ("root(3 a)", "col 8: expected ',', got 'a'"),
    ("1e999", "col 1: number out of a float's range"),
    ("-1e400", "col 2: number out of a float's range"),
    ("root(1, a)", "col 6: root degree must be an integer >= 2"),
    ("root(a, 2)", "col 6: root degree must be an integer >= 2"),
    ("root(", "col 6: root degree must be an integer >= 2"),
    ("root(255, a)", "col 6: root degree must be at most 254"),
    ("abs(a)", "col 1: abs takes a difference: abs(e1 - e2)"),
    ("b * abs(a + b)", "col 5: abs takes a difference: abs(e1 - e2)"),
    ("(" * 101 + "a" + ")" * 101, "col 101: expression nested deeper than 100 levels"),
    ("sqrt(" * 101 + "a" + ")" * 101, "col 501: expression nested deeper than 100 levels"),
    ("-" * 101 + "a", "col 101: expression nested deeper than 100 levels"),
])
def test_parse_error_texts_are_pinned(src, message):
    with pytest.raises(ParseError) as exc:
        parse_expression(src)
    assert str(exc.value) == message


def test_parse_root_degree_validation():
    for src in ["root(1, a)", "root(0.5, a)", "root(a, 2)", "root(255, a)", "root(300, a)"]:
        with pytest.raises(ParseError, match="root degree"):
            parse_expression(src)
    with pytest.raises(ParseError, match=f"col 6: root degree must be at most {MAX_STOICH - 1}"):
        parse_expression("root(300, a)")
    assert "X1 -> 2X1" in format_program(compile_expression("root(254, a)"))


def test_parse_abs_needs_difference():
    with pytest.raises(ParseError, match="difference"):
        parse_expression("abs(a)")
    parse_expression("abs(a - b)")  # fine


def test_eval_expr():
    assert eval_expr("max(2, 3) + rsub(1, 5)", {}) == 3.0
    assert eval_expr("rsub(5, 1)", {}) == 4.0
    assert eval_expr("abs(a - b)", {"a": 1, "b": 5}) == 4.0
    assert eval_expr("root(3, 8)", {}) == pytest.approx(2.0)
    assert eval_expr("sqrt(a) / b", {"a": 9, "b": 6}) == pytest.approx(0.5)
    assert eval_expr("-a + 2", {"a": 0.5}) == 1.5


# --- lowering shapes --------------------------------------------------------

def test_division_lowers_to_two_gates():
    c = lower_to_circuit("a/b")
    assert shape(c) == [("inversion", ["B"], "X1"),
                        ("multiplication", ["A", "X1"], "X2")]


def test_division_lowers_denominator_first():
    # the inversion gate is numbered before the numerator's gates
    c = lower_to_circuit("(a + b)/(c + d)")
    assert shape(c) == [("addition", ["C", "D"], "X1"),
                        ("inversion", ["X1"], "X2"),
                        ("addition", ["A", "B"], "X3"),
                        ("multiplication", ["X3", "X2"], "X4")]


def test_reciprocal_peephole():
    c = lower_to_circuit("1/e")
    assert shape(c) == [("inversion", ["E"], "X1")]


def test_max_lowering():
    # max(a, b) = a + rsub(b, a): two gates, five species, no constant
    c = lower_to_circuit("max(a, b)")
    assert shape(c) == [("rectified_subtraction", ["B", "A"], "X1"),
                        ("addition", ["A", "X1"], "X2")]
    assert c.consts == {}
    assert len(flatten(c).species_ids) == 5


def test_shared_subexpression_lowered_once():
    c = lower_to_circuit("(a + b) * (a + b)")
    assert shape(c) == [("addition", ["A", "B"], "X1"),
                        ("multiplication", ["X1", "X1"], "X2")]


def test_bare_variable_gets_identification():
    c = lower_to_circuit("a")
    assert shape(c) == [("identification", ["A"], "X1")]
    assert c.output == "X1"


def test_real_subtraction_shape():
    c = lower_to_circuit("a - b", mode="real")
    # negation swaps b's rails; it allocates no gate
    assert shape(c) == [("addition", ["A_p", "B_n"], "X1"),
                        ("addition", ["A_n", "B_p"], "X2"),
                        ("rectified_subtraction", ["X1", "X2"], "X3"),
                        ("rectified_subtraction", ["X2", "X1"], "X4")]
    prog = compile_expression("a - b", mode="real")
    assert len(prog.network.reactions) == 20
    assert len(prog.network.species) == 10
    assert prog.bindings.output == ("X3", "X4")
    assert prog.bindings.positive_init == ("Y3", "X3", "Y4", "X4")


def test_real_multiplication_shape():
    c = lower_to_circuit("a * b", mode="real")
    assert shape(c) == [("multiplication", ["A_p", "B_p"], "X1"),
                        ("multiplication", ["A_n", "B_n"], "X2"),
                        ("multiplication", ["A_p", "B_n"], "X3"),
                        ("multiplication", ["A_n", "B_p"], "X4"),
                        ("addition", ["X1", "X2"], "X5"),
                        ("addition", ["X3", "X4"], "X6")]


def test_negative_constant_in_real_mode():
    c = lower_to_circuit("-3", mode="real")
    assert c.consts == {"K1": F(0), "K2": F(3)}
    sa = predict_speed(flatten(c), {})
    assert sa.output_values == (0.0, 3.0)
    assert sa.output_value == -3.0


def test_mode_errors():
    nonneg_bad = ["a - b", "-a", "-3"]
    for src in nonneg_bad:
        with pytest.raises(ModeError):
            lower_to_circuit(src)
    real_bad = ["sqrt(a)", "root(3, a)", "abs(a - b)", "max(a, b)", "rsub(a, b)"]
    for src in real_bad:
        with pytest.raises(ModeError):
            lower_to_circuit(src, mode="real")
    with pytest.raises(ValueError):
        lower_to_circuit("a", mode="complex")


# --- flattening -------------------------------------------------------------

DIVISION_REACTIONS = ["X1 -> 2X1 ; k=1",
                      "B + 2X1 -> B + X1 ; k=1",
                      "A + X1 -> A + X1 + X2 ; k=1",
                      "X2 -> 0 ; k=1"]


def test_flatten_division_network():
    prog = compile_expression("a/b")
    text = format_network(prog.network)
    for line in DIVISION_REACTIONS:
        assert line in text
    assert len(prog.network.reactions) == 4
    assert prog.bindings.inputs == (("a", ("A",)), ("b", ("B",)))
    assert prog.bindings.output == ("X2",)
    assert prog.bindings.positive_init == ("X1",)


def test_flatten_addition_network():
    prog = compile_expression("a + b")
    assert len(prog.network.reactions) == 3
    assert prog.bindings.positive_init == ()


def test_compile_is_deterministic():
    a = format_program(compile_expression("sqrt(abs(a - b)) + a/b"))
    b = format_program(compile_expression("sqrt(abs(a - b)) + a/b"))
    assert a == b


def test_program_text_round_trip():
    prog = compile_expression("sqrt(abs(a - b))")
    text = format_program(prog)
    again = load_program(text)
    assert again.bindings == prog.bindings
    assert format_network(again.network) == format_network(prog.network)
    assert format_program(again) == text


@pytest.mark.parametrize("src,mode", [("a*a", "nonneg"), ("a + a", "nonneg"),
                                      ("rsub(a, a)", "nonneg"), ("max(a, a)", "nonneg"),
                                      ("a*a", "real"), ("a/(a - b)", "real")])
def test_shared_input_programs_round_trip(src, mode):
    # gates fed one species on both inputs come from their own templates
    prog = compile_expression(src, mode)
    text = format_program(prog)
    again = load_program(text)
    assert again.network == prog.network
    assert hash(again.network) == hash(prog.network)
    back = pickle.loads(pickle.dumps(prog))
    assert back.network == prog.network and hash(back.network) == hash(prog.network)
    assert format_program(back) == text


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _compile_ops(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.compile_ops(seed)


def _rendered_from_network(prog):
    """The program text as format_network writes the built network."""
    return format_program(CompiledProgram(prog.roles, prog.bindings,
                                          network=prog.network))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gate_templates_render_the_network(seed):
    # the benchmark's compile expressions, both modes, sums of 1 to 64
    # terms (seed 0 up to 300)
    for op in _compile_ops(seed):
        if op.terms <= 64 or seed == 0:
            prog = compile_expression(op.expr, op.mode)
            assert format_program(prog) == _rendered_from_network(prog), op.expr


@pytest.mark.parametrize("src,mode", [
    ("a*a", "nonneg"), ("a/a", "nonneg"), ("abs(a - a)", "nonneg"),
    ("rsub(a, a)", "nonneg"), ("max(a, a)", "nonneg"), ("root(3, a*a)", "nonneg"),
    ("a - a", "real"), ("a/a", "real"), ("b*a + rsub(b, a) + abs(b - a)", "nonneg"),
    ("b/a - a*b", "real"), ("1/(a - a)", "real")])
def test_every_sharing_pattern_renders_the_network(src, mode):
    prog = compile_expression(src, mode)
    assert format_program(prog) == _rendered_from_network(prog)


# The program text of these expressions, byte for byte.  Between them
# they hold every gate kind, a shared-input template (a*a), consts and a
# repeated subexpression (a*a again).
PINNED_PROGRAMS = {
    ('root(3, a*a)/(b + 2) + abs(a - b) + max(a, a*a)', 'nonneg'): """\
# input a -> A
# input b -> B
# const K1 = 2
# output -> X10
# init+ : X2, Y4, X4, Y6, X6, Y8, X8
species: A[input], B[input], K1[input], X1[output], X2[output], X3[output], Y4[intermediate], X4[output], X5[output], Y6[intermediate], X6[output], X7[output], Y8[intermediate], X8[output], X9[output], X10[output]
B -> B + X1 ; k=1
K1 -> K1 + X1 ; k=1
X1 -> 0 ; k=1
X2 -> 2X2 ; k=1
X1 + 2X2 -> X1 + X2 ; k=1
2A -> 2A + X3 ; k=1
X3 -> 0 ; k=1
Y4 -> 2Y4 ; k=1
X3 + 4Y4 -> X3 + 3Y4 ; k=1
X4 -> 2X4 ; k=1
Y4 + 2X4 -> Y4 + X4 ; k=1
X2 + X4 -> X2 + X4 + X5 ; k=1
X5 -> 0 ; k=1
Y6 -> 2Y6 ; k=1
2A + 3Y6 -> 2A + 2Y6 ; k=1
2B + 3Y6 -> 2B + 2Y6 ; k=1
A + B + 3Y6 -> A + B + 5Y6 ; k=1
X6 -> 2X6 ; k=1
Y6 + 2X6 -> Y6 + X6 ; k=1
X5 -> X5 + X7 ; k=1
X6 -> X6 + X7 ; k=1
X7 -> 0 ; k=1
Y8 -> 2Y8 ; k=1
2X3 + 3Y8 -> 2X3 + 2Y8 ; k=1
2A + 3Y8 -> 2A + 2Y8 ; k=1
A + X3 + 3Y8 -> A + X3 + 5Y8 ; k=1
X3 + Y8 + X8 -> X3 + Y8 + 2X8 ; k=1
A + Y8 + X8 -> A + Y8 ; k=1
Y8 + 2X8 -> Y8 + X8 ; k=1
A -> A + X9 ; k=1
X8 -> X8 + X9 ; k=1
X9 -> 0 ; k=1
X7 -> X7 + X10 ; k=1
X9 -> X9 + X10 ; k=1
X10 -> 0 ; k=1
""",
    ('a', 'nonneg'): """\
# input a -> A
# output -> X1
species: A[input], X1[output]
A -> A + X1 ; k=1
X1 -> 0 ; k=1
""",
    ('1/(b - 1)', 'real'): """\
# input b -> (B_p, B_n)
# const K1 = 1
# const K2 = 0
# output -> (X5, X6)
# init+ : Y3, X3, Y4, X4, Y5, X5, Y6, X6
species: B_p[input], B_n[input], K1[input], K2[input], X1[output], X2[output], Y3[intermediate], X3[output], Y4[intermediate], X4[output], Y5[intermediate], X5[output], Y6[intermediate], X6[output]
B_p -> B_p + X1 ; k=1
K2 -> K2 + X1 ; k=1
X1 -> 0 ; k=1
B_n -> B_n + X2 ; k=1
K1 -> K1 + X2 ; k=1
X2 -> 0 ; k=1
Y3 -> 2Y3 ; k=1
2X1 + 3Y3 -> 2X1 + 2Y3 ; k=1
2X2 + 3Y3 -> 2X2 + 2Y3 ; k=1
X1 + X2 + 3Y3 -> X1 + X2 + 5Y3 ; k=1
X1 + Y3 + X3 -> X1 + Y3 + 2X3 ; k=1
X2 + Y3 + X3 -> X2 + Y3 ; k=1
Y3 + 2X3 -> Y3 + X3 ; k=1
Y4 -> 2Y4 ; k=1
2X2 + 3Y4 -> 2X2 + 2Y4 ; k=1
2X1 + 3Y4 -> 2X1 + 2Y4 ; k=1
X1 + X2 + 3Y4 -> X1 + X2 + 5Y4 ; k=1
X2 + Y4 + X4 -> X2 + Y4 + 2X4 ; k=1
X1 + Y4 + X4 -> X1 + Y4 ; k=1
Y4 + 2X4 -> Y4 + X4 ; k=1
Y5 -> 2Y5 ; k=1
X3 + 2Y5 -> X3 + Y5 ; k=1
X4 + 2Y5 -> X4 + Y5 ; k=1
X3 + Y5 + X5 -> X3 + Y5 + 2X5 ; k=1
X4 + Y5 + X5 -> X4 + Y5 ; k=1
2X3 + Y5 + 2X5 -> 2X3 + Y5 + X5 ; k=1
Y6 -> 2Y6 ; k=1
X4 + 2Y6 -> X4 + Y6 ; k=1
X3 + 2Y6 -> X3 + Y6 ; k=1
X4 + Y6 + X6 -> X4 + Y6 + 2X6 ; k=1
X3 + Y6 + X6 -> X3 + Y6 ; k=1
2X4 + Y6 + 2X6 -> 2X4 + Y6 + X6 ; k=1
""",
    ('-2', 'real'): """\
# const K1 = 0
# const K2 = 2
# output -> (X1, X2)
species: K1[input], K2[input], X1[output], X2[output]
K1 -> K1 + X1 ; k=1
X1 -> 0 ; k=1
K2 -> K2 + X2 ; k=1
X2 -> 0 ; k=1
""",
}


@pytest.mark.parametrize("src,mode", PINNED_PROGRAMS)
def test_program_text_is_pinned(src, mode):
    assert format_program(compile_expression(src, mode)) == PINNED_PROGRAMS[src, mode]


def test_benchmark_program_texts_are_pinned():
    # the 32 texts of the benchmark's seed-0 compile round, up to 300 terms
    digest = hashlib.sha256()
    for op in _compile_ops(0):
        digest.update(format_program(compile_expression(op.expr, op.mode)).encode())
    assert digest.hexdigest() == ("50d6cda5e8ac82e29a263c0ce1ca3a2d"
                                  "40e25ef2d44d7d43edaeb7531690ece1")


@pytest.fixture
def builds(monkeypatch):
    """Records each read of a gate's reactions and each program network
    parsed, but not the cached parses of the gate templates."""
    calls = []
    reactions = crncalc.gates.GateInstance.reactions
    parse = crncalc.circuit.parse_network

    def read(g):
        calls.append(("reactions", g))
        return reactions.fget(g)

    def parsed(text):
        calls.append(("parse_network", text))
        return parse(text)

    monkeypatch.setattr(crncalc.gates.GateInstance, "reactions", property(read))
    monkeypatch.setattr(crncalc.circuit, "parse_network", parsed)
    return calls


def test_compiling_builds_no_reaction(builds):
    for src, mode in [("sqrt(abs(a - b)) + max(a, b)/c", "nonneg"), ("a*b - c/a", "real")]:
        prog = flatten(lower_to_circuit(parse_expression(src), mode))
        text = format_program(prog)
        assert builds == []
        assert len(prog.network.reactions) > 0  # parsed on the first read
        assert [name for name, _ in builds] == ["parse_network"]
        assert text.endswith(builds[0][1])
        assert prog.network is prog.network
        assert len(builds) == 1
        builds.clear()


def test_compile_sweep_and_verify_build_no_reaction(builds):
    for argv in (["compile", "--expr", "a/b + sqrt(a)"],
                 ["sweep", "--expr", "a*b", "--grid", "a=1,2;b=3", "--t-end", "20"],
                 ["verify", "--mode", "real", "--expr", "a*b - c",
                  "--in", "a=1.3,b=-2.1,c=0.7"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert builds == []


def test_load_program_validation():
    prog = compile_expression("a + b")
    text = format_program(prog)
    with pytest.raises(FormatError, match="output"):
        load_program("\n".join(l for l in text.splitlines()
                               if not l.startswith("# output")))
    with pytest.raises(FormatError, match="undeclared"):
        load_program(text.replace("# output -> X1", "# output -> X9"))
    # a line whose first word is a binding keyword is a binding line: it
    # must have its form, and binds its name once
    network = "species: A[input], K1[input], X1\nA -> A + X1 ; k=1\nX1 -> 0 ; k=1\n"
    for header, message in [
            ("# output X1\n", "line 1: bad binding line '# output X1'"),
            ("# input a -> A\n# ouput -> X1\n# output X1\n", "line 3: bad binding line"),
            ("#init+ A\n# output -> X1\n", "line 1: bad binding line '#init+ A'"),
            ("# input a -> A\n# input a -> X1\n# output -> X1\n", "line 2: input a bound twice"),
            ("# const K1 = 1\n# const K1 = 2\n# output -> X1\n", "line 2: const K1 bound twice"),
            ("# output -> X1\n# output -> A\n", "line 2: output bound twice"),
            ("# output -> X1\n# init+ : X1\n# init+ :\n", "line 3: init+ bound twice"),
            ("# const K1 = abc\n# output -> X1\n",
             "line 1: const K1: could not convert string to float: 'abc'")]:
        with pytest.raises(FormatError, match=re.escape(message)):
            load_program(header + network)
    # other words, "outputs" or "inputs:" among them, start plain comments
    bare = load_program("# outputs and inputs: none\n# initial\n" + network)
    assert bare.bindings is None
    # no binding line, a comment or not: a bare network
    bare = load_program("# a comment\n" + "\n".join(l for l in text.splitlines()
                                                     if not l.startswith("# ")))
    assert bare.bindings is None and bare.gates is None
    assert bare.species_ids == prog.species_ids


def test_inputs_stay_constant_in_compiled_networks():
    for src, mode in [("a/b", "nonneg"), ("sqrt(abs(a - b))", "nonneg"),
                      ("max(a, b)", "nonneg"), ("a*b - b", "real")]:
        prog = compile_expression(src, mode)
        f = mass_action(prog.network)
        held = [sid for _, rails in prog.bindings.inputs for sid in rails]
        held += [sid for sid, _ in prog.bindings.consts]
        for sid in held:
            assert f[prog.network.species_ids.index(sid)] == {}, (src, sid)


# --- speed prediction -------------------------------------------------------

def test_predict_speed_plain_addition():
    c = lower_to_circuit("a + b")
    sa = predict_speed(flatten(c), {"a": 1, "b": 2})
    assert sa.bound.value == 1.0
    assert sa.output_value == 3.0


def test_predict_speed_root_of_tie():
    c = lower_to_circuit("sqrt(abs(a - b))")
    sa = predict_speed(flatten(c), {"a": 4, "b": 4})
    assert sa.bound.value == 0.5
    assert sa.output_value == 0.0
    # away from the tie the full unit rate is predicted
    assert predict_speed(flatten(c), {"a": 4, "b": 1}).bound.value == 1.0
    c2 = lower_to_circuit("sqrt(sqrt(abs(a - b)))")
    assert predict_speed(flatten(c2), {"a": 2, "b": 2}).bound.value == 0.25


def test_predict_speed_domain_error_names_gate():
    c = lower_to_circuit("1/a")
    with pytest.raises(DomainError, match="X1"):
        predict_speed(flatten(c), {"a": 0})
    with pytest.raises(ValueError, match="missing value for input 'a'"):
        predict_speed(flatten(c), {})


def test_predict_speed_needs_gates():
    # loaded program text and a bare network carry no gates to predict from
    text = format_program(compile_expression("a + b"))
    bare = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    for prog in (load_program(text), load_program(bare)):
        with pytest.raises(ValueError, match="needs a compiled program's gates"):
            predict_speed(prog, {"a": 1, "b": 2})


def test_predict_speed_real_multiplication():
    c = lower_to_circuit("a * b", mode="real")
    sa = predict_speed(flatten(c), {"a": 2, "b": -3})
    assert sa.output_values == (0.0, 6.0)
    assert sa.output_value == -6.0
    assert sa.bound.value == 1.0


def test_deep_expressions_hash_compare_and_pickle():
    # hashing must not walk the subtree: a chain far deeper than the
    # recursion limit still hashes and works as a dict key
    e = Var("a")
    for i in range(5000):
        e = Add(e, Const(Fraction(i)))
    assert {e: 1}[e] == 1
    assert hash(Add(Var("a"), Var("b"))) == hash(parse_expression("a + b"))
    assert Add(Var("a"), Var("b")) != Sub(Var("a"), Var("b"))
    small = parse_expression("sqrt(a*b + 1/(c + 2)) - rsub(a, 3)")
    back = pickle.loads(pickle.dumps(small))
    assert back == small and hash(back) == hash(small)


def test_deep_expressions_lower_and_evaluate():
    # lowering, free_vars and eval_expr walk an explicit stack, so a
    # left-deep chain far beyond the recursion limit still works
    text = " + ".join(f"a{i}*b{i}" for i in range(5000))
    e = parse_expression(text)
    names = free_vars(e)
    assert len(names) == 10000
    assert eval_expr(e, dict.fromkeys(names, 2.0)) == 20000.0
    # the second parse is the same object, so lowering shares it
    twice = Mul(e, parse_expression(text))
    assert twice.left == twice.right and twice.left is twice.right
    c = lower_to_circuit(twice)
    assert len(c.gates) == 10000
    assert shape(c)[-1] == ("multiplication", ["X9999", "X9999"], "X10000")


def test_equal_expressions_are_one_object():
    text = "sqrt(a*b + 1/(c + 2)) - rsub(a, 3)"
    assert parse_expression(text) is parse_expression(text)
    one = Const(Fraction(1))  # a second construction must not reset its value
    assert Const(1) is one and type(one.value) is Fraction
    assert Add(Var("a"), Var("b")) is not Sub(Var("a"), Var("b"))
    e = parse_expression(text)
    assert pickle.loads(pickle.dumps(e)) is e


@pytest.mark.parametrize("src,mode,cls", [("(a - b) + -b", "real", Neg),
                                          ("max(a, b) + rsub(b, a)", "nonneg", RectSub)])
def test_lowering_reuses_the_parsed_nodes(src, mode, cls):
    # real a - b lowers a + Neg(b), and max(a, b) lowers RectSub(b, a):
    # both are the nodes the parser made for the right-hand operand
    e = parse_expression(src)
    b = CircuitBuilder(mode)
    b.lower(e)
    (built,) = [node for node in b._cse if isinstance(node, cls)]
    assert built is e.right


def test_builder_reserves_every_input_before_lowering():
    # x1's species X1 is reserved before a*b is lowered, so the product
    # takes the next free id instead of sharing X1 with the input
    b = CircuitBuilder()
    c = b.finish(b.lower(parse_expression("a*b + x1")))
    assert shape(c) == [("multiplication", ["A", "B"], "X2"),
                        ("addition", ["X2", "X1"], "X3")]
    assert c.inputs == {"a": "A", "b": "B", "x1": "X1"}
    # a later lowering whose input is named like a handed-out id is refused
    with pytest.raises(ValueError, match="species id X2 is already in use"):
        b.lower(parse_expression("x2 + a"))
    namer = crncalc.gates.SpeciesNamer()
    namer.reserve("A")
    assert namer.gate_pair() == ("X1", "Y1")
    for taken in ("A", "Y1"):
        with pytest.raises(ValueError, match=f"species id {taken} is already in use"):
            namer.reserve("B", taken)
    assert namer.fresh("B") == "B1"  # a refused reserve reserves nothing


def test_dropped_expressions_leave_the_intern_table():
    before = len(crncalc.circuit._INTERNED)
    e = parse_expression(" + ".join(f"a{i}*b{i}" for i in range(5000)))
    assert len(crncalc.circuit._INTERNED) > before + 15000
    del e
    assert len(crncalc.circuit._INTERNED) == before


def test_parser_nesting_limit():
    parse_expression("(" * 100 + "a" + ")" * 100)
    for src in ["(" * 101 + "a" + ")" * 101, "sqrt(" * 101 + "a" + ")" * 101,
                "-" * 101 + "a"]:
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse_expression(src)


def test_encode_dual_rail():
    # a point gives one number per input; a dual-rail input holds a signed
    # value v as (v, 0) or (0, -v)
    rails = {"a": ("A_p", "A_n")}
    assert input_rails(rails, {"a": 2}) == {"A_p": 2.0, "A_n": 0.0}
    assert input_rails(rails, {"a": -3}) == {"A_p": 0.0, "A_n": 3.0}
    assert input_rails(rails, {"a": 0}) == {"A_p": 0.0, "A_n": 0.0}
    assert input_rails({"a": ("A",)}, {"a": 2}) == {"A": 2.0}
    with pytest.raises(DomainError, match="non-negative"):
        input_rails({"a": ("A",)}, {"a": -1})


# --- consistency between evaluation and limit propagation --------------------

vals = st.floats(min_value=0.1, max_value=9.0)


@given(vals, vals)
def test_predicted_limits_match_evaluation(a, b):
    src = "sqrt(abs(a - b)) + a*b + max(a, b)"
    c = lower_to_circuit(src)
    sa = predict_speed(flatten(c), {"a": a, "b": b})
    assert sa.output_value == pytest.approx(eval_expr(src, {"a": a, "b": b}))


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_real_mode_limits_match_evaluation(a, b):
    src = "a*b - b"
    c = lower_to_circuit(src, mode="real")
    sa = predict_speed(flatten(c), {"a": a, "b": b})
    assert sa.output_value == pytest.approx(eval_expr(src, {"a": a, "b": b}), abs=1e-9)


@given(vals, vals)
def test_multiplication_prediction_commutes(a, b):
    left = predict_speed(flatten(lower_to_circuit("a * b", mode="real")), {"a": a, "b": b})
    right = predict_speed(flatten(lower_to_circuit("b * a", mode="real")), {"a": a, "b": b})
    assert left.output_value == pytest.approx(right.output_value)
    assert left.bound.value == right.bound.value
