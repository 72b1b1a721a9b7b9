import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fibra
from fibra import (
    ControlSignature,
    EvaluationFault,
    ExprSyntaxError,
    RawControl,
    R1,
    R2,
    S1,
    SignatureMismatch,
    check_invariance,
    evaluate,
    euclidean,
    parse,
    parse_control,
    unparse,
)
from fibra.expr_dsl import (
    MAX_INT_DIGITS,
    Aggregate, BinOp, Call, ControlExpr, InputRef, Neg, Num, Pow, RootRef, _Token, _tokenize, compile_control,
)
from fibra import fixtures

from util import ast_positions, reference_parse_control, reference_tokenize


SIG_KURAMOTO = ControlSignature(S1, (S1, S1))
SIG_R2 = ControlSignature(R2, ())
SIG_MEAN = ControlSignature(R1, (R1, R1))


def test_parse_kuramoto_term():
    expr = parse("sum(u in inputs[S1]) { sin(u[0] - x[0]) }", SIG_KURAMOTO)
    assert isinstance(expr, Aggregate)
    assert expr.op == "sum" and expr.group == "S1"


def test_parse_rejects_wrong_group_name():
    with pytest.raises(ExprSyntaxError, match="type name mismatch"):
        parse("sum(u in inputs[R1]) { sin(u[0] - x[0]) }", SIG_KURAMOTO)


def test_parse_constant_in_inputs_field():
    expr = parse("x[0] - x[1]", SIG_R2)
    assert expr == BinOp("-", RootRef(0), RootRef(1))


def test_parse_rejects_bare_input_reference():
    with pytest.raises(ExprSyntaxError, match="input reference outside aggregator"):
        parse("u[0]", SIG_MEAN)


def test_parse_rejects_out_of_range_indices():
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse("x[2]", SIG_R2)
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse("sum(u in inputs[R1]) { u[1] }", SIG_MEAN)


def test_parse_error_positions():
    with pytest.raises(ExprSyntaxError, match="line 1, column 8"):
        parse("x[0] + @", SIG_R2)
    with pytest.raises(ExprSyntaxError, match="line 2, column 1"):
        parse("x[0] +\n)", SIG_R2)


@pytest.mark.parametrize(
    "src, message",
    [
        ("sum(u", "line 1, column 6: expected 'in', found 'end of input'"),
        ("sum(u in", "line 1, column 9: expected 'inputs', found 'end of input'"),
        ("sum(u on inputs[R1]) { u[0] }", "line 1, column 7: expected 'in', found 'on'"),
        ("sum(u in inptus[R1]) { u[0] }", "line 1, column 10: expected 'inputs', found 'inptus'"),
    ],
)
def test_parse_aggregator_keywords(src, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src, SIG_MEAN)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "src, message",
    [
        ("x[-1]", "line 1, column 3: index must be a non-negative integer"),
        ("sum(x in inputs[R1]) { x[0] }", "line 1, column 5: expected a fresh aggregator variable name"),
        ("sum(u in inputs[+]) { u[0] }", "line 1, column 17: expected an input type name"),
        ("1.2.3", "line 1, column 1: bad number literal '1.2.3'"),
    ],
)
def test_parse_rejects_malformed_source(src, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src, SIG_MEAN)
    assert str(exc.value) == message


def _scan(tokenize, src):
    """The tokens as (kind, text, pos) triples, or the ExprSyntaxError message."""
    try:
        tokens = tokenize(src)
    except ExprSyntaxError as exc:
        return str(exc)
    if tokenize is _tokenize:
        assert all(type(t) is _Token for t in tokens)
    return [tuple(t) for t in tokens]


ASCII_PIECES = list("0123456789.eE+-*/^()[]{}xu_ \t\r\n@#,;~\\\x00\x7f") + [
    ".5", "3.", "1e5", "2.5e-3", "4E+2", "1e", "1e+", "7e-x", "1..2", "sum", "in", "inputs", "sin", "x_0", "\r\n",
]


@given(st.one_of(st.text(st.characters(max_codepoint=127)), st.lists(st.sampled_from(ASCII_PIECES)).map("".join)))
def test_tokenize_matches_the_character_loop_on_ascii(src):
    assert _scan(_tokenize, src) == _scan(reference_tokenize, src)


@pytest.mark.parametrize("src", ["", " ", "\n", "x[0]\n", "x[0] \t\r", " \n ", "x[0]\n\n", "1 @\n", "\n  2e"])
def test_tokenize_matches_the_character_loop_at_blanks_and_line_ends(src):
    assert _scan(_tokenize, src) == _scan(reference_tokenize, src)


@given(st.text())
def test_tokenize_reads_ascii_tokens_only(src):
    # the scan agrees with the loop up to the first non-ASCII character, which it reports as unexpected
    # where the loop may read it as part of a number or a name
    k = next((i for i, c in enumerate(src) if not c.isascii()), len(src))
    expected = _scan(reference_tokenize, src[:k])
    if k < len(src) and not isinstance(expected, str):
        line, col = expected[-1][2]
        expected = f"line {line}, column {col}: unexpected character {src[k]!r}"
    assert _scan(_tokenize, src) == expected


@pytest.mark.parametrize(
    "src, message",
    [
        ("x[0] * 2\u00b2", "line 1, column 9: unexpected character '\u00b2'"),
        ("\u00bd", "line 1, column 1: unexpected character '\u00bd'"),
        ("x[\u0663]", "line 1, column 3: unexpected character '\u0663'"),
        ("sum(\u00e9 in inputs[R1]) { \u00e9[0] }", "line 1, column 5: unexpected character '\u00e9'"),
    ],
)
def test_parse_rejects_non_ascii_names_and_digits(src, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src, SIG_MEAN)
    assert str(exc.value) == message


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ExprSyntaxError, match="trailing"):
        parse("x[0] x[1]", SIG_R2)


@pytest.mark.parametrize(
    "src",
    [
        "(" * 5000 + "x[0]" + ")" * 5000,
        "sin(" * 5000 + "x[0]" + ")" * 5000,
        "-" * 5000 + "x[0]",
        " + ".join(["x[0]"] * 5000),
        "(" * 100 + "x[0]" + ")" * 100,
        " * ".join(["x[0]"] * 101),
    ],
    ids=["parens", "calls", "negations", "sum-chain", "parens-101", "product-chain-101"],
)
def test_parse_rejects_deep_nesting(src):
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels"):
        parse(src, SIG_R2)


def test_parse_accepts_nesting_up_to_the_limit():
    deep = parse("(" * 99 + "x[0]" + ")" * 99, SIG_R2)
    assert deep == RootRef(0)
    chain = parse_control(" - ".join(["x[0]"] * 100), ControlSignature(R1, ()))
    assert evaluate(chain, np.array([1.0]), [])[0] == -98.0
    assert parse(unparse(chain.components[0]), ControlSignature(R1, ())) == chain.components[0]


def test_control_built_in_code_is_height_checked():
    chain = RootRef(0)
    for _ in range(5000):
        chain = Neg(chain)
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels"):
        ControlExpr(ControlSignature(R1, ()), (chain,))
    ok = RootRef(0)
    for _ in range(99):
        ok = Neg(ok)
    assert evaluate(ControlExpr(ControlSignature(R1, ()), (ok,)), np.array([2.0]), [])[0] == -2.0


def test_parse_control_checks_each_component_height_once(monkeypatch):
    checked = []
    check = fibra.expr_dsl._check_height
    monkeypatch.setattr(fibra.expr_dsl, "_check_height", lambda e: checked.append(e) or check(e))
    ctrl = parse_control(["x[0] + x[1]", "x[1]"], SIG_R2)
    assert len(checked) == 2 and all(a is b for a, b in zip(checked, ctrl.components))
    tall = " * ".join(["x[0]"] * 101)
    with pytest.raises(ExprSyntaxError) as from_control:
        parse_control(["x[1]", tall], SIG_R2)
    with pytest.raises(ExprSyntaxError) as from_parse:
        parse(tall, SIG_R2)
    assert str(from_control.value) == str(from_parse.value)
    assert from_control.value.pos == from_parse.value.pos == (1, 8)


def _sum_nest(depth):
    vars_ = [f"u{i}" for i in range(depth)]
    body = " * ".join(f"{v}[0]" for v in vars_)
    return "".join(f"sum({v} in inputs[R1]) {{ " for v in vars_) + body + " }" * depth


def test_parse_bounds_runs_of_an_aggregator_nest():
    assert fibra.expr_dsl.MAX_BODY_RUNS == 10**6
    two = ControlSignature(R1, (R1, R1))
    ctrl = parse_control(_sum_nest(19), two)  # 2^19 = 524288 body runs per call
    assert len(ctrl.components) == 1
    with pytest.raises(ExprSyntaxError, match="would run 1048576 times per call, more than 1000000"):
        parse(_sum_nest(20), two)
    with pytest.raises(ExprSyntaxError, match="times per call"):
        parse(_sum_nest(99), two)
    # the count is the product along one nest; sibling aggregators do not multiply
    wide = ControlSignature(R1, (R1,) * 1000)
    siblings = " + ".join(["sum(u in inputs[R1]) { sum(v in inputs[R1]) { u[0] * v[0] } }"] * 3)
    parse(siblings, wide)
    with pytest.raises(ExprSyntaxError, match="would run 1000000000 times"):
        parse(_sum_nest(3), wide)


def test_parse_integer_power_only():
    expr = parse("x[0]^3", SIG_R2)
    assert expr == Pow(RootRef(0), 3)
    with pytest.raises(ExprSyntaxError, match="integer"):
        parse("x[0]^x[1]", SIG_R2)
    with pytest.raises(ExprSyntaxError, match="integer"):
        parse("x[0]^2.5", SIG_R2)


# more digits than MAX_INT_DIGITS: 400 digits overflow a float, 5000 more than int() reads by default
TOO_LONG = {
    "exponent": ("x[0]^" + "9" * 5000, "line 1, column 6: exponent has too many digits"),
    "exponent-beyond-floats": ("x[0]^" + "9" * 400, "line 1, column 6: exponent has too many digits"),
    "exponent-of-16-digits": ("x[0]^" + "9" * 16, "line 1, column 6: exponent has too many digits"),
    "negative-exponent": ("x[0]^-" + "9" * 5000, "line 1, column 7: exponent has too many digits"),
    "root-index": ("x[" + "0" * 5000 + "]", "line 1, column 3: index has too many digits"),
    "input-index": ("sum(u in inputs[R1]) { u[" + "0" * 5000 + "] }", "line 1, column 26: index has too many digits"),
}


@pytest.mark.parametrize("case", sorted(TOO_LONG))
def test_parse_refuses_an_integer_too_long_to_read(case):
    src, message = TOO_LONG[case]
    with pytest.raises(ExprSyntaxError) as exc:
        parse_control([src], SIG_MEAN)
    assert str(exc.value) == message


def test_parse_reads_an_integer_of_the_most_digits():
    assert parse("x[0]^-" + "9" * MAX_INT_DIGITS, SIG_R2) == Pow(RootRef(0), -(10**MAX_INT_DIGITS - 1))
    assert parse("x[" + "0" * MAX_INT_DIGITS + "]", SIG_R2) == RootRef(0)


def test_parse_precedence():
    assert parse("1 + 2 * 3", SIG_R2) == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))
    assert parse("-x[0]^2", SIG_R2) == Neg(Pow(RootRef(0), 2))
    assert parse("(1 + x[0]) * 2", SIG_R2) == BinOp("*", BinOp("+", Num(1.0), RootRef(0)), Num(2.0))


HAND_BUILT_FAULTS = {
    "input-reference-outside-an-aggregator": (
        lambda: compile_control(ControlExpr(SIG_MEAN, (InputRef("u", 0),)), [2]),
        SignatureMismatch, "u[0] outside an aggregator over 'u' at line 1, column 1",
    ),
    "aggregate-over-a-missing-group": (
        lambda: compile_control(ControlExpr(SIG_MEAN, (Aggregate("sum", "u", "R2", InputRef("u", 0)),)), [2]),
        SignatureMismatch, "no input group 'R2' in the signature at line 1, column 1",
    ),
    "component-not-an-expression": (
        lambda: compile_control(ControlExpr(SIG_MEAN, (5,)), [2]), TypeError, "not an expression node: 5",
    ),
    "unparse-of-a-non-expression": (lambda: unparse(5), TypeError, "not an expression node: 5"),
    "no-input-count-for-a-group": (
        lambda: compile_control(ControlExpr(SIG_MEAN, (RootRef(0),)), []),
        SignatureMismatch, "0 input counts for the 1 groups of the signature",
    ),
    "an-input-count-past-the-groups": (
        lambda: compile_control(ControlExpr(SIG_MEAN, (RootRef(0),)), [2, 1]),
        SignatureMismatch, "2 input counts for the 1 groups of the signature",
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT_FAULTS))
def test_hand_built_expression_faults(case):
    call, exc, message = HAND_BUILT_FAULTS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_control_component_count_enforced():
    with pytest.raises(SignatureMismatch):
        parse_control(["x[0]"], SIG_R2)  # root dim 2 needs 2 components
    ctrl = parse_control(["x[1]", "-x[0]"], SIG_R2)
    assert len(ctrl.components) == 2


def test_evaluate_kuramoto_hand_value():
    ctrl = parse_control(["sum(u in inputs[S1]) { sin(u[0] - x[0]) }"], SIG_KURAMOTO)
    out = evaluate(ctrl, np.array([0.0]), [(S1, np.array([np.pi / 2])), (S1, np.array([np.pi]))])
    assert out.shape == (1,)
    assert out[0] == pytest.approx(1.0, abs=1e-12)  # sin(pi/2) + sin(pi)


def test_evaluate_mean_hand_value():
    ctrl = parse_control(["mean(u in inputs[R1]) { u[0] } - x[0]"], SIG_MEAN)
    out = evaluate(ctrl, np.array([2.0]), [(R1, np.array([1.0])), (R1, np.array([3.0]))])
    assert out[0] == 0.0  # (1 + 3)/2 - 2, exactly


def test_evaluate_empty_aggregates():
    ctrl_sum = parse_control(["sum(u in inputs[R1]) { u[0] }"], SIG_MEAN)
    assert evaluate(ctrl_sum, np.array([0.0]), [])[0] == 0.0
    ctrl_mean = parse_control(["mean(u in inputs[R1]) { u[0] }"], SIG_MEAN)
    with pytest.raises(EvaluationFault, match="mean of empty group"):
        evaluate(ctrl_mean, np.array([0.0]), [])


def test_evaluate_rejects_unknown_input_type():
    ctrl = parse_control(["sum(u in inputs[R1]) { u[0] }"], SIG_MEAN)
    with pytest.raises(SignatureMismatch):
        evaluate(ctrl, np.array([0.0]), [(R2, np.array([1.0, 2.0]))])


def test_evaluate_rejects_wrong_root_dim():
    ctrl = parse_control(["x[0]", "x[1]"], SIG_R2)
    with pytest.raises(SignatureMismatch):
        evaluate(ctrl, np.array([1.0]), [])


def test_evaluate_domain_fault_carries_location():
    ctrl = parse_control(["log(x[0])"], ControlSignature(R1, ()))
    with pytest.raises(EvaluationFault, match="log fault at line 1, column 1"):
        evaluate(ctrl, np.array([-1.0]), [])


def test_evaluate_division_by_zero_faults():
    ctrl = parse_control(["1 / x[0]"], ControlSignature(R1, ()))
    with pytest.raises(EvaluationFault, match="division by zero"):
        evaluate(ctrl, np.array([0.0]), [])


def test_evaluate_is_order_independent_bitwise():
    ctrl = parse_control(["sum(u in inputs[R1]) { exp(u[0]) * sin(u[0]) }"], SIG_MEAN)
    ins = [(R1, np.array([0.3])), (R1, np.array([-1.7]))]
    a = evaluate(ctrl, np.array([0.0]), ins)
    b = evaluate(ctrl, np.array([0.0]), list(reversed(ins)))
    assert a[0] == b[0]  # canonicalized aggregation makes this exact


def test_evaluate_deterministic():
    ctrl = parse_control(["sum(u in inputs[S1]) { sin(u[0] - x[0]) }"], SIG_KURAMOTO)
    args = (np.array([0.4]), [(S1, np.array([1.1])), (S1, np.array([2.2]))])
    assert evaluate(ctrl, *args)[0] == evaluate(ctrl, *args)[0]


def test_nested_aggregators_with_shadowing():
    sig = ControlSignature(R1, (R1, R1))
    src = "sum(u in inputs[R1]) { sum(u in inputs[R1]) { u[0] } + u[0] }"
    ctrl = parse_control([src], sig)
    out = evaluate(ctrl, np.array([0.0]), [(R1, np.array([1.0])), (R1, np.array([10.0]))])
    # inner sum = 11 each time; outer adds u[0]: (11+1) + (11+10)
    assert out[0] == pytest.approx(33.0)


def test_check_invariance_expr_exactly_zero():
    net = fixtures.four_node_multi()
    sig = fibra.signature_at(net, "4")
    ctrl = parse_control(["mean(u in inputs[R1]) { exp(u[0]) } - tanh(x[0])"], sig)
    assert check_invariance(ctrl, "4", net, trials=300, seed=5) == 0.0


def test_check_invariance_detects_asymmetric_raw_control():
    net = fixtures.four_node_multi()
    sig = fibra.signature_at(net, "4")
    first_input = RawControl(sig, lambda x, ins: ins[0][1] - x)
    assert check_invariance(first_input, "4", net, trials=200, seed=1) > 1e-3


def test_check_invariance_symmetric_raw_control_small():
    net = fixtures.four_node_multi()
    sig = fibra.signature_at(net, "2")
    symmetric = RawControl(sig, lambda x, ins: ins[0][1] + ins[1][1] - 2 * x)
    assert check_invariance(symmetric, "2", net, trials=200, seed=2) <= 1e-12


# --- round trip ----------------------------------------------------------------

RT_SIG = ControlSignature(euclidean(2), (euclidean(2), euclidean(2), S1))
RT_GROUPS = {name: dims for name, (dims, _) in RT_SIG.groups().items()}


@st.composite
def ast_exprs(draw, scope=None, depth=3):
    scope = dict(scope or {})
    choices = ["num", "root"]
    if scope:
        choices.append("input")
    if depth > 0:
        choices += ["neg", "bin", "pow", "call", "agg"]
    kind = draw(st.sampled_from(choices))
    if kind == "num":
        return Num(float(draw(st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.25, 10.0, math.inf]))))
    if kind == "root":
        return RootRef(draw(st.integers(0, RT_SIG.root.dim - 1)))
    if kind == "input":
        var = draw(st.sampled_from(sorted(scope)))
        return InputRef(var, draw(st.integers(0, RT_GROUPS[scope[var]] - 1)))
    if kind == "neg":
        return Neg(draw(ast_exprs(scope=scope, depth=depth - 1)))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return BinOp(
            op,
            draw(ast_exprs(scope=scope, depth=depth - 1)),
            draw(ast_exprs(scope=scope, depth=depth - 1)),
        )
    if kind == "pow":
        return Pow(draw(ast_exprs(scope=scope, depth=depth - 1)), draw(st.integers(-3, 5)))
    if kind == "call":
        func = draw(st.sampled_from(["sin", "cos", "exp", "tanh", "abs"]))
        return Call(func, draw(ast_exprs(scope=scope, depth=depth - 1)))
    group = draw(st.sampled_from(sorted(RT_GROUPS)))
    var = draw(st.sampled_from(["u", "v", "w"]))
    inner = dict(scope)
    inner[var] = group
    body = draw(ast_exprs(scope=inner, depth=depth - 1))
    return Aggregate(draw(st.sampled_from(["sum", "mean"])), var, group, body)


@given(ast_exprs())
def test_parse_unparse_roundtrip(expr):
    assert parse(unparse(expr), RT_SIG) == expr


def test_unparse_known_forms():
    assert unparse(parse("x[0] - (x[1] - 1)", SIG_R2)) == "x[0] - (x[1] - 1.0)"
    src = "sum(u in inputs[S1]) { sin(u[0] - x[0]) }"
    assert unparse(parse(src, SIG_KURAMOTO)) == src
    assert unparse(parse("1e-3 + 2E+1 * x[0]", SIG_MEAN)) == "0.001 + 20.0 * x[0]"  # signed exponents


# --- the parser against the one it replaced --------------------------------------


def _parsed(parse_control, sources, signature):
    """The control's ASTs with each node's position, or the type, message and position of the error."""
    try:
        ctrl = parse_control(sources, signature)
    except (ExprSyntaxError, SignatureMismatch) as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return ctrl.components, [ast_positions(c) for c in ctrl.components]


GRAMMAR_PIECES = ASCII_PIECES + [
    "sum(u in inputs[R2]) { ", "mean(v in inputs[S1]) {", "sum(u in inputs[R9]) {", "sum(x in inputs[S1]) {",
    "}", "x[0]", "x[1]", "x[2]", "u[0]", "u[1]", "v[0]", "w[0]", " + ", " * ", " / ", "^2", "^-1", "^x",
    "sin(", "tanh(", "(", ")", "[", "]", "1.5", "\n", "  ",
]
SOURCES = st.one_of(
    st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=12).map("".join),
    ast_exprs().map(unparse),
    st.tuples(st.integers(95, 105), st.sampled_from([" - ", " * ", " ^ "])).map(lambda t: t[1].join(["x[0]"] * t[0])),
    st.integers(97, 102).map(lambda k: "(" * k + "x[1]" + ")" * k),
    st.integers(97, 102).map(lambda k: "-" * k + "x[0]"),
)


@given(st.lists(SOURCES, min_size=1, max_size=3), st.sampled_from([RT_SIG, SIG_MEAN, SIG_KURAMOTO]))
def test_parse_control_matches_the_parser_it_replaced(sources, signature):
    assert _parsed(parse_control, sources, signature) == _parsed(reference_parse_control, sources, signature)


@pytest.mark.parametrize(
    "sources",
    [
        [" + ".join(["x[0]"] * 101), "x[1]"],
        ["x[0] * (" + " - ".join(["x[1]"] * 100) + ")", "x[0]"],
        ["sum(u in inputs[R2]) { " + " * ".join(["u[0]"] * 99) + " } + x[0]", "x[1]"],
        ["sum(u in inputs[R2])\n{ u[0] }", "mean(v in inputs[S1]) { sin(v[0]) } ^ -2"],
        ["sum(u in inputs[R2]) { u[0] }\n  + 1e400", "x[1] @"],
    ],
    ids=["sum-chain", "nested-chain", "aggregated-chain", "lines", "late-fault"],
)
def test_parse_control_matches_the_parser_it_replaced_at_the_limits(sources):
    assert _parsed(parse_control, sources, RT_SIG) == _parsed(reference_parse_control, sources, RT_SIG)
