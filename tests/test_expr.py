"""Coefficient expression language: parsing, precedence, error positions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qft_forge.errors import ExpressionSyntaxError, UndefinedCoefficient, UnknownParameter
from qft_forge.expr import parse_coefficient_expr
from qft_forge.optimizer import filtered_derivative_transform

from scalar_reference import COEFFICIENT_OPERATORS, coefficient_value

PARAMS = ("a", "k", "tau_1")


def ev(text, **env):
    return parse_coefficient_expr(text, PARAMS).evaluate(env)


class TestEvaluation:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2+3*4", 14.0),
            ("2*3^2", 18.0),
            ("2-3*2", -4.0),
            ("(2+3)*4", 20.0),
            ("2^3^2", 512.0),  # right-associative exponent
            ("-3^2", -9.0),  # unary minus binds looser than ^
            ("(-3)^2", 9.0),
            ("2^-1", 0.5),  # signed exponent
            ("12/3/2", 2.0),  # left-associative division
            ("10-4-3", 3.0),
            ("1.5e-3", 0.0015),
            ("2E2", 200.0),
            (".5", 0.5),
            ("  1 + 2\t", 3.0),
        ],
    )
    def test_constant_expressions(self, text, expected):
        assert ev(text) == pytest.approx(expected, rel=1e-15)

    def test_parameters(self):
        assert ev("k*a", a=3.0, k=2.0) == 6.0
        assert ev("a^2 + k/2", a=3.0, k=4.0) == 11.0
        assert ev("tau_1*10", tau_1=0.2) == pytest.approx(2.0)

    def test_environment_coerced_to_float(self):
        assert ev("a+1", a=1) == 2.0

    def test_non_finite_result_rejected(self):
        expr = parse_coefficient_expr("1e308*10", PARAMS)
        with pytest.raises(ValueError):
            expr.evaluate({})

    def test_source_preserved(self):
        expr = parse_coefficient_expr(" k * a ", PARAMS)
        assert expr.source == " k * a "

    def test_names(self):
        assert parse_coefficient_expr("k*a + a^2", PARAMS).names() == {"a", "k"}
        assert parse_coefficient_expr("3.5", PARAMS).names() == set()
        assert parse_coefficient_expr("-(tau_1)", PARAMS).names() == {"tau_1"}


class TestErrors:
    def test_unknown_parameter_carries_name_and_position(self):
        with pytest.raises(UnknownParameter) as exc:
            parse_coefficient_expr("k*b", PARAMS)
        assert exc.value.name == "b"
        assert exc.value.position == 2
        assert "b" in str(exc.value)

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_coefficient_expr("1 & 2", PARAMS)
        assert exc.value.position == 2

    def test_bad_number(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_coefficient_expr("2..3", PARAMS)
        assert exc.value.position == 0
        assert "bad number" in str(exc.value)

    def test_unclosed_parenthesis(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_coefficient_expr("(1+2", PARAMS)

    def test_trailing_tokens(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_coefficient_expr("1+2 3", PARAMS)
        assert exc.value.position == 4

    def test_empty_expression(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_coefficient_expr("", PARAMS)

    def test_dangling_operator(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_coefficient_expr("1+", PARAMS)

    def test_exponent_fragment_is_identifier_glue(self):
        # '1e' with no digits is a number '1' followed by identifier 'e',
        # which is undeclared here.
        with pytest.raises((ExpressionSyntaxError, UnknownParameter)):
            parse_coefficient_expr("1e", PARAMS)


    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("1 & 2", ExpressionSyntaxError, "unexpected character '&' (at position 2)"),
            ("2..3", ExpressionSyntaxError, "bad number '2..3' (at position 0)"),
            ("(1+2", ExpressionSyntaxError, "expected ')' (at position 4)"),
            ("(1 2)", ExpressionSyntaxError, "expected ')' (at position 3)"),
            ("1+2 3", ExpressionSyntaxError, "unexpected '3' (at position 4)"),
            ("", ExpressionSyntaxError, "unexpected end of expression (at position 0)"),
            ("--", ExpressionSyntaxError, "unexpected end of expression (at position 2)"),
            ("2^", ExpressionSyntaxError, "unexpected end of expression (at position 2)"),
            ("a +* k", ExpressionSyntaxError, "unexpected '*' (at position 3)"),
            (")", ExpressionSyntaxError, "unexpected ')' (at position 0)"),
            ("1e", ExpressionSyntaxError, "unexpected 'e' (at position 1)"),
            ("a(", ExpressionSyntaxError, "unexpected '(' (at position 1)"),
            ("k*b", UnknownParameter, "unknown parameter 'b' (at position 2)"),
            # the whole text is tokenized before parsing: a bad character
            # anywhere wins over an earlier syntax error
            ("1 + + 2 $", ExpressionSyntaxError, "unexpected character '$' (at position 8)"),
        ],
    )
    def test_message_table(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_coefficient_expr(text, PARAMS)
        assert type(exc.value) is error
        assert str(exc.value) == message


# grammar levels, loosest first: sum, product, unary minus, power, atom
LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
# the loosest level each operand may have without parentheses: (left, right)
OPERAND_LEVEL = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3)}
NAMES = ("a", "k", "tau_1", "α", "lambda")
NUMBERS = ("0", "1", "2", "10", "0.5", ".5", "3.", "007", "1.5e-3", "2E2", "1e+16", "1e308")


def render(tree, sep):
    """``tree``'s text with only the parentheses the grammar needs, and its level."""
    kind = tree[0]
    if kind in ("num", "var"):
        return tree[1], 5
    if kind == "neg":
        return "-" + sep + wrap(tree[1], 3, sep), LEVEL[kind]
    left, right = OPERAND_LEVEL[kind]
    text = wrap(tree[1], left, sep) + sep + kind + sep + wrap(tree[2], right, sep)
    return text, LEVEL[kind]


def wrap(tree, loosest, sep):
    text, level = render(tree, sep)
    return text if level >= loosest else f"({text})"


def tree_names(tree):
    if tree[0] == "var":
        return {tree[1]}
    return set().union(*(tree_names(child) for child in tree[1:] if isinstance(child, tuple)))


trees = st.recursive(
    st.tuples(st.just("num"), st.sampled_from(NUMBERS) | st.floats(0.0, 1e6).map(repr))
    | st.tuples(st.just("var"), st.sampled_from(NAMES)),
    lambda children: st.tuples(st.just("neg"), children)
    | st.tuples(st.sampled_from(sorted(COEFFICIENT_OPERATORS)), children, children),
    max_leaves=12,
)


class TestAgainstTreeReference:
    """Random trees, rendered with the fewest parentheses, parse back to
    programs whose value is the tree's value bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        tree=trees,
        sep=st.sampled_from(["", " "]),
        env=st.fixed_dictionaries({name: st.floats(-4.0, 4.0) for name in NAMES}),
    )
    def test_value_and_names(self, tree, sep, env):
        text, _ = render(tree, sep)
        expr = parse_coefficient_expr(text, NAMES)
        assert expr.names() == tree_names(tree)
        want = coefficient_value(tree, env)
        if want is None:
            with pytest.raises(UndefinedCoefficient):
                expr.evaluate(env)
        else:
            assert expr.evaluate(env).hex() == want.hex()

    def test_rendering_needs_the_grammar(self):
        power = ("^", ("var", "a"), ("num", "2"))
        assert render(("neg", power), "")[0] == "-a^2"
        assert render(("^", ("neg", ("var", "a")), ("num", "2")), "")[0] == "(-a)^2"
        assert render(("^", ("num", "2"), ("neg", ("num", "1"))), "")[0] == "2^-1"
        assert render(("^", power, ("num", "3")), "")[0] == "(a^2)^3"
        assert render(("^", ("var", "a"), power), "")[0] == "a^a^2"
        assert render(("-", ("var", "a"), ("-", ("var", "k"), ("num", "1"))), "")[0] == "a-(k-1)"


class TestNoNestingLimit:
    def test_deep_parentheses(self):
        text = "(" * 5000 + "k*a" + ")" * 5000
        assert ev(text, a=3.0, k=0.1).hex() == ev("k*a", a=3.0, k=0.1).hex()
        assert parse_coefficient_expr(text, PARAMS).names() == {"a", "k"}

    def test_long_sum(self):
        text = "+".join(["a"] * 20000)
        assert ev(text, a=1.0) == 20000.0

    def test_deep_unary_minus_and_power(self):
        assert ev("-" * 5001 + "a", a=2.0) == -2.0
        assert ev("^".join(["a"] * 5000), a=1.0) == 1.0


class TestFilteredDerivativeCoefficients:
    """``filtered_derivative_transform`` writes each coefficient of the
    denominator times (tau s + 1) as source text and parses it."""

    @pytest.mark.parametrize("tau", [1e-3, 0.05, 1.0 / 3.0])
    def test_bit_for_bit_with_plain_floats(self, servo_config, tau):
        plant = servo_config.plant
        modified = filtered_derivative_transform(plant, tau)
        names = [spec.name for spec in plant.params]
        reparsed = [parse_coefficient_expr(c.source, names) for c in modified.den]
        assert [c.program for c in reparsed] == [c.program for c in modified.den]
        for member in plant.members():
            env = dict(zip(names, member))
            old = [c.evaluate(env) for c in plant.den]
            # tau * c_k + c_(k-1) with c_(-1) = 0, then c_n itself
            want = [tau * c + prev for c, prev in zip(old, [0.0] + old)] + [old[-1]]
            got = [c.evaluate(env) for c in modified.den]
            again = [c.evaluate(env) for c in reparsed]
            assert list(map(float.hex, got)) == list(map(float.hex, want))
            assert list(map(float.hex, again)) == list(map(float.hex, want))
