"""Coefficient expression language: parsing, precedence, error positions."""

from __future__ import annotations

import pytest

from qft_forge.errors import ExpressionSyntaxError, UnknownParameter
from qft_forge.expr import parse_coefficient_expr
from qft_forge.optimizer import filtered_derivative_transform

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


class TestFilteredDerivativeCoefficients:
    """``filtered_derivative_transform`` writes each coefficient of the
    denominator times (tau s + 1) as source text and parses it."""

    @pytest.mark.parametrize("tau", [1e-3, 0.05, 1.0 / 3.0])
    def test_bit_for_bit_with_plain_floats(self, servo_config, tau):
        plant = servo_config.plant
        modified = filtered_derivative_transform(plant, tau)
        names = [spec.name for spec in plant.params]
        reparsed = [parse_coefficient_expr(c.source, names) for c in modified.den]
        assert [c.root for c in reparsed] == [c.root for c in modified.den]
        for member in plant.members():
            env = dict(zip(names, member))
            old = [c.evaluate(env) for c in plant.den]
            # tau * c_k + c_(k-1) with c_(-1) = 0, then c_n itself
            want = [tau * c + prev for c, prev in zip(old, [0.0] + old)] + [old[-1]]
            got = [c.evaluate(env) for c in modified.den]
            again = [c.evaluate(env) for c in reparsed]
            assert list(map(float.hex, got)) == list(map(float.hex, want))
            assert list(map(float.hex, again)) == list(map(float.hex, want))
