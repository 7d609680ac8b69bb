"""Tiny arithmetic language for uncertain polynomial coefficients.

Grammar (tightest first): ``^`` (right-associative), unary minus, ``*`` ``/``,
``+`` ``-``; parentheses; float literals such as ``2``, ``.5`` and
``1.5e-3``; identifiers (a letter or ``_``, then letters, digits or ``_``)
naming declared plant parameters.  ``-a^2`` therefore parses as ``-(a^2)``,
and ``2^-1`` is one half.

One token pattern splits the text, and one pass over the tokens (the
shunting-yard algorithm, driven by the operator table) turns them into a
postfix program: floats, parameter names and operator functions, which
:meth:`CoefficientExpression.evaluate` runs on a stack.  Neither step
recurses, so nesting depth and length are unlimited.

Parsing is eager about errors: the whole text is tokenized first, then a
stray token or an undeclared identifier raises with its character position,
so a bad config line is reported before any numerics run.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping

from .errors import ExpressionSyntaxError, UndefinedCoefficient, UnknownParameter

__all__ = [
    "CoefficientExpression",
    "parse_coefficient_expr",
]

_TOKEN = re.compile(
    r"(?P<num>[\d.]+(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S)"
)

# symbol: (precedence, right-associative, function); "neg" is unary minus
_OPERATORS = {
    "+": (1, False, operator.add),
    "-": (1, False, operator.sub),
    "*": (2, False, operator.mul),
    "/": (2, False, operator.truediv),
    "neg": (3, True, operator.neg),
    "^": (4, True, operator.pow),
}


@dataclass(frozen=True)
class CoefficientExpression:
    """A parsed coefficient: the original text plus its postfix program.

    The program holds float literals, parameter names (str) and operator
    functions, each operator after its operands.
    """

    source: str
    program: tuple

    def evaluate(self, env: Mapping) -> float:
        stack = []
        try:
            for item in self.program:
                if isinstance(item, float):
                    stack.append(item)
                elif isinstance(item, str):
                    stack.append(float(env[item]))
                elif item is operator.neg:
                    stack[-1] = item(stack[-1])
                else:
                    right = stack.pop()
                    stack[-1] = item(stack[-1], right)
            value = float(stack[0])  # a complex power: TypeError
        except (ZeroDivisionError, OverflowError, TypeError):
            value = math.nan
        if not math.isfinite(value):
            raise UndefinedCoefficient(f"coefficient '{self.source}' is undefined at {dict(env)}")
        return value

    def names(self) -> set:
        """Parameter names the expression depends on."""
        return {item for item in self.program if isinstance(item, str)}


def _tokenize(text: str) -> list:
    """(kind, text, position) per token, then ("end", "", len(text))."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, lexeme, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {lexeme!r}", pos)
        if kind == "num":
            try:
                float(lexeme)
            except ValueError:
                raise ExpressionSyntaxError(f"bad number '{lexeme}'", pos)
        tokens.append((kind, lexeme, pos))
    return tokens + [("end", "", len(text))]


def parse_coefficient_expr(text: str, declared_params) -> CoefficientExpression:
    """Parse ``text`` against a collection of declared parameter names."""
    declared = set(declared_params)
    program, pending = [], []  # pending: operator symbols and open parentheses
    want_operand = True
    for kind, lexeme, pos in _tokenize(text):
        if want_operand:
            if lexeme in ("-", "("):
                pending.append("neg" if lexeme == "-" else "(")
                continue
            if kind == "num":
                program.append(float(lexeme))
            elif kind == "name" and lexeme in declared:
                program.append(lexeme)
            elif kind == "name":
                raise UnknownParameter(lexeme, pos)
            elif kind == "end":
                raise ExpressionSyntaxError("unexpected end of expression", pos)
            else:
                raise ExpressionSyntaxError(f"unexpected '{lexeme}'", pos)
            want_operand = False
        elif kind == "op" and lexeme in _OPERATORS:
            precedence, right, _ = _OPERATORS[lexeme]
            while pending and pending[-1] != "(":
                top = _OPERATORS[pending[-1]][0]
                if top < precedence or (top == precedence and right):
                    break
                program.append(_OPERATORS[pending.pop()][2])
            pending.append(lexeme)
            want_operand = True
        else:  # ')', the end or a stray operand
            while pending and pending[-1] != "(":
                program.append(_OPERATORS[pending.pop()][2])
            if pending and lexeme == ")":
                pending.pop()
            elif pending:
                raise ExpressionSyntaxError("expected ')'", pos)
            elif kind != "end":
                raise ExpressionSyntaxError(f"unexpected '{lexeme}'", pos)
    return CoefficientExpression(source=text, program=tuple(program))
