"""Tiny arithmetic language for uncertain polynomial coefficients.

Grammar (tightest first): ``^`` (right-associative), unary minus, ``*`` ``/``,
``+`` ``-``; parentheses; float literals; identifiers naming declared plant
parameters.  ``-a^2`` therefore parses as ``-(a^2)``.

Parsing is eager about errors: a stray character or an undeclared identifier
raises immediately with its character position, so a bad config line is
reported before any numerics run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ExpressionSyntaxError, UndefinedCoefficient, UnknownParameter

__all__ = [
    "CoefficientExpression",
    "parse_coefficient_expr",
    "scale_expression",
    "add_expressions",
]


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float

    def evaluate(self, env: Mapping) -> float:
        return self.value


@dataclass(frozen=True)
class Var:
    name: str

    def evaluate(self, env: Mapping) -> float:
        return float(env[self.name])


@dataclass(frozen=True)
class Neg:
    child: "Node"

    def evaluate(self, env: Mapping) -> float:
        return -self.child.evaluate(env)


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"

    def evaluate(self, env: Mapping) -> float:
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return a ** b


Node = Union[Num, Var, Neg, Bin]


@dataclass(frozen=True)
class CoefficientExpression:
    """A parsed coefficient: the original text plus its expression tree."""

    source: str
    root: Node

    def evaluate(self, env: Mapping) -> float:
        try:
            value = float(self.root.evaluate(env))  # a complex power: TypeError
        except (ZeroDivisionError, OverflowError, TypeError):
            value = math.nan
        if not math.isfinite(value):
            raise UndefinedCoefficient(f"coefficient '{self.source}' is undefined at {dict(env)}")
        return value

    def names(self) -> set:
        """Parameter names the expression depends on."""
        found = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                found.add(node.name)
            elif isinstance(node, Neg):
                stack.append(node.child)
            elif isinstance(node, Bin):
                stack.append(node.left)
                stack.append(node.right)
        return found


# --- tokenizer -------------------------------------------------------------

_OPERATORS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            # optional exponent part, e.g. 1.5e-3
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lexeme = text[start:i]
            try:
                float(lexeme)
            except ValueError:
                raise ExpressionSyntaxError(f"bad number '{lexeme}'", start)
            tokens.append(_Token("num", lexeme, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# --- recursive descent -----------------------------------------------------

class _Parser:
    def __init__(self, tokens, declared):
        self.tokens = tokens
        self.declared = declared
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != symbol:
            raise ExpressionSyntaxError(f"expected '{symbol}'", tok.pos)
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # recurse through factor: right-associative, exponent may be signed
            return Bin("^", base, self.parse_factor())
        return base

    def parse_atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if tok.text not in self.declared:
                raise UnknownParameter(tok.text, tok.pos)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "end":
            raise ExpressionSyntaxError("unexpected end of expression", tok.pos)
        raise ExpressionSyntaxError(f"unexpected '{tok.text}'", tok.pos)


def parse_coefficient_expr(text: str, declared_params) -> CoefficientExpression:
    """Parse ``text`` against a collection of declared parameter names."""
    parser = _Parser(_tokenize(text), set(declared_params))
    root = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionSyntaxError(f"unexpected '{trailing.text}'", trailing.pos)
    return CoefficientExpression(source=text, root=root)


# --- synthetic expressions (used when rewriting a plant in place) ----------

def scale_expression(expr: CoefficientExpression, factor: float) -> CoefficientExpression:
    return CoefficientExpression(
        source=f"({factor!r})*({expr.source})",
        root=Bin("*", Num(float(factor)), expr.root),
    )


def add_expressions(a: CoefficientExpression, b: CoefficientExpression) -> CoefficientExpression:
    return CoefficientExpression(
        source=f"({a.source})+({b.source})",
        root=Bin("+", a.root, b.root),
    )
