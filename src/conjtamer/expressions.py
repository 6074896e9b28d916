"""A tiny arithmetic expression language for defining maps of x.

Grammar (recursive descent, deterministic):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | postfix
    postfix := primary ('^' number)*
    primary := number | 'x' | 'pi' | name '(' expr (',' expr)* ')' | '(' expr ')'

Functions: sin, cos, exp, log, sqrt (one argument) and mobius(a,b,c,d), the
fractional-linear map x -> (a*x+b)/(c*x+d) with constant coefficients.
Exponents are numeric literals, not sub-expressions.

Every parsed expression has one evaluator, its jet x -> (value, derivative),
computed analytically in one walk of the tree, so maps defined this way carry
exact derivative data.
"""

from __future__ import annotations

import re
from typing import List, Tuple

import numpy as np

from .errors import SpecError

Array = np.ndarray


class UnknownFunction(SpecError):
    """An expression called a function name that is not provided."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"sin", "cos", "exp", "log", "sqrt", "mobius"}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """Returns (kind, value, col) triples; col is 1-based."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace before reporting
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise SpecError(f"unexpected character {stripped[0]!r}", col=col)
        if m.group("number") is not None:
            tokens.append(("number", m.group("number"), m.start("number") + 1))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST nodes: each evaluates its jet x -> (value, derivative) on numpy arrays in
# one walk of its subtree.  Constants stay arrays: numpy scalars and arrays may
# round a power differently in the last bit.


class _Node:
    has_x = False

    def jet(self, x: Array) -> Tuple[Array, Array]:
        raise NotImplementedError


class _Num(_Node):
    def __init__(self, v: float):
        self.v = float(v)

    def jet(self, x):
        return np.full_like(x, self.v), np.zeros_like(x)


class _X(_Node):
    has_x = True

    def jet(self, x):
        return np.array(x, dtype=float, copy=True), np.ones_like(x)


class _Neg(_Node):
    def __init__(self, a: _Node):
        self.a = a
        self.has_x = a.has_x

    def jet(self, x):
        a, da = self.a.jet(x)
        return -a, -da


class _BinOp(_Node):
    def __init__(self, op: str, a: _Node, b: _Node):
        self.op = op
        self.a = a
        self.b = b
        self.has_x = a.has_x or b.has_x

    def jet(self, x):
        (a, da), (b, db) = self.a.jet(x), self.b.jet(x)
        if self.op == "+":
            return a + b, da + db
        if self.op == "-":
            return a - b, da - db
        if self.op == "*":
            return a * b, da * b + a * db
        return a / b, (da * b - a * db) / (b * b)


class _Pow(_Node):
    def __init__(self, a: _Node, p: float):
        self.a = a
        self.p = float(p)
        self.has_x = a.has_x

    def jet(self, x):
        a, da = self.a.jet(x)
        return a ** self.p, self.p * a ** (self.p - 1.0) * da


class _Fun(_Node):
    def __init__(self, name: str, a: _Node):
        self.name = name
        self.a = a
        self.has_x = a.has_x

    def jet(self, x):
        a, da = self.a.jet(x)
        v = getattr(np, self.name)(a)
        if self.name == "sin":
            return v, np.cos(a) * da
        if self.name == "cos":
            return v, -np.sin(a) * da
        if self.name == "exp":
            return v, v * da
        if self.name == "log":
            return v, da / a
        # sqrt
        return v, 0.5 * da / v


class _Mobius(_Node):
    has_x = True

    def __init__(self, a: float, b: float, c: float, d: float):
        self.a, self.b, self.c, self.d = a, b, c, d

    def jet(self, x):
        den = self.c * x + self.d
        return (self.a * x + self.b) / den, (self.a * self.d - self.b * self.c) / (
            den * den
        )


# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise SpecError(f"expected {op!r}, found {val or 'end of input'!r}", col=col)

    def parse_expr(self) -> _Node:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = _BinOp(val, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> _Node:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = _BinOp(val, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> _Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _Neg(self.parse_factor())
        return self.parse_postfix()

    def parse_postfix(self) -> _Node:
        node = self.parse_primary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                nkind, nval, ncol = self.next()
                sign = 1.0
                if nkind == "op" and nval == "-":
                    sign = -1.0
                    nkind, nval, ncol = self.next()
                if nkind != "number":
                    raise SpecError("exponent must be a numeric literal", col=ncol)
                node = _Pow(node, sign * float(nval))
            else:
                return node

    def parse_primary(self) -> _Node:
        kind, val, col = self.next()
        if kind == "number":
            return _Num(float(val))
        if kind == "name":
            if val == "x":
                return _X()
            if val == "pi":
                return _Num(np.pi)
            nkind, nval, _ = self.peek()
            if not (nkind == "op" and nval == "("):
                raise SpecError(f"unknown constant {val!r}", col=col)
            if val not in _FUNCTIONS:
                raise UnknownFunction(f"unknown function {val!r}", col=col)
            self.expect_op("(")
            args = [self.parse_expr()]
            while True:
                pkind, pval, pcol = self.peek()
                if pkind == "op" and pval == ",":
                    self.next()
                    args.append(self.parse_expr())
                else:
                    break
            self.expect_op(")")
            return self._build_call(val, args, col)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise SpecError(
            f"unexpected {val!r}" if val else "unexpected end of input", col=col
        )

    def _build_call(self, name: str, args: List[_Node], col: int) -> _Node:
        if name == "mobius":
            if len(args) != 4:
                raise SpecError("mobius takes exactly 4 arguments", col=col)
            if any(a.has_x for a in args):
                raise SpecError("mobius coefficients must be constants", col=col)
            probe = np.zeros(1)
            a, b, c, d = (float(arg.jet(probe)[0][0]) for arg in args)
            return _Mobius(a, b, c, d)
        if len(args) != 1:
            raise SpecError(f"{name} takes exactly 1 argument", col=col)
        return _Fun(name, args[0])


def _shift(ast: _Node):
    """c when ast is x + c, c + x or x - c with c a finite constant, else None."""
    if isinstance(ast, _BinOp) and ast.op in "+-":
        x, c = (ast.b, ast.a) if ast.op == "+" and isinstance(ast.b, _X) else (ast.a, ast.b)
        if isinstance(x, _X) and not c.has_x:
            with np.errstate(all="ignore"):
                value = float(c.jet(np.zeros(1))[0][0]) * (1.0 if ast.op == "+" else -1.0)
            return value if np.isfinite(value) else None
    return None


class Expression:
    """A compiled expression of x with analytic derivative."""

    def __init__(self, text: str, ast: _Node):
        self.text = text
        self._ast = ast
        self.has_x = ast.has_x
        # (a, b, c, d) when the expression is mobius(a, b, c, d)
        self.mobius = (ast.a, ast.b, ast.c, ast.d) if isinstance(ast, _Mobius) else None
        self.is_variable = isinstance(ast, _X)  # the bare variable x
        self.shift = _shift(ast)  # c when the expression is x + c, c + x or x - c

    def jet(self, x) -> Tuple[Array, Array]:
        """(value, derivative) at x in one walk of the tree."""
        return self._ast.jet(np.asarray(x, dtype=float))

    def value(self, x) -> Array:
        return self.jet(x)[0]

    def derivative(self, x) -> Array:
        return self.jet(x)[1]

    def __repr__(self):
        return f"Expression({self.text!r})"


def compile_expression(text: str) -> Expression:
    """Parses text into an Expression; raises SpecError with a 1-based column
    on malformed input and UnknownFunction on an unrecognized call."""
    parser = _Parser(_tokenize(text))
    ast = parser.parse_expr()
    kind, val, col = parser.peek()
    if kind != "end":
        raise SpecError(f"unexpected trailing {val!r}", col=col)
    return Expression(text, ast)
