"""Text grammar for parameters and closed-form expressions.

Accepted syntax::

    rational literals     3/2, -1, 0.25          (decimals must be exact)
    symbols               a, b, c, n, m, ...      (n, m, L, k, N, M are integers)
    arithmetic            + - * / ^ ( )
    constants             pi
    functions             Gamma(x)  G(x)  sin(x)  cos(x)  sqrt(x)
                          psi(order, x)           polygamma
                          poch(x, count)          Pochhammer symbol
                          Sum(i, lo, hi, body)    finite sum, inclusive bounds
                          W(a, b, c, m, n)        generalized Watson element

Linear subexpressions fold into single ``Lin`` leaves, so any affine input
parses directly to a :class:`~hyp321.expr.LinExpr`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from . import expr as E
from .errors import ParseError

Q = Fraction

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"Gamma", "G", "sin", "cos", "sqrt", "psi", "poch", "Sum", "W"}

#: Largest denominator accepted for decimal literals (exact-rational rule).
MAX_DECIMAL_DENOMINATOR = 10 ** 6


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start()))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


Value = Union[E.LinExpr, E.Expr]


def _is_lin(v: Value) -> bool:
    return isinstance(v, E.LinExpr)


def _to_expr(v: Value) -> E.Expr:
    if isinstance(v, E.LinExpr):
        if v.is_constant:
            return E.Const(v.const)
        return E.Lin(v)
    return v


def _add(x: Value, y: Value) -> Value:
    if _is_lin(x) and _is_lin(y):
        return x + y
    xa = _to_expr(x)
    ya = _to_expr(y)
    args = (xa.args if isinstance(xa, E.Add) else (xa,)) + (
        ya.args if isinstance(ya, E.Add) else (ya,))
    return E.Add(args)


def _neg(x: Value) -> Value:
    if _is_lin(x):
        return -x
    return E.Neg(x)


def _mul(x: Value, y: Value) -> Value:
    if _is_lin(x) and _is_lin(y):
        if x.is_constant:
            return y * x.const
        if y.is_constant:
            return x * y.const
    xa = _to_expr(x)
    ya = _to_expr(y)
    args = (xa.args if isinstance(xa, E.Mul) else (xa,)) + (
        ya.args if isinstance(ya, E.Mul) else (ya,))
    return E.Mul(args)


def _div(x: Value, y: Value) -> Value:
    if _is_lin(y) and y.is_constant:
        if y.const == 0:
            raise ParseError("division by zero")
        if _is_lin(x):
            return x / y.const
        return _mul(x, E.LinExpr.of(Q(1) / y.const))
    return _mul(x, E.Recip(_to_expr(y)))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Value:
        v = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                v = _add(v, rhs if val == "+" else _neg(rhs))
            else:
                return v

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> Value:
        v = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_factor()
                v = _mul(v, rhs) if val == "*" else _div(v, rhs)
            else:
                return v

    # factor := ('-'|'+') factor | power
    def parse_factor(self) -> Value:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.parse_factor()
            return inner if val == "+" else _neg(inner)
        return self.parse_power()

    # power := atom ('^' factor)?
    def parse_power(self) -> Value:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.parse_factor()
            return E.Pow(_to_expr(base), _to_expr(exponent))
        return base

    def parse_atom(self) -> Value:
        kind, val, pos = self.next()
        if kind == "num":
            if "." in val:
                q = Q(val)
                if q.denominator > MAX_DECIMAL_DENOMINATOR:
                    raise ParseError(
                        f"decimal {val} is not exactly representable with "
                        f"denominator <= {MAX_DECIMAL_DENOMINATOR}; write a fraction", pos)
                return E.LinExpr.of(q)
            return E.LinExpr.of(int(val))
        if kind == "op" and val == "(":
            v = self.parse_expr()
            self.expect(")")
            return v
        if kind == "name":
            if val == "pi":
                return E.PI_CONST
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(" and val in _FUNCTIONS:
                return self.parse_call(val)
            return E.LinExpr.of(E.sym(val))
        raise ParseError(f"unexpected token {val!r}", pos)

    def parse_args(self) -> list[Value]:
        self.expect("(")
        args = [self.parse_expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.parse_expr())
            else:
                break
        self.expect(")")
        return args

    def parse_call(self, name: str) -> Value:
        args = self.parse_args()

        def arity(k: int):
            if len(args) != k:
                raise ParseError(f"{name} expects {k} argument(s), got {len(args)}")

        if name in ("Gamma", "G"):
            arity(1)
            return E.Gamma(_to_expr(args[0]))
        if name == "sin":
            arity(1)
            return E.Sin(_to_expr(args[0]))
        if name == "cos":
            arity(1)
            return E.Cos(_to_expr(args[0]))
        if name == "sqrt":
            arity(1)
            return E.Pow(_to_expr(args[0]), E.Const(Q(1, 2)))
        if name == "psi":
            arity(2)
            order = _require_lin(args[0], "psi order").as_integer()
            if order is None or order < 0:
                raise ParseError("psi order must be a non-negative integer literal")
            return E.Polygamma(order, _to_expr(args[1]))
        if name == "poch":
            arity(2)
            return E.Pochhammer(_to_expr(args[0]), _require_lin(args[1], "poch count"))
        if name == "Sum":
            arity(4)
            idx = _require_lin(args[0], "Sum index")
            if len(idx.terms) != 1 or idx.const != 0 or idx.terms[0][1] != 1:
                raise ParseError("Sum index must be a bare symbol")
            return E.FiniteSum(
                idx.terms[0][0],
                _require_lin(args[1], "Sum lower bound"),
                _require_lin(args[2], "Sum upper bound"),
                _to_expr(args[3]),
            )
        if name == "W":
            arity(5)
            return E.WatsonRef(
                _to_expr(args[0]), _to_expr(args[1]), _to_expr(args[2]),
                _require_lin(args[3], "W offset m"), _require_lin(args[4], "W offset n"))
        raise ParseError(f"unknown function {name!r}")


def _require_lin(v: Value, what: str) -> E.LinExpr:
    if not isinstance(v, E.LinExpr):
        raise ParseError(f"{what} must be a linear expression")
    return v


def parse_expr(text: str) -> E.Expr:
    """Parse to a closed-form expression tree."""
    p = _Parser(text)
    v = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return _to_expr(v)


def parse_linexpr(text: str) -> E.LinExpr:
    """Parse a parameter: must reduce to an affine combination of symbols."""
    p = _Parser(text)
    v = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    if not isinstance(v, E.LinExpr):
        raise ParseError(f"{text!r} is not an affine parameter expression")
    return v


def parse_param_list(text: str) -> tuple[E.LinExpr, ...]:
    """Parse a comma-separated parameter list (top-level commas only)."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return tuple(parse_linexpr(p) for p in parts)
