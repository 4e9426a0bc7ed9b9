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

from . import expr as E
from .errors import ParseError

Q = Fraction

_TOKEN_RE = re.compile(r"(?P<num>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<op>[-+*/^(),])|(?P<bad>\S)")

#: the function nodes by grammar name, the ``Gamma`` alias and ``sqrt``
_CALLS = {name: node for node, name in E.CALL_NAMES.items()} | {
    "Gamma": E.Gamma, "sqrt": lambda x: E.Pow(x, E.Const(Q(1, 2)))}

#: Largest denominator accepted for decimal literals (exact-rational rule).
MAX_DECIMAL_DENOMINATOR = 10 ** 6


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


Value = E.LinExpr | E.Expr


def _to_expr(v: Value) -> E.Expr:
    if isinstance(v, E.LinExpr):
        if v.is_constant:
            return E.Const(v.const)
        return E.Lin(v)
    return v


def _add(x: Value, y: Value) -> Value:
    if isinstance(x, E.LinExpr) and isinstance(y, E.LinExpr):
        return x + y
    xa = _to_expr(x)
    ya = _to_expr(y)
    args = (xa.args if isinstance(xa, E.Add) else (xa,)) + (
        ya.args if isinstance(ya, E.Add) else (ya,))
    return E.Add(args)


def _neg(x: Value) -> Value:
    if isinstance(x, E.LinExpr):
        return -x
    return E.Neg(x)


def _mul(x: Value, y: Value) -> Value:
    if isinstance(x, E.LinExpr) and isinstance(y, E.LinExpr):
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
    if isinstance(y, E.LinExpr) and y.is_constant:
        if y.const == 0:
            raise ParseError("division by zero")
        if isinstance(x, E.LinExpr):
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
        self.i += 1
        return self.tokens[self.i - 1]

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
            if nkind == "op" and nval == "(" and val in _CALLS:
                return self.parse_call(val)
            return E.LinExpr.of(E.sym(val))
        raise ParseError(f"unexpected token {val!r}", pos)

    # list := expr (',' expr)*, each item with its source text
    def parse_list(self) -> list[tuple[Value, str]]:
        items = []
        while True:
            start = self.peek()[2]
            v = self.parse_expr()
            items.append((v, self.text[start:self.peek()[2]].strip()))
            if self.peek()[:2] != ("op", ","):
                return items
            self.next()

    def parse_call(self, name: str) -> Value:
        self.expect("(")
        args = [v for v, _ in self.parse_list()]
        self.expect(")")
        shape = E.SHAPES.get(_CALLS[name], (("x", E.EXPR),))  # sqrt(x)
        if len(args) != len(shape):
            raise ParseError(f"{name} expects {len(shape)} argument(s), got {len(args)}")
        return _CALLS[name](*(_call_arg(v, kind, f"{name} {field}")
                              for (field, kind), v in zip(shape, args)))


def _call_arg(v: Value, kind: str, what: str):
    """Argument ``v`` of a function call, read as a field of ``kind``."""
    if kind == E.EXPR:
        return _to_expr(v)
    if not isinstance(v, E.LinExpr):
        raise ParseError(f"{what} must be a linear expression")
    if kind == E.INT:
        if v.as_integer() is None or v.as_integer() < 0:
            raise ParseError(f"{what} must be a non-negative integer literal")
        return v.as_integer()
    if kind == E.INDEX:
        if len(v.terms) != 1 or v.const != 0 or v.terms[0][1] != 1:
            raise ParseError(f"{what} must be a bare symbol")
        return v.terms[0][0]
    return v


def _parse(text: str, many: bool = False) -> list[tuple[Value, str]]:
    """Parse the whole of ``text``: one expression, or with ``many`` a
    comma-separated list, each item with its source text."""
    p = _Parser(text)
    items = p.parse_list() if many else [(p.parse_expr(), text)]
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return items


def _affine(v: Value, source: str) -> E.LinExpr:
    if not isinstance(v, E.LinExpr):
        raise ParseError(f"{source!r} is not an affine parameter expression")
    return v


def parse_expr(text: str) -> E.Expr:
    """Parse to a closed-form expression tree."""
    return _to_expr(_parse(text)[0][0])


def parse_linexpr(text: str) -> E.LinExpr:
    """Parse a parameter: must reduce to an affine combination of symbols."""
    return _affine(*_parse(text)[0])


def parse_param_list(text: str) -> tuple[E.LinExpr, ...]:
    """Parse a comma-separated parameter list; error positions count from
    the start of ``text``."""
    return tuple(_affine(*item) for item in _parse(text, many=True))
