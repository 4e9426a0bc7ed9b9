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
parses directly to a :class:`~hyp321.expr.LinExpr`: a linear run folds in
Python ints and becomes a ``LinExpr`` once.  A call is parsed once per memo
and shared by its source text; each parse has its own memo unless the
caller passes one, as ``seed_db`` does for one build.  A tree deeper than
``expr.MAX_DEPTH`` is a ``ParseError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from . import expr as E
from .errors import ParseError

Q = Fraction

#: a token, the text between two tokens being blanks
_TOKEN_RE = re.compile(r"([-+*/^(),]|[A-Za-z_][A-Za-z_0-9]*|\d+(?:\.\d+)?)")
_PAREN_RE = re.compile(r"[()]")

#: the function nodes by grammar name, the ``Gamma`` alias and ``sqrt``
_CALLS = {name: node for node, name in E.CALL_NAMES.items()} | {
    "Gamma": E.Gamma, "sqrt": lambda x: E.Pow(x, E.Const(Q(1, 2)))}

#: Largest denominator accepted for decimal literals (exact-rational rule).
MAX_DECIMAL_DENOMINATOR = 10 ** 6

#: ``Fraction(n, d)``, interned up to a bound
_rational = lru_cache(maxsize=1024)(Fraction)


def _tokenize(text: str) -> tuple[list[str], list[int], dict[int, int]]:
    """The tokens of ``text``, ending in ``""``, their positions, and the
    position of the ``)`` that closes each ``(`` that is closed."""
    parts = _TOKEN_RE.split(text)  # blanks, token, blanks, ..., blanks
    ends = list(accumulate(map(len, parts)))
    if "".join(parts[::2]).strip():
        k = next(k for k in range(0, len(parts), 2) if parts[k].strip())
        pos = ends[k] - len(parts[k].lstrip())
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    close, opened = {}, []
    for m in _PAREN_RE.finditer(text):
        if m.group() == "(":
            opened.append(m.start())
        elif opened:
            close[opened.pop()] = m.start()
    return parts[1::2] + [""], ends[::2], close


#: a linear value: ``(numerators by symbol name, constant numerator,
#: denominator)``, no numerator 0; any other value is a tree node
Value = tuple | E.Expr


def _lin(v: tuple) -> E.LinExpr:
    nums, c, d = v
    return E.LinExpr(tuple([(E.sym(s), _rational(nums[s], d))
                            for s in sorted(nums)]), _rational(c, d))


def _tree(v: Value) -> E.Expr:
    if type(v) is not tuple:
        return v
    return E.Lin(_lin(v)) if v[0] else E.Const(_rational(v[1], v[2]))


def _scale(v: tuple, p: int, q: int) -> tuple:
    """``v * p / q``."""
    return {s: n * p for s, n in v[0].items() if p}, v[1] * p, v[2] * q


def _flat(node: type, x: Value, y: Value) -> E.Expr:
    """``node`` of ``x`` and ``y``, a ``node`` operand's terms spliced in."""
    xa, ya = _tree(x), _tree(y)
    return node((xa.args if type(xa) is node else (xa,)) +
                (ya.args if type(ya) is node else (ya,)))


def _add(x: Value, y: Value, negate: bool) -> Value:
    """``x + y``, or ``x - y`` when ``negate``."""
    if type(x) is not tuple or type(y) is not tuple:
        return _flat(E.Add, x, _neg(y) if negate else y)
    (xn, xc, xd), (yn, yc, yd) = x, y
    fx, fy = (1, 1) if xd == yd else (yd, xd)
    fy = -fy if negate else fy
    # the parser uses each value once, so x's numerators may be reused
    nums = xn if fx == 1 else {s: n * fx for s, n in xn.items()}
    for s, n in yn.items():
        if nums.setdefault(s, 0) == -n * fy:
            del nums[s]
        else:
            nums[s] += n * fy
    return nums, xc * fx + yc * fy, xd * fx


def _neg(x: Value) -> Value:
    return _scale(x, -1, 1) if type(x) is tuple else E.Neg(x)


def _mul(x: Value, y: Value) -> Value:
    if type(x) is tuple and type(y) is tuple and not (x[0] and y[0]):
        return _scale(x, y[1], y[2]) if x[0] else _scale(y, x[1], x[2])
    return _flat(E.Mul, x, y)


def _div(x: Value, y: Value) -> Value:
    if type(y) is not tuple or y[0]:
        return _mul(x, E.Recip(_tree(y)))
    if not y[1]:
        raise ParseError("division by zero")
    return _mul(x, ({}, y[2], y[1]))


class _Parser:
    def __init__(self, text: str, memo: dict):
        self.text, self.memo = text, memo
        self.vals, self.poss, self.close = _tokenize(text)
        self.i = 0
        #: the tree levels that may sit above the next factor (the top
        #: level's Add, Neg, Mul and Recip, one per factor, four more per
        #: parenthesis, five per call), and the most since the last call:
        #: a bound on the depth of the tree built
        self.depth = self.deepest = 4

    def expect(self, op: str):
        self.i += 1
        if self.vals[self.i - 1] != op:
            raise ParseError(f"expected {op!r}, found "
                             f"{self.vals[self.i - 1]!r}", self.poss[self.i - 1])

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Value:
        v = self.parse_term()
        while (op := self.vals[self.i]) in ("+", "-"):
            self.i += 1
            v = _add(v, self.parse_term(), op == "-")
        return v

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> Value:
        v = self.parse_factor()
        while (op := self.vals[self.i]) in ("*", "/"):
            self.i += 1
            v = (_mul if op == "*" else _div)(v, self.parse_factor())
        return v

    # factor := ('-'|'+') factor | atom ('^' factor)?
    # atom := number | symbol | pi | call | '(' expr ')'
    def parse_factor(self) -> Value:
        self.depth = depth = self.depth + 1
        if depth > self.deepest:
            if depth > E.MAX_DEPTH:
                raise ParseError(f"expression nested deeper than "
                                 f"{E.MAX_DEPTH} levels", self.poss[self.i])
            self.deepest = depth
        i = self.i
        val = self.vals[i]
        self.i = i + 1
        if val in ("+", "-"):
            v = self.parse_factor()
            self.depth = depth - 1
            return _neg(v) if val == "-" else v
        if val.isidentifier():
            if self.vals[i + 1] == "(" and val in _CALLS:
                v = self.shared_call(val, self.poss[i])
            else:
                v = E.PI_CONST if val == "pi" else ({val: 1}, 0, 1)
        elif val.isdigit():
            v = {}, int(val), 1
        elif val == "(":  # Add, Neg, Mul and Recip may nest in it
            self.depth += 4
            v = self.parse_expr()
            self.depth -= 4
            self.expect(")")
        elif val[:1].isdigit():
            v = _decimal(val, self.poss[i])
        else:
            raise ParseError(f"unexpected token {val!r}", self.poss[i])
        if self.vals[self.i] == "^":
            self.i += 1
            v = E.Pow(_tree(v), _tree(self.parse_factor()))
        self.depth = depth - 1
        return v

    # list := expr (',' expr)*, each item with its source text
    def parse_list(self) -> list[tuple[Value, str]]:
        items = []
        while True:
            start = self.poss[self.i]
            v = self.parse_expr()
            items.append((v, self.text[start:self.poss[self.i]].strip()))
            if self.vals[self.i] != ",":
                return items
            self.i += 1

    def shared_call(self, name: str, pos: int) -> E.Expr:
        """The call at ``pos``, from the memo when its text is there and its
        depth fits here (an unclosed call has no text, and fails)."""
        close = self.close.get(self.poss[self.i], pos - 1)
        key = self.text[pos:close + 1]
        node, inner = self.memo.get(key, (None, 0))
        if node is None or self.depth + inner > E.MAX_DEPTH:
            outer, self.deepest = self.deepest, self.depth
            node = self.parse_call(name)
            inner = self.deepest - self.depth
            self.memo[key], self.deepest = (node, inner), outer
        else:
            self.i = self.poss.index(close, self.i) + 1
        self.deepest = max(self.deepest, self.depth + inner)
        return node

    def parse_call(self, name: str) -> E.Expr:
        self.expect("(")
        self.depth += 5  # the call's node, and the parenthesis's four
        args = [v for v, _ in self.parse_list()]
        self.depth -= 5
        self.expect(")")
        shape = E.SHAPES.get(_CALLS[name], (("x", E.EXPR),))  # sqrt(x)
        if len(args) != len(shape):
            raise ParseError(f"{name} expects {len(shape)} argument(s), got {len(args)}")
        return _CALLS[name](*(_call_arg(v, kind, f"{name} {field}")
                              for (field, kind), v in zip(shape, args)))


def _decimal(val: str, pos: int) -> tuple:
    q = Q(val)
    if q.denominator > MAX_DECIMAL_DENOMINATOR:
        raise ParseError(
            f"decimal {val} is not exactly representable with "
            f"denominator <= {MAX_DECIMAL_DENOMINATOR}; write a fraction", pos)
    return {}, q.numerator, q.denominator


def _call_arg(v: Value, kind: str, what: str):
    """Argument ``v`` of a function call, read as a field of ``kind``."""
    if kind == E.EXPR:
        return _tree(v)
    if type(v) is not tuple:
        raise ParseError(f"{what} must be a linear expression")
    nums, c, d = v
    if kind == E.INT:
        if nums or c % d or c // d < 0:
            raise ParseError(f"{what} must be a non-negative integer literal")
        return c // d
    if kind == E.INDEX:
        if c or len(nums) != 1 or d not in nums.values():
            raise ParseError(f"{what} must be a bare symbol")
        return E.sym(*nums)
    return _lin(v)


def _parse(text: str, memo: dict | None,
           many: bool = False) -> list[tuple[Value, str]]:
    """Parse the whole of ``text``: one expression, or with ``many`` a
    comma-separated list, each item with its source text."""
    p = _Parser(text, {} if memo is None else memo)
    items = p.parse_list() if many else [(p.parse_expr(), text)]
    if p.vals[p.i]:
        raise ParseError(f"trailing input {p.vals[p.i]!r}", p.poss[p.i])
    return items


def _affine(v: Value, source: str) -> E.LinExpr:
    if type(v) is not tuple:
        raise ParseError(f"{source!r} is not an affine parameter expression")
    return _lin(v)


def parse_expr(text: str, memo: dict | None = None) -> E.Expr:
    """Parse to a closed-form expression tree; ``memo`` shares call
    subtrees with other parses that pass it."""
    return _tree(_parse(text, memo)[0][0])


def parse_linexpr(text: str) -> E.LinExpr:
    """Parse a parameter: must reduce to an affine combination of symbols."""
    return _affine(*_parse(text, None)[0])


def parse_param_list(text: str, memo: dict | None = None
                     ) -> tuple[E.LinExpr, ...]:
    """Parse a comma-separated parameter list; error positions count from
    the start of ``text``."""
    return tuple(_affine(*item) for item in _parse(text, memo, many=True))
