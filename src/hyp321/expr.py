"""Exact symbolic parameter algebra and a numeric evaluator for closed-form trees.

The algebraic atoms are :class:`LinExpr` values: affine combinations of named
symbols with exact rational (``fractions.Fraction``) coefficients.  Closed-form
right-hand sides are immutable :class:`Expr` trees built from gamma, trig,
polygamma, Pochhammer, powers, finite sums and references to generalized
Watson elements.  Everything here is a pure value; evaluation is the only
numeric operation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import (IndexCapture, NonFiniteParameter, NonIntegerSumBound,
                     PoleError, UnboundSymbol)

Q = Fraction

#: Reserved names that always denote non-negative integer symbols.
INTEGER_SYMBOL_NAMES = frozenset({"n", "m", "L", "k", "N", "M"})

#: Distance from a non-positive integer below which gamma/polygamma raise PoleError.
POLE_TOL = 1e-12


@dataclass(frozen=True, order=True)
class Symbol:
    name: str
    kind: str = "continuous"  # "continuous" | "integer"

    def __post_init__(self):
        if self.kind not in ("continuous", "integer"):
            raise ValueError(f"bad symbol kind {self.kind!r}")


def sym(name: str) -> Symbol:
    """Make a symbol, honouring the reserved integer names."""
    kind = "integer" if name in INTEGER_SYMBOL_NAMES else "continuous"
    return Symbol(name, kind)


Scalar = Union[int, Fraction]
LinLike = Union["LinExpr", Symbol, int, Fraction]


@dataclass(frozen=True)
class LinExpr:
    """Affine combination of symbols with exact rational coefficients.

    ``terms`` is kept sorted by symbol name with no zero coefficients, so two
    equal LinExpr always compare (and hash) equal.
    """

    terms: tuple[tuple[Symbol, Fraction], ...] = ()
    const: Fraction = Q(0)

    @staticmethod
    def make(coeffs: Mapping[Symbol, Fraction] | None = None, const: Scalar = 0) -> "LinExpr":
        items = []
        for s, c in (coeffs or {}).items():
            c = Q(c)
            if c != 0:
                items.append((s, c))
        items.sort(key=lambda t: t[0].name)
        return LinExpr(tuple(items), Q(const))

    # -- coercion ---------------------------------------------------------
    @staticmethod
    def of(x: LinLike) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        if isinstance(x, Symbol):
            return LinExpr.make({x: Q(1)})
        if isinstance(x, (int, Fraction)):
            return LinExpr.make({}, Q(x))
        raise TypeError(f"cannot coerce {x!r} to LinExpr")

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: LinLike) -> "LinExpr":
        return combine((1, 1), (self, LinExpr.of(other)))

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return combine((-1,), (self,))

    def __sub__(self, other: LinLike) -> "LinExpr":
        return combine((1, -1), (self, LinExpr.of(other)))

    def __rsub__(self, other: LinLike) -> "LinExpr":
        return combine((1, -1), (LinExpr.of(other), self))

    def __mul__(self, k: Scalar) -> "LinExpr":
        return combine((Q(k),), (self,))

    __rmul__ = __mul__

    def __truediv__(self, k: Scalar) -> "LinExpr":
        return self * (Q(1) / Q(k))

    # -- queries ----------------------------------------------------------
    def free_symbols(self) -> frozenset[Symbol]:
        return frozenset(s for s, _ in self.terms)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def coeff(self, s: Symbol) -> Fraction:
        for t, c in self.terms:
            if t == s:
                return c
        return Q(0)

    def as_integer(self) -> Optional[int]:
        """Return the value as an int if this is an integer constant, else None."""
        if self.terms or self.const.denominator != 1:
            return None
        return int(self.const)

    def is_integer_valued(self) -> bool:
        """True when every legal assignment makes this an integer."""
        if self.const.denominator != 1:
            return False
        return all(s.kind == "integer" and c.denominator == 1 for s, c in self.terms)

    # -- evaluation / substitution ----------------------------------------
    def eval(self, assignment: Mapping[Symbol, complex]) -> complex:
        try:
            total: complex = complex(self.const)
            for s, c in self.terms:
                if s not in assignment:
                    raise UnboundSymbol(s.name)
                total += complex(c) * complex(assignment[s])
        except OverflowError:
            raise NonFiniteParameter(
                f"parameter {self} is too large for a float") from None
        return total

    def subs(self, mapping: Mapping[Symbol, "LinExpr"]) -> "LinExpr":
        return combine([c for _, c in self.terms],
                       [mapping.get(s, LinExpr.of(s)) for s, _ in self.terms],
                       -self.const)

    def __str__(self) -> str:
        parts = []
        for s, c in self.terms:
            if c == 1:
                parts.append(s.name)
            elif c == -1:
                parts.append(f"-{s.name}")
            else:
                parts.append(f"{c}*{s.name}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


LIN_ZERO = LinExpr.of(0)
LIN_ONE = LinExpr.of(1)


def combine(row: Sequence[Scalar], forms: Sequence[LinExpr],
            offset: Scalar = 0) -> LinExpr:
    """The affine combination ``sum(row[i] * forms[i]) - offset``.

    Built directly, without ``LinExpr.make``: every product of a row entry
    and a Fraction coefficient is already a Fraction.
    """
    coeffs: dict[Symbol, Fraction] = {}
    const = Q(-offset)
    for r, f in zip(row, forms):
        if r:
            if f.const:
                const += f.const if r == 1 else r * f.const
            for s, c in f.terms:
                c = c if r == 1 else r * c
                coeffs[s] = coeffs[s] + c if s in coeffs else c
    return LinExpr(tuple(sorted(((s, c) for s, c in coeffs.items() if c),
                                key=lambda t: t[0].name)), const)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Base class for immutable closed-form expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Lin(Expr):
    lin: LinExpr


@dataclass(frozen=True)
class Add(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Mul(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Recip(Expr):
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Gamma(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Polygamma(Expr):
    order: int
    arg: Expr


@dataclass(frozen=True)
class Pochhammer(Expr):
    base: Expr
    count: LinExpr


@dataclass(frozen=True)
class FiniteSum(Expr):
    """Inclusive sum over an integer index.

    Evaluation follows the definite-sum (antidifference) convention:
    ``sum_{i=a}^{a-1} = 0`` and ``sum_{i=a}^{b} = -sum_{i=b+1}^{a-1}`` when
    ``b < a - 1``, so that shifting a bound always changes the value by one
    term.  Closed forms quoted with symbolic bounds rely on this extension.
    """

    index: Symbol
    lower: LinExpr
    upper: LinExpr
    body: Expr


@dataclass(frozen=True)
class WatsonRef(Expr):
    """Reference to a generalized-Watson element W_{m,n}(a, b, c)."""

    a: Expr
    b: Expr
    c: Expr
    m: LinExpr
    n: LinExpr


PI_CONST = Pi()
ONE = Const(Q(1))

#: the node types with one ``arg`` child and nothing else
_UNARY = (Neg, Recip, Gamma, Sin, Cos)


def const(x: Scalar) -> Const:
    return Const(Q(x))


def free_symbols(e: Expr) -> frozenset[Symbol]:
    """Free symbols of a tree (sum indices are bound inside their body)."""
    if isinstance(e, (Const, Pi)):
        return frozenset()
    if isinstance(e, Lin):
        return e.lin.free_symbols()
    if isinstance(e, (Add, Mul)):
        out: frozenset[Symbol] = frozenset()
        for a in e.args:
            out |= free_symbols(a)
        return out
    if isinstance(e, (Neg, Recip, Gamma, Sin, Cos, Polygamma)):
        return free_symbols(e.arg)
    if isinstance(e, Pow):
        return free_symbols(e.base) | free_symbols(e.exponent)
    if isinstance(e, Pochhammer):
        return free_symbols(e.base) | e.count.free_symbols()
    if isinstance(e, FiniteSum):
        inner = free_symbols(e.body) - {e.index}
        return inner | e.lower.free_symbols() | e.upper.free_symbols()
    if isinstance(e, WatsonRef):
        return (free_symbols(e.a) | free_symbols(e.b) | free_symbols(e.c)
                | e.m.free_symbols() | e.n.free_symbols())
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Numeric kernels
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def is_near_nonpositive_integer(z: complex, tol: float = POLE_TOL) -> bool:
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def cgamma(z: complex) -> complex:
    """Complex gamma via a 9-term Lanczos approximation with reflection.

    Raises PoleError when ``z`` is within POLE_TOL of a non-positive integer.
    """
    z = complex(z)
    if is_near_nonpositive_integer(z):
        raise PoleError(f"gamma pole at {z}")
    if z.real < 0.5:
        # reflection: Gamma(z) = pi / (sin(pi z) * Gamma(1 - z))
        return math.pi / (cmath.sin(math.pi * z) * cgamma(1.0 - z))
    z -= 1.0
    x = complex(_LANCZOS_COEF[0])
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def cpolygamma(order: int, z: complex) -> complex:
    """Polygamma of arbitrary non-negative order at a complex point (mpmath)."""
    import mpmath

    z = complex(z)
    if is_near_nonpositive_integer(z):
        raise PoleError(f"polygamma pole at {z}")
    v = mpmath.psi(order, mpmath.mpc(z))
    return complex(v)


def rising_factorial(x: complex, count: int) -> complex:
    """(x)_count as a literal product; negative counts use (x)_{-k} = 1/(x-k)_k."""
    if count >= 0:
        out: complex = 1.0
        for j in range(count):
            out *= x + j
        return out
    k = -count
    denom: complex = 1.0
    for j in range(k):
        denom *= x - k + j
    if denom == 0:
        raise PoleError(f"Pochhammer pole: ({x})_{count}")
    return 1.0 / denom


Assignment = Mapping[Symbol, complex]
WatsonFn = Callable[[complex, complex, complex, int, int], complex]


def eval_expr(e: Expr, assignment: Assignment, watson: Optional[WatsonFn] = None) -> complex:
    """Evaluate a closed-form tree at a numeric assignment.

    ``watson`` resolves WatsonRef nodes; leaving it unset raises UnboundSymbol
    if such a node is encountered.
    """
    if isinstance(e, Const):
        return complex(e.value)
    if isinstance(e, Pi):
        return complex(math.pi)
    if isinstance(e, Lin):
        return e.lin.eval(assignment)
    if isinstance(e, Add):
        return sum((eval_expr(a, assignment, watson) for a in e.args), 0j)
    if isinstance(e, Mul):
        out: complex = 1.0
        for a in e.args:
            out *= eval_expr(a, assignment, watson)
        return out
    if isinstance(e, Neg):
        return -eval_expr(e.arg, assignment, watson)
    if isinstance(e, Recip):
        v = eval_expr(e.arg, assignment, watson)
        if v == 0:
            raise PoleError("division by zero")
        return 1.0 / v
    if isinstance(e, Pow):
        b = eval_expr(e.base, assignment, watson)
        p = eval_expr(e.exponent, assignment, watson)
        if b == 0:
            if p.real > 0:
                return 0.0
            raise PoleError("0 raised to a non-positive power")
        return cmath.exp(p * cmath.log(b))
    if isinstance(e, Gamma):
        return cgamma(eval_expr(e.arg, assignment, watson))
    if isinstance(e, Sin):
        return cmath.sin(eval_expr(e.arg, assignment, watson))
    if isinstance(e, Cos):
        return cmath.cos(eval_expr(e.arg, assignment, watson))
    if isinstance(e, Polygamma):
        return cpolygamma(e.order, eval_expr(e.arg, assignment, watson))
    if isinstance(e, Pochhammer):
        base = eval_expr(e.base, assignment, watson)
        cnt = e.count.eval(assignment)
        if abs(cnt.imag) < 1e-12 and abs(cnt.real - round(cnt.real)) < 1e-12:
            return rising_factorial(base, int(round(cnt.real)))
        return cgamma(base + cnt) / cgamma(base)
    if isinstance(e, FiniteSum):
        lo = e.lower.eval(assignment)
        hi = e.upper.eval(assignment)
        for v in (lo, hi):
            if abs(v.imag) > 1e-9 or abs(v.real - round(v.real)) > 1e-9:
                raise NonIntegerSumBound(f"sum bound {v} is not an integer")
        lo_i, hi_i = int(round(lo.real)), int(round(hi.real))
        sign = 1.0
        if hi_i < lo_i - 1:
            # definite-sum convention for reversed bounds (see class docstring)
            lo_i, hi_i, sign = hi_i + 1, lo_i - 1, -1.0
        total: complex = 0.0
        inner = dict(assignment)
        for i in range(lo_i, hi_i + 1):  # empty when hi == lo - 1
            inner[e.index] = i
            total += eval_expr(e.body, inner, watson)
        return sign * total
    if isinstance(e, WatsonRef):
        if watson is None:
            raise UnboundSymbol("WatsonRef encountered without a watson resolver")
        a = eval_expr(e.a, assignment, watson)
        b = eval_expr(e.b, assignment, watson)
        c = eval_expr(e.c, assignment, watson)
        m = e.m.eval(assignment)
        n = e.n.eval(assignment)
        for v in (m, n):
            if abs(v.imag) > 1e-9 or abs(v.real - round(v.real)) > 1e-9:
                raise NonIntegerSumBound(f"Watson offset {v} is not an integer")
        return watson(a, b, c, int(round(m.real)), int(round(n.real)))
    raise TypeError(f"unknown node {e!r}")


def as_real(value: complex, rel: float = 1e-9) -> complex:
    """Collapse to a real number when the imaginary part is negligible."""
    if abs(value.imag) < rel * max(abs(value.real), 1e-300):
        return value.real
    return value


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(e: Expr, mapping: Mapping[Symbol, LinExpr], _bound: frozenset[Symbol] = frozenset()) -> Expr:
    """Rewrite every Lin leaf (and LinExpr slot) by exact linear substitution."""
    for target in mapping.values():
        if target.free_symbols() & _bound:
            raise IndexCapture(
                f"substitution target {target} mentions a bound index")
    if isinstance(e, (Const, Pi)):
        return e
    if isinstance(e, Lin):
        return Lin(e.lin.subs(mapping))
    if isinstance(e, Add):
        return Add(tuple(substitute(a, mapping, _bound) for a in e.args))
    if isinstance(e, Mul):
        return Mul(tuple(substitute(a, mapping, _bound) for a in e.args))
    if isinstance(e, _UNARY):
        return type(e)(substitute(e.arg, mapping, _bound))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping, _bound), substitute(e.exponent, mapping, _bound))
    if isinstance(e, Polygamma):
        return Polygamma(e.order, substitute(e.arg, mapping, _bound))
    if isinstance(e, Pochhammer):
        return Pochhammer(substitute(e.base, mapping, _bound), e.count.subs(mapping))
    if isinstance(e, FiniteSum):
        inner_map = {s: t for s, t in mapping.items() if s != e.index}
        return FiniteSum(
            e.index,
            e.lower.subs(mapping),
            e.upper.subs(mapping),
            substitute(e.body, inner_map, _bound | {e.index}),
        )
    if isinstance(e, WatsonRef):
        return WatsonRef(
            substitute(e.a, mapping, _bound),
            substitute(e.b, mapping, _bound),
            substitute(e.c, mapping, _bound),
            e.m.subs(mapping),
            e.n.subs(mapping),
        )
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Serialization: nested-array text form
# ---------------------------------------------------------------------------

def _frac_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def frac_from_str(s: str) -> Fraction:
    from .errors import ParseError

    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}: {exc}") from None
    return q


def lin_to_flat(l: LinExpr) -> dict:
    d = {s.name: _frac_to_str(c) for s, c in l.terms}
    d["const"] = _frac_to_str(l.const)
    return d


def lin_from_flat(d: Mapping[str, str]) -> LinExpr:
    coeffs = {}
    const = Q(0)
    for name, val in d.items():
        if name == "const":
            const = frac_from_str(val)
        else:
            coeffs[sym(name)] = frac_from_str(val)
    return LinExpr.make(coeffs, const)


def lin_to_json(l: LinExpr) -> dict:
    """The {"coeffs": ..., "const": ...} form used for ParamSet slots."""
    return {
        "coeffs": {s.name: _frac_to_str(c) for s, c in l.terms},
        "const": _frac_to_str(l.const),
    }


def lin_from_json(d: Mapping) -> LinExpr:
    coeffs = {sym(name): frac_from_str(v) for name, v in d.get("coeffs", {}).items()}
    return LinExpr.make(coeffs, frac_from_str(d.get("const", "0")))


def expr_str(e: Expr) -> str:
    """Render an expression in the input grammar (re-parseable)."""
    return _expr_str(e, 0)


def _paren(text: str, level: int, here: int) -> str:
    return f"({text})" if here < level else text


def _expr_str(e: Expr, level: int) -> str:
    # precedence: 0 additive, 1 multiplicative, 2 unary/power, 3 atom
    if isinstance(e, Const):
        text = _frac_to_str(e.value)
        here = 3 if e.value >= 0 and e.value.denominator == 1 else 1
        return _paren(text, level, here)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Lin):
        return _paren(str(e.lin), level, 0)
    if isinstance(e, Add):
        return _paren(" + ".join(_expr_str(a, 1) for a in e.args), level, 0)
    if isinstance(e, Mul):
        return _paren("*".join(_expr_str(a, 2) for a in e.args), level, 1)
    if isinstance(e, Neg):
        return _paren(f"-{_expr_str(e.arg, 2)}", level, 0)
    if isinstance(e, Recip):
        return _paren(f"1/{_expr_str(e.arg, 3)}", level, 1)
    if isinstance(e, Pow):
        return _paren(f"{_expr_str(e.base, 3)}^{_expr_str(e.exponent, 3)}",
                      level, 2)
    if isinstance(e, (Gamma, Sin, Cos)):
        name = {Gamma: "G", Sin: "sin", Cos: "cos"}[type(e)]
        return f"{name}({_expr_str(e.arg, 0)})"
    if isinstance(e, Polygamma):
        return f"psi({e.order}, {_expr_str(e.arg, 0)})"
    if isinstance(e, Pochhammer):
        return f"poch({_expr_str(e.base, 0)}, {e.count})"
    if isinstance(e, FiniteSum):
        return (f"Sum({e.index.name}, {e.lower}, {e.upper}, "
                f"{_expr_str(e.body, 0)})")
    if isinstance(e, WatsonRef):
        return (f"W({_expr_str(e.a, 0)}, {_expr_str(e.b, 0)}, "
                f"{_expr_str(e.c, 0)}, {e.m}, {e.n})")
    raise TypeError(f"unknown node {e!r}")


def expr_to_json(e: Expr):
    if isinstance(e, Const):
        return ["Const", _frac_to_str(e.value)]
    if isinstance(e, Pi):
        return ["Pi"]
    if isinstance(e, Lin):
        return ["lin", lin_to_flat(e.lin)]
    if isinstance(e, Add):
        return ["Add", *[expr_to_json(a) for a in e.args]]
    if isinstance(e, Mul):
        return ["Mul", *[expr_to_json(a) for a in e.args]]
    if isinstance(e, _UNARY):
        return [type(e).__name__, expr_to_json(e.arg)]
    if isinstance(e, Pow):
        return ["Pow", expr_to_json(e.base), expr_to_json(e.exponent)]
    if isinstance(e, Polygamma):
        return ["Polygamma", e.order, expr_to_json(e.arg)]
    if isinstance(e, Pochhammer):
        return ["Pochhammer", expr_to_json(e.base), lin_to_flat(e.count)]
    if isinstance(e, FiniteSum):
        return ["FiniteSum", e.index.name, lin_to_flat(e.lower),
                lin_to_flat(e.upper), expr_to_json(e.body)]
    if isinstance(e, WatsonRef):
        return ["WatsonRef", expr_to_json(e.a), expr_to_json(e.b), expr_to_json(e.c),
                lin_to_flat(e.m), lin_to_flat(e.n)]
    raise TypeError(f"unknown node {e!r}")


def expr_from_json(j) -> Expr:
    from .errors import ParseError

    if not isinstance(j, list) or not j:
        raise ParseError(f"bad expression node {j!r}")
    tag = j[0]
    try:
        if tag == "Const":
            return Const(frac_from_str(j[1]))
        if tag == "Pi":
            return PI_CONST
        if tag == "lin":
            return Lin(lin_from_flat(j[1]))
        if tag == "Add":
            return Add(tuple(expr_from_json(a) for a in j[1:]))
        if tag == "Mul":
            return Mul(tuple(expr_from_json(a) for a in j[1:]))
        for node in _UNARY:
            if tag == node.__name__:
                return node(expr_from_json(j[1]))
        if tag == "Pow":
            return Pow(expr_from_json(j[1]), expr_from_json(j[2]))
        if tag == "Polygamma":
            return Polygamma(int(j[1]), expr_from_json(j[2]))
        if tag == "Pochhammer":
            return Pochhammer(expr_from_json(j[1]), lin_from_flat(j[2]))
        if tag == "FiniteSum":
            return FiniteSum(sym(j[1]), lin_from_flat(j[2]), lin_from_flat(j[3]),
                             expr_from_json(j[4]))
        if tag == "WatsonRef":
            return WatsonRef(expr_from_json(j[1]), expr_from_json(j[2]),
                             expr_from_json(j[3]), lin_from_flat(j[4]), lin_from_flat(j[5]))
    except (IndexError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed {tag!r} node: {exc}") from None
    raise ParseError(f"unknown expression tag {tag!r}")
