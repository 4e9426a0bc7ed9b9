"""Exact symbolic parameter algebra and a numeric evaluator for closed-form trees.

The algebraic atoms are :class:`LinExpr` values: affine combinations of named
symbols with exact rational (``fractions.Fraction``) coefficients.  Closed-form
right-hand sides are immutable :class:`Expr` trees built from gamma, trig,
polygamma, Pochhammer, powers, finite sums and references to generalized
Watson elements.  Everything here is a pure value; evaluation is the only
numeric operation.

Each node type is described once, by its dataclass: ``SHAPES`` reads its
fields and their kinds from the annotations, and ``CALL_NAMES`` names the
function nodes of the grammar.  Every walk of a tree goes through these two
tables but one: ``eval_expr`` walks the tree on each call, each node by its
entry in ``_EVAL``, and keeps nothing between calls.  ``LinExpr.eval`` is
the one evaluator of a linear form: it sums in floats while its values are
real, which is the real part of the complex sum bit for bit, and Γ of such a
sum, or of a number, is ``math.gamma``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (GammaOverflow, NonFiniteParameter, NonIntegerSumBound,
                     ParseError, PoleError, UnboundSymbol)

Q = Fraction

#: Reserved names that always denote non-negative integer symbols.
INTEGER_SYMBOL_NAMES = frozenset({"n", "m", "L", "k", "N", "M"})

#: Distance within which a value counts as an integer: gamma/polygamma raise
#: PoleError this close to a non-positive one, and the oracle's termination,
#: lower-pole and Karlsson–Minton tests use it too.
POLE_TOL = 1e-12

#: Deepest tree, in nested nodes, read from text (the parser bounds what it
#: may build) or JSON; deeper input is a ParseError, not a RecursionError
#: in the reader or in a later walk of the tree.
MAX_DEPTH = 100

#: Highest polygamma order read from text or JSON; the database uses 0 and
#: 1.  Beyond order 170 ψ overflows a float wherever |z| <= 1, and mpmath's
#: time grows with the order: seconds at 10^5, no answer in 20 s at 10^7.
MAX_POLYGAMMA_ORDER = 200


@dataclass(frozen=True, order=True)
class Symbol:
    name: str
    kind: str = "continuous"  # "continuous" | "integer"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"symbol name {self.name!r} is not a string")
        if self.kind not in ("continuous", "integer"):
            raise ValueError(f"bad symbol kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.kind)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # a pickled hash is stale under another hash seed
        return Symbol, (self.name, self.kind)


@lru_cache(maxsize=4096)
def sym(name: str) -> Symbol:
    """Make a symbol, honouring the reserved integer names (interned)."""
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
    @cached_property
    def floats(self) -> Optional[tuple]:
        """``(const, ((symbol, coefficient), ...))`` in floats, or None when
        a number is too large for a float; built on first use, not pickled."""
        try:  # n / d is float(Fraction) without its two ABC dispatches
            return (self.const.numerator / self.const.denominator,
                    tuple([(s, c.numerator / c.denominator) for s, c in self.terms]))
        except OverflowError:
            return None

    def real_sum(self, assignment: Mapping[Symbol, complex]) -> Optional[float]:
        """The value in floats while every value is real (a float, an int or
        a complex with imaginary part ±0.0) and the sum finite, else None."""
        try:
            total, terms = self.floats  # a TypeError when it is None
            for s, c in terms:
                x = assignment[s]
                if type(x) is complex and not x.imag:
                    x = x.real
                elif type(x) is not float and type(x) is not int:
                    return None
                total += c * x
        except (KeyError, OverflowError, TypeError):
            return None
        return total if type(total) is float and total - total == 0 else None

    def eval(self, assignment: Mapping[Symbol, complex]) -> complex:
        total = self.real_sum(assignment)  # the complex sum's real part, bit for bit
        if total is not None:
            return complex(total)
        # n / d is complex(Fraction) without its two ABC dispatches
        try:
            total = complex(self.const.numerator / self.const.denominator)
            for s, c in self.terms:
                if s not in assignment:
                    raise UnboundSymbol(s.name)
                total += complex(c.numerator / c.denominator) * complex(assignment[s])
        except OverflowError:
            raise NonFiniteParameter(
                f"parameter {self} is too large for a float") from None
        return total

    def __getstate__(self):  # without the float form and the hash
        return {"terms": self.terms, "const": self.const}

    @cached_property
    def _hash(self) -> int:
        return hash((self.terms, self.const))  # the dataclass hash, kept

    def __hash__(self) -> int:
        return self._hash

    def subs(self, mapping: Mapping[Symbol, "LinExpr"]) -> "LinExpr":
        return combine([c for _, c in self.terms],
                       [mapping.get(s, LinExpr.of(s)) for s, _ in self.terms],
                       -self.const)

    def __str__(self) -> str:
        parts = [s.name if c == 1 else f"-{s.name}" if c == -1 else f"{c}*{s.name}"
                 for s, c in self.terms]
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}"
                                  for p in parts[1:])


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


def int_rows(forms: Sequence[LinExpr]
             ) -> tuple[tuple[Symbol, ...], list[list[int]], int]:
    """``forms`` as integer rows over one common denominator.

    Returns ``(syms, rows, den)``: the symbols of ``forms`` in sorted order,
    and for each form its coefficients on ``syms`` followed by its constant,
    all multiplied by ``den``, the least common denominator of ``forms``.
    ``row_lin`` is the inverse.
    """
    syms = tuple(sorted({s for f in forms for s, _ in f.terms}))
    den = math.lcm(*(c.denominator for f in forms for _, c in f.terms),
                   *(f.const.denominator for f in forms))
    col = {s: i for i, s in enumerate(syms)}
    rows = []
    for f in forms:
        row = [0] * len(syms)
        for s, c in f.terms:
            row[col[s]] = c.numerator * (den // c.denominator)
        row.append(f.const.numerator * (den // f.const.denominator))
        rows.append(row)
    return syms, rows, den


@lru_cache(maxsize=256)
def slot_rows(slots: tuple[LinExpr, ...]) -> tuple:
    """``int_rows`` of a slot tuple, with tuple rows, kept per process: a
    compiled template and Thomae images of one parameter set share it."""
    syms, rows, den = int_rows(slots)
    return syms, tuple(map(tuple, rows)), den


def row_lin(syms: Sequence[Symbol], row: Sequence[int], den: int) -> LinExpr:
    """The form ``row / den`` over ``syms``, its constant last."""
    return LinExpr(tuple((s, Q(n, den)) for s, n in zip(syms, row) if n),
                   Q(row[-1], den))


def combine_rows(matrix: Sequence[Sequence[int]],
                 rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """``matrix @ rows``: each row of ``matrix`` combines the integer rows."""
    cols = list(zip(*rows))
    return [tuple([sum(map(operator.mul, r, col)) for col in cols])
            for r in matrix]


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

#: field kinds, written as the node dataclasses annotate them; a bound index
#: is bound in the node's subtrees, not in its LinExpr fields
EXPR, EXPRS, LIN, INDEX, FRAC, INT = (
    "Expr", "tuple[Expr, ...]", "LinExpr", "Symbol", "Fraction", "int")

#: every node type: its fields in order, as (name, kind) pairs
SHAPES = {node: tuple((f.name, f.type) for f in fields(node))
          for node in Expr.__subclasses__()}

#: the function nodes of the grammar, with the names they are written with
CALL_NAMES = {Gamma: "G", Sin: "sin", Cos: "cos", Polygamma: "psi",
              Pochhammer: "poch", FiniteSum: "Sum", WatsonRef: "W"}

#: the tag of each node type in the JSON form
JSON_TAGS = {node: "lin" if node is Lin else node.__name__ for node in SHAPES}


def _fields(e: Expr) -> Iterator[tuple[str, object]]:
    """The (kind, value) of each field of ``e``, in order."""
    return ((kind, getattr(e, name)) for name, kind in SHAPES[type(e)])


def _subtrees(e: Expr) -> Iterator[Expr]:
    for kind, v in _fields(e):
        if kind == EXPR:
            yield v
        elif kind == EXPRS:
            yield from v


def _index(e: Expr) -> Optional[Symbol]:
    """The sum index that ``e`` binds in its subtrees, if any."""
    return next((v for kind, v in _fields(e) if kind == INDEX), None)


def free_symbols(e: Expr) -> frozenset[Symbol]:
    """Free symbols of a tree (a sum index is bound in its body only); a
    subtree that occurs more than once in ``e`` is walked once."""
    return _free_symbols(e, {})


def _free_symbols(e: Expr, memo: dict[int, frozenset[Symbol]]) -> frozenset[Symbol]:
    """``free_symbols(e)``, kept in ``memo`` by node identity for the rest
    of one walk; a Lin leaf, the most common node, is not kept."""
    if type(e) is Lin:
        return e.lin.free_symbols()
    out = memo.get(id(e))
    if out is None:
        body, bounds, index = frozenset(), frozenset(), None
        for name, kind in SHAPES[type(e)]:  # not _fields: this is a hot path
            v = getattr(e, name)
            if kind == EXPR:
                body |= _free_symbols(v, memo)
            elif kind == EXPRS:
                body = body.union(*[_free_symbols(x, memo) for x in v])
            elif kind == LIN:
                bounds |= v.free_symbols()
            elif kind == INDEX:
                index = v
        out = memo[id(e)] = (body - {index} if index else body) | bounds
    return out


# ---------------------------------------------------------------------------
# Numeric kernels
# ---------------------------------------------------------------------------

def is_near_nonpositive_integer(z: complex) -> bool:
    """True when ``z`` is within POLE_TOL of a non-positive integer."""
    if abs(z.imag) > POLE_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= POLE_TOL


def nearest_integer(v: complex, tol: float, strict: bool = False) -> Optional[int]:
    """The integer nearest ``v`` when ``v.imag`` and the distance to it are
    both at most ``tol`` (below it when ``strict``), else None."""
    within = operator.lt if strict else operator.le
    r = round(v.real) if within(abs(v.imag), tol) else None
    return r if r is not None and within(abs(v.real - r), tol) else None


def cgamma(z: complex) -> complex:
    """Complex gamma: ``math.gamma`` on the real axis (imaginary part +0.0),
    ``exp(loggamma(z))`` off it.

    Raises PoleError when ``z`` is within POLE_TOL of a non-positive
    integer, GammaOverflow where Γ overflows or underflows to 0.
    """
    z = complex(z)
    if z.imag == 0:
        return complex(_real_gamma(z.real))
    log = loggamma(z)
    try:
        g = cmath.exp(log)
    except OverflowError:
        g = 0j
    if g == 0:
        raise GammaOverflow(f"gamma out of range at {z}")
    return g


def _real_gamma(x: float) -> float:
    """``math.gamma`` after the pole test; raises as ``cgamma`` does."""
    if is_near_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {complex(x)}")
    try:
        g = math.gamma(x)
    except OverflowError:
        g = 0.0
    if g == 0:
        raise GammaOverflow(f"gamma out of range at {x}")
    return g


#: coefficients B_{2j} / (2j (2j - 1)) of Stirling's series, j = 1..8
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)


def loggamma(z: complex) -> complex:
    """A logarithm of Γ(z): ``exp(loggamma(z)) == Γ(z)``, on any branch.

    Real arguments use ``math.lgamma`` with the sign of Γ as an imaginary
    part of 0 or π; complex ones reflect to Re(z) >= 1/2, shift to
    |z| >= 10 and sum Stirling's series.  Raises PoleError like ``cgamma``.
    """
    z = complex(z)
    if is_near_nonpositive_integer(z):
        raise PoleError(f"gamma pole at {z}")
    if z.imag == 0:
        x = z.real
        return complex(math.lgamma(x),
                       math.pi if x < 0 and math.floor(x) % 2 else 0.0)
    if z.real < 0.5 and abs(z.imag) <= 1:
        return cmath.log(math.pi / cmath.sin(math.pi * z)) - loggamma(1.0 - z)
    if z.real < 0.5:  # sin(πz) overflows at large |Im z|, so log sin(πz) is
        # taken as -iπz + log((e^{2iπz} - 1) / 2i), conjugated below the axis
        i = 1j if z.imag > 0 else -1j
        return (math.log(math.pi) + i * math.pi * z - loggamma(1.0 - z)
                - cmath.log((cmath.exp(2 * i * math.pi * z) - 1) / (2 * i)))
    shift = 0j
    while abs(z) < 10.0:
        shift += cmath.log(z)
        z += 1.0
    w = 1.0 / z
    series = sum(c * w ** (2 * j + 1) for j, c in enumerate(_STIRLING))
    return ((z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
            + series - shift)


def cpolygamma(order: int, z: complex) -> complex:
    """Polygamma of non-negative order at a complex point (mpmath); raises
    PoleError at a pole, GammaOverflow where the value is not finite."""
    import mpmath
    z = complex(z)
    if is_near_nonpositive_integer(z):
        raise PoleError(f"polygamma pole at {z}")
    v = complex(mpmath.psi(order, mpmath.mpc(z)))
    if not cmath.isfinite(v):
        raise GammaOverflow(f"polygamma of order {order} out of range at {z}")
    return v


def polygamma_order(k: int) -> int:
    """``k``, read from text or JSON as a polygamma order, when it is in
    0..MAX_POLYGAMMA_ORDER; raises ParseError otherwise."""
    if not 0 <= k <= MAX_POLYGAMMA_ORDER:
        raise ParseError(
            f"polygamma order {k} is not in 0..{MAX_POLYGAMMA_ORDER}")
    return k


def rising_factorial(x: complex, count: int) -> complex:
    """(x)_count as a literal product; negative counts use (x)_{-k} = 1/(x-k)_k."""
    if count >= 0:
        return math.prod((x + j for j in range(count)), start=1.0)
    k = -count
    denom = math.prod((x - k + j for j in range(k)), start=1.0)
    if denom == 0:
        raise PoleError(f"Pochhammer pole: ({x})_{count}")
    return 1.0 / denom


Assignment = Mapping[Symbol, complex]
WatsonFn = Callable[[complex, complex, complex, int, int], complex]


def eval_expr(e: Expr, assignment: Assignment, watson: Optional[WatsonFn] = None) -> complex:
    """Evaluate a closed-form tree at a numeric assignment.

    ``watson`` resolves WatsonRef nodes; leaving it unset raises UnboundSymbol
    if such a node is encountered.  The tree is walked once per call, each
    node by its entry in ``_EVAL``; nothing is kept between calls.
    """
    return _eval(e, assignment, watson)


def _eval(e: Expr, assignment: Assignment, watson: Optional[WatsonFn]) -> complex:
    step = _EVAL.get(type(e))
    if step is None:
        raise TypeError(f"unknown node {e!r}")
    return step(e, assignment, watson)


def _const(q: Fraction) -> complex:
    """``LinExpr((), q).eval({})``, without building the LinExpr."""
    try:
        return complex(q.numerator / q.denominator)
    except OverflowError:
        raise NonFiniteParameter(f"constant {q} is too large for a float") from None


def _add(e: Add, assignment, watson) -> complex:
    total = 0j
    for x in e.args:
        total += _eval(x, assignment, watson)
    return total


def _gamma(e: Gamma, assignment, watson) -> complex:
    """Γ of a number, or of a linear form with a ``real_sum``, is
    ``math.gamma`` of that float; anything else goes through ``cgamma``."""
    arg = e.arg
    if type(arg) is Const:
        return complex(_real_gamma(_const(arg.value).real))
    x = arg.lin.real_sum(assignment) if type(arg) is Lin else None
    if x is None:
        return cgamma(_eval(arg, assignment, watson))
    return complex(_real_gamma(x))


def _recip(v: complex) -> complex:
    if v == 0:
        raise PoleError("division by zero")
    return 1.0 / v


def _power(b: complex, e: complex) -> complex:
    if b != 0:
        try:
            return cmath.exp(e * cmath.log(b))
        except OverflowError:
            raise GammaOverflow(f"power {b}^{e} overflows a float") from None
    if e.real > 0:
        return 0.0
    raise PoleError("0 raised to a non-positive power")


def _pochhammer(x: complex, cnt: complex) -> complex:
    count = nearest_integer(cnt, 1e-12, strict=True)
    return cgamma(x + cnt) / cgamma(x) if count is None else rising_factorial(x, count)


def _integers(forms: Sequence[LinExpr], assignment, what: str) -> list[int]:
    """The linear forms ``forms`` evaluated, then checked integers."""
    values = [f.eval(assignment) for f in forms]
    for v in values:
        if nearest_integer(v, 1e-9) is None:
            raise NonIntegerSumBound(f"{what} {v} is not an integer")
    return [nearest_integer(v, 1e-9) for v in values]


def _finite_sum(e: FiniteSum, assignment, watson) -> complex:
    lo, hi = _integers((e.lower, e.upper), assignment, "sum bound")
    # the definite-sum convention for reversed bounds (see FiniteSum)
    lo, hi, sign = (hi + 1, lo - 1, -1.0) if hi < lo - 1 else (lo, hi, 1.0)
    total: complex = 0.0
    inner = dict(assignment)
    for i in range(lo, hi + 1):  # empty when hi == lo - 1
        inner[e.index] = i
        total += _eval(e.body, inner, watson)
    return sign * total


def _watson_ref(e: WatsonRef, assignment, watson) -> complex:
    if watson is None:
        raise UnboundSymbol("WatsonRef encountered without a watson resolver")
    a, b, c = [_eval(x, assignment, watson) for x in (e.a, e.b, e.c)]
    return watson(a, b, c, *_integers((e.m, e.n), assignment, "Watson offset"))


#: how each node type is evaluated from its fields, its subtrees through
#: ``_eval`` in field order
_EVAL: dict[type, Callable[[Expr, Assignment, Optional[WatsonFn]], complex]] = {
    Const: lambda e, a, w: _const(e.value),
    Pi: lambda e, a, w: complex(math.pi),
    Lin: lambda e, a, w: e.lin.eval(a),
    Add: _add,
    Mul: lambda e, a, w: math.prod([_eval(x, a, w) for x in e.args], start=1.0),
    Neg: lambda e, a, w: -_eval(e.arg, a, w),
    Recip: lambda e, a, w: _recip(_eval(e.arg, a, w)),
    Pow: lambda e, a, w: _power(_eval(e.base, a, w), _eval(e.exponent, a, w)),
    Gamma: _gamma,
    Sin: lambda e, a, w: cmath.sin(_eval(e.arg, a, w)),
    Cos: lambda e, a, w: cmath.cos(_eval(e.arg, a, w)),
    Polygamma: lambda e, a, w: cpolygamma(e.order, _eval(e.arg, a, w)),
    Pochhammer: lambda e, a, w: _pochhammer(_eval(e.base, a, w), e.count.eval(a)),
    FiniteSum: _finite_sum,
    WatsonRef: _watson_ref,
}


def as_real(value: complex, rel: float = 1e-9) -> complex:
    """Collapse to a real number when the imaginary part is negligible."""
    if abs(value.imag) < rel * max(abs(value.real), 1e-300):
        return value.real
    return value


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(e: Expr, mapping: Mapping[Symbol, LinExpr]) -> Expr:
    """Rewrite every Lin leaf (and LinExpr slot) by exact linear substitution.

    A sum's index shadows ``mapping`` in its body.  Where a symbol free in
    the body maps to a target that mentions the index, the index is renamed
    first, so that no target is captured: to its name with ``_`` appended
    until the name is free in neither the body, the sum's bounds nor a
    target.
    """
    index, inner = _index(e), mapping
    if index is not None:
        inner = {s: t for s, t in mapping.items() if s != index}
        body = frozenset().union(*map(free_symbols, _subtrees(e)))
        if any(s in body and t.coeff(index) for s, t in inner.items()):
            taken = body.union(
                *(t.free_symbols() for t in mapping.values()),
                *(v.free_symbols() for kind, v in _fields(e) if kind == LIN))
            fresh = Symbol(index.name + "_", "integer")
            while fresh in taken:
                fresh = Symbol(fresh.name + "_", "integer")
            inner[index], index = LinExpr.of(fresh), fresh
    step = {EXPR: lambda x: substitute(x, inner),
            EXPRS: lambda xs: tuple(substitute(x, inner) for x in xs),
            LIN: lambda form: form.subs(mapping), INDEX: lambda _: index}
    return type(e)(*(step[kind](v) if kind in step else v
                     for kind, v in _fields(e)))


# ---------------------------------------------------------------------------
# Serialization: nested-array text form
# ---------------------------------------------------------------------------

def _frac_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _require(x, kind: type, what: str):
    """``x`` read from JSON, when it is a ``kind`` (a bool is no int)."""
    if not isinstance(x, kind) or isinstance(x, bool):
        raise ParseError(f"{what}: expected {kind.__name__}, got {x!r}")
    return x


def frac_from_str(s: str) -> Fraction:
    try:
        return Fraction(_require(s, str, "rational literal"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}: {exc}") from None


def lin_to_flat(l: LinExpr) -> dict:
    """``lin_to_json`` in one mapping, the constant under ``"const"``."""
    j = lin_to_json(l)
    if "const" in j["coeffs"]:
        raise ParseError("a symbol named 'const' has no flat JSON form")
    return {**j["coeffs"], "const": j["const"]}


def lin_from_flat(d: Mapping[str, str]) -> LinExpr:
    coeffs = dict(_require(d, Mapping, "linear form"))
    return lin_from_json({"const": coeffs.pop("const", "0"), "coeffs": coeffs})


def lin_to_json(l: LinExpr) -> dict:
    """The {"coeffs": ..., "const": ...} form used for ParamSet slots."""
    return {
        "coeffs": {s.name: _frac_to_str(c) for s, c in l.terms},
        "const": _frac_to_str(l.const),
    }


def lin_from_json(d: Mapping) -> LinExpr:
    coeffs = _require(_require(d, Mapping, "linear form").get("coeffs", {}),
                      Mapping, "coeffs")
    return LinExpr.make({sym(_require(name, str, "symbol name")): frac_from_str(v)
                         for name, v in coeffs.items()},
                        frac_from_str(d.get("const", "0")))


def expr_str(e: Expr) -> str:
    """Render an expression in the input grammar (re-parseable)."""
    return _expr_str(e, 0)


def _paren(text: str, level: int, here: int) -> str:
    return f"({text})" if here < level else text


#: operator nodes: (prefix, separator of the subtrees, precedence of the
#: node, precedence the subtrees are printed at)
_OPERATORS = {Add: ("", " + ", 0, 1), Mul: ("", "*", 1, 2),
              Neg: ("-", "", 0, 2), Recip: ("1/", "", 1, 3),
              Pow: ("", "^", 2, 3)}


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
    if type(e) in _OPERATORS:
        prefix, sep, here, inner = _OPERATORS[type(e)]
        return _paren(prefix + sep.join(_expr_str(x, inner)
                                         for x in _subtrees(e)), level, here)
    args = (_expr_str(v, 0) if kind == EXPR else
            v.name if kind == INDEX else str(v) for kind, v in _fields(e))
    return f"{CALL_NAMES[type(e)]}({', '.join(args)})"


def expr_to_json(e: Expr):
    out = [JSON_TAGS[type(e)]]
    for kind, v in _fields(e):
        if kind == EXPRS:
            out.extend(map(expr_to_json, v))
        else:
            out.append(_TO_JSON[kind](v))
    return out


def expr_from_json(j, depth: int = 1) -> Expr:
    """The tree of the JSON form ``j``, a node at nesting ``depth``."""
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels")
    if not isinstance(j, list) or not j:
        raise ParseError(f"bad expression node {j!r}")
    tag, *items = j
    if not isinstance(tag, str) or tag not in _NODE_OF_TAG:
        raise ParseError(f"unknown expression tag {tag!r}")
    shape = SHAPES[_NODE_OF_TAG[tag]]
    if shape and shape[-1][1] == EXPRS:  # the last field takes the rest
        items[len(shape) - 1:] = [items[len(shape) - 1:]]
    if len(items) != len(shape):
        raise ParseError(f"malformed {tag!r} node: {len(shape)} field(s) "
                         f"expected, got {len(items)}")
    return _NODE_OF_TAG[tag](*(
        expr_from_json(x, depth + 1) if kind == EXPR else
        tuple(expr_from_json(y, depth + 1) for y in x) if kind == EXPRS else
        _FROM_JSON[kind](x) for (_, kind), x in zip(shape, items)))


#: how a field of each kind is written to and read from the JSON form
_TO_JSON = {EXPR: expr_to_json, LIN: lin_to_flat, INDEX: lambda s: s.name,
            FRAC: _frac_to_str, INT: int}
_FROM_JSON = {LIN: lin_from_flat, FRAC: frac_from_str,
              INDEX: lambda x: sym(_require(x, str, "sum index")),
              INT: lambda x: polygamma_order(_require(x, int, "integer field"))}
_NODE_OF_TAG = {tag: node for node, tag in JSON_TAGS.items()}
