"""Generalized Watson, Dixon, and Whipple elements at integer offsets.

The three classical theorems evaluate one ₃F₂(1) each; their *contiguous*
elements shift the parameters by integers:

    Watson   W_{m,n}(a,b,c) = ₃F₂(a, b, c; (a+b+1+m)/2, 2c+n; 1)
    Dixon    X_{m,n}(a,b,c) = ₃F₂(a, b, c; 1+m+a−b, 1+m+n+a−c; 1)
    Whipple  P_{m,n}(a,b,c) = ₃F₂(a, b, 1−b+m+n; c, 1+2a+m−c; 1)

``watson_element`` reaches any (m, n) with |m|, |n| <= ``MAX_OFFSET`` from
four closed-form seeds (``anchor_value``, from the entries of
``anchor_entries``).  Each parity of m is one contiguity class, since the
lower parameter (a+b+1+m)/2 moves by ½ per unit of m, and any three
contiguous ₃F₂(1) satisfy a linear relation, so two seeds per class fix
it: W(0, 0) and W(0, 1) for even m, W(−1, 0) and W(−1, 1) for odd m.
Three three-term stencils walk the rest.  The n-step (n by 1) runs in the
seed column only; the mixed step W(m+2, n) = α·W(m, n) + β·W(m, n+1) is
taken once, to the column two above the seeds; the m-step (m by 2) goes
on from there.  Each is run forward above the seeds and solved for its
lowest term below them.  Dixon and Whipple elements are W at shifted
arguments times the prefactor of a Thomae variant (``_CONVERSIONS``); the
symbolic maps (``x_to_w``, ``w_to_x``, ``p_from_w``, ``p_from_x``) expose both.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import Optional

from .errors import (AnchorPole, DivergentSeries, ExceptionalCase, Hyp321Error,
                     LowerPole, NoConvergence, NoConvergentCheck,
                     NonFiniteParameter, NonFiniteValue, PoleError, ShapeError,
                     SingularRecursionPath)
from .expr import (Expr, Gamma, Lin, LinExpr, Mul, Recip, eval_expr,
                   is_near_nonpositive_integer, nearest_integer, substitute,
                   sym)
from .series import ParamSet, check_tol, sum_series_numeric
from .thomae import ThomaeVariant, gamma_args

__all__ = [
    "FAMILIES", "MAX_OFFSET", "ContigQuery", "family_params", "anchor_entries",
    "anchor_value", "watson_element", "dixon_element", "whipple_element",
    "x_to_w", "w_to_x", "p_from_w", "p_from_x", "dixon_swap",
]

FAMILIES = ("watson", "dixon", "whipple")

#: relative threshold below which a recursion denominator is treated as zero
SINGULAR_TOL = 1e-9

#: the largest |m| and |n| of an element: the lattice stores every node from
#: the anchors to the target (about |m|/2 + 2|n|), so a larger one is refused
MAX_OFFSET = 10_000

_A, _B, _C = sym("a"), sym("b"), sym("c")
_M, _N = sym("m"), sym("n")

Numeric = complex


# ---------------------------------------------------------------------------
# Query description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContigQuery:
    """A contiguous element request: family, parameters, and offsets."""

    family: str
    a: Numeric
    b: Numeric
    c: Numeric
    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):  # an integral float such as 2.0 is accepted
            k = getattr(self, name)
            if not (isinstance(k, Integral) or isinstance(k, float) and k.is_integer()):
                raise ShapeError(f"offset {name} = {k!r} is not an integer")
            object.__setattr__(self, name, int(k))
        if self.family not in FAMILIES:
            raise ShapeError(f"unknown family {self.family!r}")
        for x in (self.a, self.b, self.c):
            if not cmath.isfinite(x):
                raise NonFiniteParameter(f"parameter {x} is not finite")
        if max(abs(self.m), abs(self.n)) > MAX_OFFSET:
            raise ShapeError(f"offset ({self.m},{self.n}) is beyond "
                             f"|m|, |n| <= {MAX_OFFSET}")

    def series_params(self) -> tuple[tuple[Numeric, ...], tuple[Numeric, ...]]:
        """Upper/lower parameters of the defining ₃F₂."""
        return family_params(self.family, self.a, self.b, self.c, self.m, self.n)


def family_params(family: str, a, b, c, m, n) -> tuple[tuple, tuple]:
    """Upper/lower parameters of ``family``'s ₃F₂, as numbers or ``LinExpr``s."""
    if family == "watson":
        return (a, b, c), ((a + b + 1 + m) / 2, 2 * c + n)
    if family == "dixon":
        return (a, b, c), (1 + m + a - b, 1 + m + n + a - c)
    return (a, b, 1 - b + m + n), (c, 1 + 2 * a + m - c)


# ---------------------------------------------------------------------------
# The Watson lattice
# ---------------------------------------------------------------------------

#: (m, n) -> (entry id, permutation sending (a, b, c) of the query to the
#: entry's own (a, b, c) symbols); permutation[i] is the index into the
#: query triple bound to the i-th entry symbol.  Two seeds per parity of m:
#: n = 0 and 1 of the seed column, 0 for even m and −1 for odd m.
_ANCHOR_SPEC: dict[tuple[int, int], tuple[str, tuple[int, int, int]]] = {
    (0, 0): ("EXT.W00", (0, 1, 2)),
    (0, 1): ("EQ.15", (0, 1, 2)),
    (-1, 0): ("C.5", (0, 1, 2)),
    (-1, 1): ("B.44", (0, 2, 1)),
}


@lru_cache(maxsize=1)
def anchor_entries() -> dict:
    """(m, n) -> (database entry, permutation) of the four seeds, read from
    the built-in database on first use; see ``_ANCHOR_SPEC``."""
    from .database import get_entry, seed_db
    db = seed_db()
    return {key: (get_entry(db, eid), perm)
            for key, (eid, perm) in _ANCHOR_SPEC.items()}


def anchor_value(m: int, n: int, a: Numeric, b: Numeric, c: Numeric) -> Numeric:
    """The seed W_{m,n}(a, b, c) from its closed form; a gamma pole in it
    raises ``AnchorPole``."""
    entry, perm = anchor_entries()[(m, n)]
    triple = (a, b, c)
    assignment = {_A: triple[perm[0]], _B: triple[perm[1]], _C: triple[perm[2]]}
    try:
        return eval_expr(entry.rhs, assignment)
    except PoleError as exc:
        raise AnchorPole(
            f"anchor W({m},{n}) ({entry.id}) hits a gamma pole: {exc}") from exc


class _WatsonLattice:
    """W values at fixed numeric (a, b, c), each from the two seeds of its
    parity class of m."""

    def __init__(self, a: Numeric, b: Numeric, c: Numeric):
        self.a, self.b, self.c = complex(a), complex(b), complex(c)
        self.memo: dict[tuple[int, int], complex] = {}
        self.scale = 1.0 + abs(self.a) + abs(self.b) + abs(self.c)

    def _check_denominator(self, d: complex, where: str,
                           degree: int = 3) -> complex:
        """``d``, a polynomial of ``degree`` in (a, b, c), unless it is zero
        to ``SINGULAR_TOL`` relative to the parameter scale."""
        if abs(d) < SINGULAR_TOL * self.scale ** degree:
            raise SingularRecursionPath(
                f"recursion denominator vanished at {where} "
                f"(|d| = {abs(d):.3g})")
        return d

    def _n_step(self, m: int, n: int) -> tuple[complex, complex]:
        """(c1, c2) with W(m, n) = c1·W(m, n−1) + c2·W(m, n−2)."""
        a, b, c = self.a, self.b, self.c
        d = 2 * self._check_denominator(
            (n + c - 1) * (1 - n - 2 * c + b) * (1 - n - 2 * c + a),
            f"n-step at (m,n)=({m},{n})")
        poly = (-3 * n * a - 3 * n * b - 11 * n + 2 * m * c - 4 * c * a
                - 4 * c * b - 16 * c + 8 + 12 * c * n + 4 * a + 4 * b
                - 2 * m + 8 * c ** 2 + 4 * n ** 2 + 2 * a * b + m * n)
        c1 = (2 * c + n - 1) * poly / d
        c2 = (2 * c + n - 1) * (2 * c + n - 2) * (a + b - 2 * c + 3 - m - 2 * n) / d
        return c1, c2

    def _m_step(self, m: int, n: int) -> tuple[complex, complex]:
        """(A, B) with W(m, n) = A·W(m−2, n) + B·W(m−4, n)."""
        a, b, c = self.a, self.b, self.c
        d = self._check_denominator(
            (a - b - m + 1) * (a - b + m - 1) * (a + b - 2 * c + m - 1),
            f"m-step at (m,n)=({m},{n})")
        ca = -2 * (a + b + m - 1) * (
            -a ** 2 + 2 * a * c + a * n - b ** 2 + 2 * b * c + b * n
            - 2 * c + m ** 2 + m * n - 4 * m - 3 * n + 5) / d
        cb = -(a + b + m - 3) * (a + b + m - 1) * (a + b - 2 * c + 3 - m - 2 * n) / d
        return ca, cb

    def _mixed_step(self, m: int, n: int) -> tuple[complex, complex]:
        """(α, β) with W(m, n) = α·W(m−2, n) + β·W(m−2, n+1).

        With d, e the lower parameters of W(m−2, n) and s = d + e − a − b − c,
        F(d+1, e) = α·F(d, e) + β·F(d, e+1) for γ = (d−e)/(s·d + ab + bc + ca
        − de − abc/d), α = γ·s and β = 1 − α − γ·abc/(de).  γ's denominator
        is (d−a)(d−b)(d−c)/d, which is how it is computed and checked.  At
        d = e, γ = 0 and W(m, n) = W(m−2, n+1)."""
        a, b, c = self.a, self.b, self.c
        d, e = (a + b - 1 + m) / 2, 2 * c + n
        den = (d - a) * (d - b) * (d - c)
        where = f"mixed step at (m,n)=({m},{n})"
        self._check_denominator(d * e, where, 2)
        self._check_denominator(den, where)
        alpha = d * (d - e) * (d + e - a - b - c) / den
        return alpha, 1 - alpha - (d - e) * a * b * c / (e * den)

    def value(self, m: int, n: int) -> complex:
        """W(m, n).  Pending nodes wait on a stack, not in Python recursion,
        so the depth does not grow with the offset.  A node's stencil is set
        up (its denominators checked) before its operands are computed, the
        first operand first, as in a recursion."""
        memo, stack = self.memo, [((m, n), None)]
        while stack:
            key, stencil = stack.pop()
            if stencil is not None:
                solve, c1, c2, (first, second) = stencil
                w1, w2 = memo[first], memo[second]
                memo[key] = (w1 - c1 * w2) / c2 if solve else c1 * w1 + c2 * w2
            elif key in memo:
                continue
            elif key in _ANCHOR_SPEC:
                memo[key] = anchor_value(*key, self.a, self.b, self.c)
            else:
                stencil = self._stencil(*key)
                first, second = stencil[3]
                stack += ((key, stencil), (second, None), (first, None))
        return memo[(m, n)]

    def _stencil(self, m: int, n: int) -> tuple:
        """``(solve, c1, c2, operands)`` of a non-seed node.  In the seed
        column (0 for even m, −1 for odd m) it is the n-step; two columns
        above, the mixed step from the seed column at n and n + 1; beyond
        that, the m-step (stride 2).  A node below the seeds (n < 0 in the
        seed column, or m below it) solves its stencil two strides up for
        the lowest term: W = (first − c1·second)/c2.  Otherwise W = c1·first
        + c2·second."""
        seed = -(m % 2)
        if m == seed + 2:
            return (False, *self._mixed_step(m, n), ((m - 2, n), (m - 2, n + 1)))
        if m == seed:
            step, axis, dm, dn, below = self._n_step, "n", 0, 1, n < 0
        else:
            step, axis, dm, dn, below = self._m_step, "m", 2, 0, m < seed
        if not below:
            return (False, *step(m, n),
                    ((m - dm, n - dn), (m - 2 * dm, n - 2 * dn)))
        top = (m + 2 * dm, n + 2 * dn)
        c1, c2 = step(*top)
        if abs(c2) < SINGULAR_TOL:
            raise SingularRecursionPath(
                f"{axis}-step at (m,n)=({top[0]},{top[1]}) cannot be inverted")
        return True, c1, c2, (top, (m + dm, n + dn))


# ---------------------------------------------------------------------------
# Symbolic conversion maps
# ---------------------------------------------------------------------------

def _coerce(x) -> LinExpr:
    if isinstance(x, complex):
        if abs(x.imag) > 1e-12 * max(1.0, abs(x.real)):
            raise ShapeError("symbolic maps take real or exact-rational "
                             "arguments")
        x = x.real
    if isinstance(x, float):
        x = Fraction(x)
    return LinExpr.of(x)


#: (source, target) -> (variant, target_args): ``variant`` sends the source
#: family at (a, b, c, m, n) to the target family at ``target_args(a, b, c, m,
#: n)``, m, n.  The arguments are not read off the image: the lattice
#: amplifies a reordering of their float sums.
_CONVERSIONS = {
    ("dixon", "watson"): (ThomaeVariant(3), lambda a, b, c, m, n: (
        1 + m + a - b * 2, a, 1 + m + a - b - c)),
    ("watson", "dixon"): (ThomaeVariant(1, (1, 2, 0), (1, 0)), lambda a, b, c, m, n: (
        c * 2 + n - a, (b - a + m + 1) / 2, (1 + m - a - b) / 2 + c + n)),
    ("whipple", "watson"): (ThomaeVariant(1, (0, 2, 1)), lambda a, b, c, m, n: (
        c - b, a * 2 - c + m + 1 - b, a - n)),
    ("whipple", "dixon"): (ThomaeVariant(3, (2, 0, 1), (1, 0)), lambda a, b, c, m, n: (
        a * 2 - b - c + m + 1, 1 + a - c + m, 1 - b + m + n)),
}


def _quotient(source: str, variant: ThomaeVariant) -> Expr:
    """∏Γ(num)·1/∏Γ(den) over ``variant``'s gamma arguments at ``source``."""
    symbols = map(LinExpr.of, (_A, _B, _C, _M, _N))
    num, den = gamma_args(variant, ParamSet(*family_params(source, *symbols)))
    gammas = lambda args: tuple(Gamma(Lin(x)) for x in args)
    return Mul((*gammas(num), Recip(Mul(gammas(den)))))


#: the gamma quotient of each conversion: source = quotient · target
_QUOTIENTS = {key: _quotient(key[0], v) for key, (v, _) in _CONVERSIONS.items()}


def _convert(source: str, target: str, a, b, c, m, n
             ) -> tuple[tuple[LinExpr, ...], Expr]:
    """The target's (a, b, c, m, n) and the quotient at the source's."""
    a, b, c, m, n = map(_coerce, (a, b, c, m, n))
    return ((*_CONVERSIONS[source, target][1](a, b, c, m, n), m, n),
            substitute(_QUOTIENTS[source, target],
                       {_A: a, _B: b, _C: c, _M: m, _N: n}))


def x_to_w(a, b, c, m, n) -> tuple[tuple[LinExpr, ...], Expr]:
    """X_{m,n}(a,b,c) = W_{m,n}(mapped args) · prefactor."""
    return _convert("dixon", "watson", a, b, c, m, n)


def w_to_x(a, b, c, m, n) -> tuple[tuple[LinExpr, ...], Expr]:
    """W_{m,n}(a,b,c) = X_{m,n}(mapped args) · prefactor."""
    return _convert("watson", "dixon", a, b, c, m, n)


def p_from_w(a, b, c, m, n) -> tuple[tuple[LinExpr, ...], Expr]:
    """P_{m,n}(a,b,c) = W_{m,n}(mapped args) · prefactor."""
    return _convert("whipple", "watson", a, b, c, m, n)


def p_from_x(a, b, c, m, n) -> tuple[tuple[LinExpr, ...], Expr]:
    """P_{m,n}(a,b,c) = X_{m,n}(mapped args) · prefactor."""
    return _convert("whipple", "dixon", a, b, c, m, n)


def dixon_swap(a, b, c, m, n) -> tuple:
    """The Dixon index symmetry X_{m,n}(a,b,c) = X_{m+n,−n}(a,c,b).

    It holds verbatim: swapping b and c and re-indexing permutes the two
    lower parameters of the defining ₃F₂.
    """
    return (a, c, b, m + n, -n)


# ---------------------------------------------------------------------------
# Numeric elements
# ---------------------------------------------------------------------------

def _cross_check(query: ContigQuery, value: complex, rel_tol: float) -> None:
    upper, lower = query.series_params()
    try:
        ref = sum_series_numeric(list(upper), list(lower), rel_tol=rel_tol / 10).value
    except (DivergentSeries, NoConvergence, LowerPole) as exc:
        err = NoConvergentCheck(
            f"no convergent series cross-check for {query.family} "
            f"({query.m},{query.n}): {exc}")
        err.value = value
        raise err from exc
    err = abs(value - ref) / max(1.0, abs(ref))
    if not err <= rel_tol:  # a NaN error never agrees
        raise Hyp321Error(
            f"{query.family} element ({query.m},{query.n}) disagrees with the "
            f"direct series: {value} vs {ref} (rel err {err:.3g})")


def _checked(query: ContigQuery, value: complex,
             rel_tol: Optional[float]) -> complex:
    """``value``, raised as NonFiniteValue when it is NaN or infinite and
    cross-checked when ``rel_tol`` is given."""
    if not cmath.isfinite(value):
        raise NonFiniteValue(f"{query.family} element ({query.m},{query.n}) "
                             f"is not finite: {value}")
    if rel_tol is not None:
        _cross_check(query, value, rel_tol)
    return value


def watson_element(a: Numeric, b: Numeric, c: Numeric, m: int, n: int,
                   rel_tol: Optional[float] = None) -> complex:
    """W_{m,n}(a, b, c) by lattice recursion from the two seeds of m's parity.

    When ``rel_tol`` is given the result is cross-checked against direct
    series summation; ``NoConvergentCheck`` (carrying ``.value``) is raised
    if no convergent check exists.  All three elements raise
    ``NonFiniteValue`` for a NaN or infinite value.
    """
    if rel_tol is not None:
        check_tol(rel_tol)
    query = ContigQuery("watson", a, b, c, m, n)
    return _checked(query, _WatsonLattice(a, b, c).value(query.m, query.n),
                    rel_tol)


def _via_watson(query: ContigQuery, rel_tol: Optional[float]) -> complex:
    """W at the (family, "watson") conversion's arguments times its quotient."""
    key = query.family, "watson"
    a, b, c, m, n = query.a, query.b, query.c, query.m, query.n
    value = watson_element(*_CONVERSIONS[key][1](a, b, c, m, n), m, n)
    try:
        value *= eval_expr(_QUOTIENTS[key], {_A: a, _B: b, _C: c, _M: m, _N: n})
    except PoleError as exc:
        raise PoleError(f"gamma quotient pole: {exc}") from exc
    return _checked(query, value, rel_tol)


def dixon_element(a: Numeric, b: Numeric, c: Numeric, m: int, n: int,
                  rel_tol: Optional[float] = None) -> complex:
    """X_{m,n}(a, b, c) via the Watson lattice at shifted arguments."""
    if rel_tol is not None:
        check_tol(rel_tol)
    return _via_watson(ContigQuery("dixon", a, b, c, m, n), rel_tol)


def whipple_element(a: Numeric, b: Numeric, c: Numeric, m: int, n: int,
                    rel_tol: Optional[float] = None) -> complex:
    """P_{m,n}(a, b, c) via the Watson lattice at shifted arguments.

    Raises ``ExceptionalCase`` for m = n = 0 with ``a`` a non-positive
    integer and ``b`` non-integer, where both conversion routes break down.
    """
    if rel_tol is not None:
        check_tol(rel_tol)
    query = ContigQuery("whipple", a, b, c, m, n)
    if (query.m == 0 and query.n == 0
            and is_near_nonpositive_integer(complex(a))
            and abs(complex(b).imag) < 1e-9
            and nearest_integer(complex(b), 1e-9) is None):
        raise ExceptionalCase(
            "the Whipple conversion fails at m = n = 0 when a is a "
            "non-positive integer and b is not an integer")
    return _via_watson(query, rel_tol)
