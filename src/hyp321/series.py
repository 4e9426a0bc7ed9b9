"""Direct-summation oracle for pFq at unit argument, plus parameter classification.

The oracle sums the defining series with the term-ratio recurrence

    t_{k+1} / t_k = prod_i (u_i + k) / (prod_j (l_j + k) * (k + 1)),

adds a polynomial tail correction t_K * (K/s + 1/2) (s = parametric excess),
and refines by Richardson extrapolation between truncations K and 2K.  The
error expansion is in K^{-(s+j)}, so the extrapolation uses the exponent
s + 1, complex when s is; a step whose exponent exceeds the float range is
skipped, as it changes nothing.  The reported error bound is the difference
of the last two extrapolated values.  The ratios come from one table for
k < 1024, then one per doubling block, never longer than that block.  With
real parameters the table is float64, each ratio num * (1/den): numpy
divides complex numbers by Smith's method, which for a real divisor
multiplies by 1/den, so each ratio is the real part of the complex one bit
for bit.  The terms and sums stay complex128: a float64 sum pairs the terms
differently and changes the last digits.

A non-terminating 3F2 that has not converged within ``DIRECT_BUDGET`` terms
(large parameters make the tail expansion valid only for K far beyond
them), or that overflows before, is summed through a Thomae image instead:
F = Γ(e)Γ(f)Γ(s) / (Γ(e')Γ(f')Γ(s')) * F', trying the images in falling
Re(excess), where the series decays fastest.  The prefactor is computed in
log-gamma form, so that Γ(451) does not overflow.  An image is used only
when its sum converges within the same budget with a rounding error
EPS * sum |t_k| (tracked while summing) plus EPS * sum |log Γ| of the
prefactor, relative to F, of at most half the tolerance; its reported error
is the image's own estimate scaled by |prefactor| plus that rounding.  When
no image qualifies the direct sum continues up to ``MAX_TERMS``, or raises
NoConvergence if it overflows.  ``SeriesResult.representation`` names what
was summed.

A terminating sum is exact up to rounding; its bound is EPS * sum (k+1) |t_k|,
as term k carries the rounding of k ratio steps.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (DivergentSeries, LowerPole, NoConvergence,
                     NonFiniteParameter, PoleError, ShapeError)
from .expr import (POLE_TOL, LinExpr, Symbol, combine,
                   is_near_nonpositive_integer, loggamma, nearest_integer, sym)

#: largest positive integer upper-minus-lower difference that makes a sum
#: Karlsson–Minton
KARLSSON_MINTON_KMAX = 3

#: hard cap on the number of summed terms
MAX_TERMS = 2 ** 21  # slightly above 2e6

#: direct terms of a non-terminating 3F2 summed before a Thomae image is tried
DIRECT_BUDGET = 2 ** 14

EPS = sys.float_info.epsilon

#: a Richardson step whose exponent has a larger real part divides by more
#: than 2^1000 and changes nothing a double holds (2.0 ** 1024 overflows)
_MAX_RICHARDSON_EXP = 1000.0


@dataclass(frozen=True)
class ParamSet:
    """Upper/lower parameter lists of a pFq; 3+2 for the 3F2(1) machinery.

    Parameter lists compare as multisets: two ParamSets are equal iff their
    canonically sorted parameter tuples match.
    """

    upper: tuple[LinExpr, ...]
    lower: tuple[LinExpr, ...]

    @staticmethod
    def make(upper: Sequence, lower: Sequence) -> "ParamSet":
        return ParamSet(tuple(LinExpr.of(u) for u in upper),
                        tuple(LinExpr.of(l) for l in lower))

    def key(self) -> tuple:
        return (tuple(sorted(self.upper, key=_lin_key)),
                tuple(sorted(self.lower, key=_lin_key)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def free_symbols(self) -> frozenset[Symbol]:
        out: frozenset[Symbol] = frozenset()
        for p in self.upper + self.lower:
            out |= p.free_symbols()
        return out

    def eval(self, assignment: Mapping[Symbol, complex]) -> tuple[list[complex], list[complex]]:
        return ([p.eval(assignment) for p in self.upper],
                [p.eval(assignment) for p in self.lower])

    def __str__(self) -> str:
        up = ", ".join(str(p) for p in self.upper)
        lo = ", ".join(str(p) for p in self.lower)
        return f"F([{up}], [{lo}]; 1)"


def _lin_key(l: LinExpr):
    return (tuple((s.name, c) for s, c in l.terms), l.const)


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    abs_error_estimate: float
    terms_used: int
    terminated: bool
    #: what was summed: "direct", or the Thomae image with its excess
    representation: str = "direct"


def excess(p: ParamSet) -> LinExpr:
    """Parametric excess: sum of lower minus sum of upper parameters."""
    return combine([-1] * len(p.upper) + [1] * len(p.lower),
                   p.upper + p.lower)


def is_terminating(p: ParamSet, assignment: Mapping[Symbol, complex]) -> bool:
    """True iff some upper parameter evaluates to a non-positive integer."""
    return any(map(is_near_nonpositive_integer,
                   [u.eval(assignment) for u in p.upper]))


def is_karlsson_minton(p: ParamSet, assignment: Mapping[Symbol, complex]) -> bool:
    """True iff some upper minus some lower parameter is an integer in
    1..KARLSSON_MINTON_KMAX."""
    up, lo = p.eval(assignment)
    for u in up:
        for l in lo:
            r = nearest_integer(u - l, POLE_TOL)
            if r is not None and 1 <= r <= KARLSSON_MINTON_KMAX:
                return True
    return False


# ---------------------------------------------------------------------------
# Numeric summation core
# ---------------------------------------------------------------------------

def check_tol(rel_tol: float) -> None:
    """Raise ShapeError unless ``rel_tol`` is a finite positive number."""
    if not 0 < rel_tol < math.inf:  # false for NaN
        raise ShapeError(
            f"rel_tol must be a finite positive number, got {rel_tol!r}")


def sum_series_numeric(upper: Sequence[complex], lower: Sequence[complex],
                       rel_tol: float = 1e-10) -> SeriesResult:
    """Sum pFq(upper; lower; 1) numerically.  See module docstring."""
    check_tol(rel_tol)
    upper = [complex(u) for u in upper]
    lower = [complex(l) for l in lower]
    for x in upper + lower:
        if not cmath.isfinite(x):
            raise NonFiniteParameter(f"parameter {x} is not finite")

    n_term = min((-round(u.real) for u in upper
                  if is_near_nonpositive_integer(u)), default=None)
    k_pole = min((-round(l.real) for l in lower
                  if is_near_nonpositive_integer(l)), default=None)

    if n_term is not None:
        if k_pole is not None and k_pole < n_term:
            raise LowerPole(
                f"lower parameter hits -{k_pole} before termination at {n_term}")
        return _sum_terminating(upper, lower, n_term)

    if k_pole is not None:
        raise LowerPole(f"lower parameter is the non-positive integer -{k_pole}")

    if len(upper) == len(lower) + 1:
        s = sum(lower) - sum(upper)
        if s.real <= 0 or is_near_nonpositive_integer(s):
            raise DivergentSeries(
                f"Re(excess) = {s.real:.6g} <= 0 for a non-terminating series"
                if s.real <= 0 else f"excess {s:.6g} is within POLE_TOL of 0")
        return _sum_infinite(upper, lower, s, rel_tol)
    if len(upper) <= len(lower):
        # entire case: terms decay factorially, plain truncation suffices
        return _sum_infinite(upper, lower, None, rel_tol)
    raise DivergentSeries("series with p > q + 1 diverges at unit argument")


def _sum_terminating(upper, lower, n_term: int) -> SeriesResult:
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    t = 1.0 + 0.0j
    weighted = 0.0
    for k in range(n_term + 1):
        y = t - comp
        new = total + y
        comp = (new - total) - y
        total = new
        weighted += (k + 1) * abs(t)
        if k == n_term:
            break
        num = 1.0 + 0.0j
        for u in upper:
            num *= u + k
        den = (1.0 + k) + 0.0j
        for l in lower:
            den *= l + k
        if den == 0:
            raise LowerPole(f"zero denominator advancing to term {k + 1}")
        t *= num / den
    return SeriesResult(total, EPS * weighted, n_term + 1, True)


def _ratios(upper, lower, k_start: int, k_stop: int) -> np.ndarray:
    """The term ratios t_{k+1} / t_k for k in [k_start, k_stop), float64 if real."""
    k = np.arange(k_start, k_stop, dtype=np.float64)
    real = not any(x.imag for x in upper + lower)
    num = np.ones_like(k, dtype=np.float64 if real else np.complex128)
    for u in upper:
        num *= (u.real if real else u) + k
    den = (k + 1.0).astype(num.dtype, copy=False)
    for l in lower:
        den *= (l.real if real else l) + k
    return num * (1.0 / den) if real else num / den


#: the ratio table first covers k < max(checkpoint, _FIRST_TABLE)
_FIRST_TABLE = 1024

_RICHARDSON_DEPTH = 5


def _doublings(upper, lower, s: Optional[complex], track_abs: bool = False):
    """Yield ``(K, estimate, error, sum of |t_k|)`` at K = 64 * 2^j.

    Corrected truncations V_j at K_j carry an error expansion in
    K^{-(s+1)}, K^{-(s+2)}, ...; a short Richardson table over the doubling
    checkpoints removes the leading terms; a step reads only the previous
    checkpoint's value at its level, so one column is kept.  The error is
    the change of the best estimate since the previous checkpoint (the next
    term in the entire case, s None).  |t_k| is summed only with ``track_abs``.
    """
    checkpoint = 64
    k_next = 0
    t_next = 1.0 + 0.0j
    partial = 0.0 + 0.0j
    abs_sum = 0.0
    col: list[complex] = []  # col[i]: Richardson level i, last checkpoint
    if s is not None:
        p = s.real + 1.0 if s.imag == 0 else s + 1.0

    table_start = table_stop = 0
    while checkpoint <= MAX_TERMS:
        if checkpoint > table_stop:
            table_start, table_stop = k_next, max(checkpoint, _FIRST_TABLE)
            ratios = _ratios(upper, lower, table_start, table_stop)
        terms = np.empty(checkpoint + 1 - k_next, dtype=np.complex128)
        terms[0] = t_next
        block = ratios[k_next - table_start:checkpoint - table_start]
        np.multiply(t_next, block.cumprod(), out=terms[1:])
        # terms covers indices k_next .. checkpoint; keep t_checkpoint for the tail
        partial += complex(terms[:-1].sum())
        if track_abs:
            abs_sum += float(np.abs(terms[:-1]).sum())
        t_cp = complex(terms[-1])
        k_next = checkpoint
        t_next = t_cp

        if s is None:
            yield checkpoint, partial, abs(t_cp), abs_sum
            checkpoint *= 2
            continue

        cur = partial + t_cp * (checkpoint / s + 0.5)
        new = [cur]
        for level, prev in enumerate(col[:_RICHARDSON_DEPTH - 1]):
            q = p + level
            if q.real <= _MAX_RICHARDSON_EXP:
                cur = cur + (cur - prev) / (2.0 ** q - 1.0)
            new.append(cur)
        if len(col) > 1:  # the last checkpoint had an extrapolated estimate
            yield checkpoint, cur, abs(cur - col[-1]), abs_sum
        col = new
        checkpoint *= 2


def _converged(best: complex, err: float, rel_tol: float) -> bool:
    return err <= rel_tol * max(abs(best), 1e-300)


def _sum_infinite(upper, lower, s: Optional[complex], rel_tol: float) -> SeriesResult:
    """Direct summation; a 3F2 that has not converged after DIRECT_BUDGET
    terms, or that overflows, is summed through a Thomae image if one fits."""
    spent = 0
    err = math.inf
    no_image = ""
    with np.errstate(over="ignore", invalid="ignore"):
        for k, best, err, _ in _doublings(upper, lower, s):
            finite = cmath.isfinite(best)
            if finite and _converged(best, err, rel_tol):
                return SeriesResult(best, err, spent + k, False)
            if (k == DIRECT_BUDGET or not finite) and not no_image \
                    and len(upper) == 3 and len(lower) == 2:
                res, spent = _thomae_sum(upper, lower, s, rel_tol)
                if res is not None:
                    return replace(res, terms_used=res.terms_used + k)
                no_image = "; no well-conditioned Thomae image of larger excess"
            if not finite:
                raise NoConvergence(f"direct terms overflow by term {k}{no_image}")
    raise NoConvergence(
        f"no convergence to rel_tol={rel_tol} within {MAX_TERMS} terms "
        f"(last delta {err:.3g}){no_image}")


def _thomae_sum(upper, lower, s: complex, rel_tol: float
                ) -> tuple[Optional[SeriesResult], int]:
    """F = prod Γ(num) / prod Γ(den) * F(image) from the first Thomae image,
    in falling Re(excess) above Re(s), that sums well; also the terms summed.

    An image qualifies when its lower parameters and gamma arguments are
    regular and it converges to ``rel_tol / 2`` within DIRECT_BUDGET terms
    with a rounding error, EPS * sum |t_k| of the image plus EPS * sum
    |log Γ| of the prefactor (relative to F), of at most ``rel_tol / 2``.
    The reported error adds that rounding to the image's own error estimate.
    """
    from .thomae import numeric_images  # thomae imports this module

    images = [(sum(img[3:]) - sum(img[:3]), base, img, num, den)
              for base, img, num, den in numeric_images(upper + lower)]
    images = sorted((im for im in images if im[0].real > s.real),
                    key=lambda im: -im[0].real)
    real = not any(x.imag for x in upper + lower)
    spent = 0
    for s_img, base, img, num, den in images:
        if any(map(is_near_nonpositive_integer, img)):
            continue  # a lower pole, or an image that terminates
        try:
            logs = [loggamma(x) for x in num] + [-loggamma(x) for x in den]
            pref = cmath.exp(sum(logs))
        except (PoleError, OverflowError):
            continue
        k, best, err, abs_sum = _sum_image(img[:3], img[3:], s_img,
                                           rel_tol / 2)
        spent += k
        rounding = EPS * (abs_sum / max(abs(best), 1e-300)
                          + sum(abs(x) for x in logs))
        value = (pref.real if real else pref) * best
        if _converged(best, err, rel_tol / 2) and rounding <= rel_tol / 2 \
                and cmath.isfinite(value):
            excess_str = f"{s_img.real:.6g}" if s_img.imag == 0 \
                else f"{s_img:.6g}"
            rep = f"Thomae base {base} (excess {excess_str})"
            return SeriesResult(value, abs(pref) * err + abs(value) * rounding,
                                spent, False, rep), spent
    return None, spent


def _sum_image(upper, lower, s: complex, rel_tol: float) -> tuple:
    """``(K, estimate, error, sum |t_k|)`` of a direct sum stopped at
    convergence, at DIRECT_BUDGET terms or when its terms overflow."""
    for k, best, err, abs_sum in _doublings(upper, lower, s, track_abs=True):
        if _converged(best, err, rel_tol) or k >= DIRECT_BUDGET \
                or not math.isfinite(abs_sum):
            return k, best, err, abs_sum


def series_pfq(p: ParamSet, assignment: Mapping[Symbol, complex],
               rel_tol: float = 1e-10) -> SeriesResult:
    """Evaluate pFq(p; 1) at a numeric assignment via direct summation."""
    up, lo = p.eval(assignment)
    return sum_series_numeric(up, lo, rel_tol)


# ---------------------------------------------------------------------------
# Verification sampling
# ---------------------------------------------------------------------------

#: fixed irrational stretch keeping random draws away from rational coincidences
IRRATIONAL_OFFSET = 1.0 + math.sqrt(2.0) / 1000.0


def sample_continuous(rng) -> float:
    """Draw a continuous parameter from (0.1, 0.9) with an irrational stretch."""
    return (0.1 + 0.8 * rng.random()) * IRRATIONAL_OFFSET
