"""Direct-summation oracle for pFq at unit argument, plus parameter classification.

The oracle sums the defining series with the term-ratio recurrence

    t_{k+1} / t_k = prod_i (u_i + k) / (prod_j (l_j + k) * (k + 1)),

adds a polynomial tail correction t_K * (K/s + 1/2) (s = parametric excess),
and refines by Richardson extrapolation between truncations K and 2K.  The
reported error bound is the difference of the two corrected truncations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (DivergentSeries, LowerPole, NoConvergence,
                     NonFiniteParameter)
from .expr import LinExpr, Symbol, sym

INT_TOL = 1e-12

#: hard cap on the number of summed terms
MAX_TERMS = 2 ** 21  # slightly above 2e6


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


def excess(p: ParamSet) -> LinExpr:
    """Parametric excess: sum of lower minus sum of upper parameters."""
    out = LinExpr.of(0)
    for l in p.lower:
        out = out + l
    for u in p.upper:
        out = out - u
    return out


def _nonpos_int_index(value: complex, tol: float = INT_TOL) -> Optional[int]:
    """Return k >= 0 when value is (numerically) the non-positive integer -k."""
    if abs(value.imag) > tol:
        return None
    r = round(value.real)
    if r <= 0 and abs(value.real - r) <= tol:
        return -r
    return None


def is_terminating(p: ParamSet, assignment: Mapping[Symbol, complex]) -> bool:
    """True iff some upper parameter evaluates to a non-positive integer."""
    up, _ = p.eval(assignment)
    return any(_nonpos_int_index(u) is not None for u in up)


def is_karlsson_minton(p: ParamSet, assignment: Mapping[Symbol, complex], kmax: int = 3) -> bool:
    """True iff some upper minus some lower parameter is an integer in 1..kmax."""
    up, lo = p.eval(assignment)
    for u in up:
        for l in lo:
            d = u - l
            if abs(d.imag) <= INT_TOL:
                r = round(d.real)
                if 1 <= r <= kmax and abs(d.real - r) <= INT_TOL:
                    return True
    return False


# ---------------------------------------------------------------------------
# Numeric summation core
# ---------------------------------------------------------------------------

def sum_series_numeric(upper: Sequence[complex], lower: Sequence[complex],
                       rel_tol: float = 1e-10) -> SeriesResult:
    """Sum pFq(upper; lower; 1) numerically.  See module docstring."""
    upper = [complex(u) for u in upper]
    lower = [complex(l) for l in lower]
    for x in upper + lower:
        if not cmath.isfinite(x):
            raise NonFiniteParameter(f"parameter {x} is not finite")

    term_counts = [_nonpos_int_index(u) for u in upper]
    term_counts = [k for k in term_counts if k is not None]
    n_term = min(term_counts) if term_counts else None

    lower_poles = [_nonpos_int_index(l) for l in lower]
    lower_poles = [k for k in lower_poles if k is not None]
    k_pole = min(lower_poles) if lower_poles else None

    if n_term is not None:
        if k_pole is not None and k_pole < n_term:
            raise LowerPole(
                f"lower parameter hits -{k_pole} before termination at {n_term}")
        return _sum_terminating(upper, lower, n_term)

    if k_pole is not None:
        raise LowerPole(f"lower parameter is the non-positive integer -{k_pole}")

    if len(upper) == len(lower) + 1:
        s = sum(lower) - sum(upper)
        if s.real <= 0:
            raise DivergentSeries(
                f"Re(excess) = {s.real:.6g} <= 0 for a non-terminating series")
        return _sum_infinite(upper, lower, s, rel_tol)
    if len(upper) <= len(lower):
        # entire case: terms decay factorially, plain truncation suffices
        return _sum_infinite(upper, lower, None, rel_tol)
    raise DivergentSeries("series with p > q + 1 diverges at unit argument")


def _sum_terminating(upper, lower, n_term: int) -> SeriesResult:
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    t = 1.0 + 0.0j
    for k in range(n_term + 1):
        y = t - comp
        new = total + y
        comp = (new - total) - y
        total = new
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
    return SeriesResult(total, 0.0, n_term + 1, True)


def _block_terms(upper, lower, t_start: complex, k_start: int, k_stop: int) -> np.ndarray:
    """Terms t_k for k in [k_start, k_stop), given t_{k_start} = t_start."""
    k = np.arange(k_start, k_stop - 1, dtype=np.float64)
    num = np.ones_like(k, dtype=np.complex128)
    for u in upper:
        num *= u + k
    den = (k + 1.0).astype(np.complex128)
    for l in lower:
        den *= l + k
    ratios = num / den
    terms = np.empty(k_stop - k_start, dtype=np.complex128)
    terms[0] = t_start
    if k_stop - k_start > 1:
        terms[1:] = t_start * np.cumprod(ratios)
    return terms


_RICHARDSON_DEPTH = 5


def _sum_infinite(upper, lower, s: Optional[complex], rel_tol: float) -> SeriesResult:
    """Adaptive doubling with tail correction and Richardson extrapolation.

    Corrected truncations V_j at K_j = 64 * 2^j carry an error expansion in
    K^{-(s+1)}, K^{-(s+2)}, ...; a short Richardson table over the doubling
    checkpoints removes the leading terms.
    """
    checkpoint = 64
    k_next = 0
    t_next = 1.0 + 0.0j
    partial = 0.0 + 0.0j
    rows: list[list[complex]] = []  # rows[i] = Richardson level i over checkpoints
    best_prev: Optional[complex] = None
    last_err = math.inf

    while checkpoint <= MAX_TERMS:
        terms = _block_terms(upper, lower, t_next, k_next, checkpoint + 1)
        # terms covers indices k_next .. checkpoint; keep t_checkpoint for the tail
        partial += complex(np.sum(terms[:-1]))
        t_cp = complex(terms[-1])
        k_next = checkpoint
        t_next = t_cp

        if s is None:
            # entire case: stop when the next term is negligible
            if abs(t_cp) <= rel_tol * max(abs(partial), 1e-300):
                return SeriesResult(partial, abs(t_cp), checkpoint, False)
            checkpoint *= 2
            continue

        tail = t_cp * (checkpoint / s + 0.5)
        v = partial + tail
        p = s.real + 1.0
        if not rows:
            rows.append([v])
        else:
            rows[0].append(v)
            level = 0
            cur = v
            while level + 1 < min(len(rows[0]), _RICHARDSON_DEPTH):
                prev = rows[level][-2]
                cur = cur + (cur - prev) / (2.0 ** (p + level) - 1.0)
                level += 1
                if level == len(rows):
                    rows.append([])
                rows[level].append(cur)
            best = cur
            if best_prev is not None:
                err = abs(best - best_prev)
                last_err = err
                if err <= rel_tol * max(abs(best), 1e-300):
                    return SeriesResult(best, err, checkpoint, False)
            best_prev = best
        checkpoint *= 2

    raise NoConvergence(
        f"no convergence to rel_tol={rel_tol} within {MAX_TERMS} terms "
        f"(last delta {last_err:.3g})")


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
