"""Direct-summation oracle: classification and numeric accuracy."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from typing import Optional

import numpy as np
import pytest

from hyp321 import expr as E
from hyp321 import series
from hyp321.errors import (DivergentSeries, Hyp321Error, LowerPole,
                           NoConvergence, NonFiniteParameter, ShapeError,
                           UnboundSymbol)
from hyp321.series import (DIRECT_BUDGET, MAX_TERMS, ParamSet, excess,
                           is_karlsson_minton, is_terminating, series_pfq,
                           sum_series_numeric)
from hyp321.thomae import numeric_images

a, b, c, n = E.sym("a"), E.sym("b"), E.sym("c"), E.sym("n")

#: complex(mpmath.hyper(up, lo, 1)) at 30 digits, the parameters taken as
#: mpmath.mpf(str(x)): references computed once and pasted
_MPMATH_3F2 = [
    ([0.3, 0.45, 0.7], [1.1, 0.95], 1.2422670007737096 + 0j),  # excess 0.6
    ([0.5, 0.5, 0.5], [1.5, 1.2], 1.1242970544429323 + 0j),
    ([0.9, 1.1, 0.4], [2.0, 1.7], 1.2233000953948756 + 0j),
]


class TestClassification:
    def test_excess(self):
        p = ParamSet.make([a, b, c], [E.LinExpr.of(a) + 1, 2])
        s = excess(p)
        assert s == E.LinExpr.of(3) - E.LinExpr.of(b) - E.LinExpr.of(c)

    def test_terminating(self):
        p = ParamSet.make([-E.LinExpr.of(n), b, c], [a, 2])
        assert is_terminating(p, {n: 3, a: 0.5, b: 0.3, c: 0.2})
        assert not is_terminating(p, {n: -1, a: 0.5, b: 0.3, c: 0.2})

    def test_karlsson_minton(self):
        p = ParamSet.make([E.LinExpr.of(b) + 2, a, c], [b, 2])
        assert is_karlsson_minton(p, {a: 0.4, b: 0.3, c: 0.5})
        p2 = ParamSet.make([E.LinExpr.of(b) + 5, a, c], [b, 2])
        assert not is_karlsson_minton(p2, {a: 0.4, b: 0.3, c: 0.5})

    def test_multiset_equality(self):
        p1 = ParamSet.make([a, b, c], [1, 2])
        p2 = ParamSet.make([c, a, b], [2, 1])
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert p1 != ParamSet.make([a, b, b], [1, 2])


class TestTerminating:
    def test_exact_small_cases(self):
        # 2F1(-2, 1; 1; 1) = sum_{k=0..2} (-2)_k / k! = 1 - 2 + 1 = 0
        r = sum_series_numeric([-2, 1], [1])
        assert r.terminated and r.value == 0.0
        # the rounding bound EPS * sum (k + 1) |t_k| = EPS * (1 + 4 + 3)
        assert r.abs_error_estimate == 8 * sys.float_info.epsilon

    def test_chu_vandermonde(self):
        # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
        rng = random.Random(5)
        for _ in range(20):
            nn = rng.randrange(0, 11)
            bb = rng.uniform(0.1, 2.0)
            cc = rng.uniform(2.5, 4.0)
            r = sum_series_numeric([-nn, bb], [cc])
            ref = E.rising_factorial(cc - bb, nn) / E.rising_factorial(cc, nn)
            assert r.terminated
            assert abs(r.value - ref) <= 1e-12 * max(abs(ref), 1e-12)

    def test_lower_pole_before_termination(self):
        with pytest.raises(LowerPole):
            sum_series_numeric([-5, 0.3], [-2])

    def test_lower_pole_after_termination_ok(self):
        r = sum_series_numeric([-2, 0.3], [-5])
        assert r.terminated

    def test_lower_pole_without_termination(self):
        with pytest.raises(LowerPole, match="^lower parameter is the "
                           "non-positive integer -2$"):
            sum_series_numeric([0.3, 0.4, 0.5], [-2, 1.5])


@pytest.mark.parametrize("rel_tol", [float("inf"), float("nan"), 0.0, -1e-7])
def test_bad_tolerance_rejected(rel_tol):
    with pytest.raises(ShapeError, match="^rel_tol must be a finite"):
        sum_series_numeric([0.3, 0.45, 0.7], [1.1, 0.95], rel_tol=rel_tol)


class TestInfinite:
    def test_gauss_2f1_draws(self):
        """25 random convergent 2F1(1) against the Gauss closed form."""
        rng = random.Random(2024)
        g = E.cgamma
        for _ in range(25):
            aa = rng.uniform(0.1, 1.2)
            bb = rng.uniform(0.1, 1.2)
            cc = aa + bb + rng.uniform(0.35, 1.8)
            r = sum_series_numeric([aa, bb], [cc], rel_tol=1e-11)
            ref = g(cc) * g(cc - aa - bb) / (g(cc - aa) * g(cc - bb))
            assert abs(r.value - ref) <= 1e-9 * abs(ref)

    def test_3f2_against_mpmath(self):
        for up, lo, ref in _MPMATH_3F2:
            r = sum_series_numeric(up, lo, rel_tol=1e-10)
            assert abs(r.value - ref) <= 1e-9 * abs(ref)
            assert abs(r.value - ref) <= 10 * r.abs_error_estimate + 1e-13 * abs(ref)

    def test_entire_case(self):
        # 1F1(0.3; 1.4; 1) converges factorially
        r = sum_series_numeric([0.3], [1.4])
        ref = 1.2883136903718362 + 0j  # as _MPMATH_3F2
        assert abs(r.value - ref) <= 1e-10 * abs(ref)

    def test_divergent_raises(self):
        with pytest.raises(DivergentSeries):
            sum_series_numeric([0.5, 0.5, 0.5], [0.6, 0.7])  # excess -0.2
        with pytest.raises(DivergentSeries):
            sum_series_numeric([0.5, 0.5, 0.5, 0.5], [0.6])  # p > q+1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.5, math.inf)])
    def test_non_finite_parameter_rejected(self, bad):
        with pytest.raises(NonFiniteParameter):
            sum_series_numeric([bad, 1, 1], [2, 3])
        with pytest.raises(NonFiniteParameter):
            sum_series_numeric([-2, 1, 1], [2, bad])

    def test_complex_parameters(self):
        up = [0.4 + 0.2j, 0.5, 0.3]
        lo = [1.2, 0.9 - 0.1j]
        r = sum_series_numeric(up, lo, rel_tol=1e-10)
        # complex(mpmath.hyper) at 30 digits of the exact doubles, pasted
        ref = 1.0819871876145897 + 0.08426312061172293j
        assert abs(r.value - ref) <= 1e-10 * abs(ref)

    def test_self_consistency_tolerance_halving(self):
        """Tighter tolerance never moves the answer by more than the bound."""
        rng = random.Random(77)
        for _ in range(10):
            up = [rng.uniform(0.2, 0.9) for _ in range(3)]
            lo = [sum(up) / 2 + rng.uniform(0.3, 0.8), sum(up) / 2 + rng.uniform(0.3, 0.8)]
            loose = sum_series_numeric(up, lo, rel_tol=1e-7)
            tight = sum_series_numeric(up, lo, rel_tol=1e-11)
            assert abs(loose.value - tight.value) <= 1e-6 * abs(tight.value)


def _exact_terminating(up, lo):
    """The exact sum of a terminating 3F2 at the doubles' exact values."""
    up = [Fraction(float(u)) for u in up]
    lo = [Fraction(float(l)) for l in lo]
    total, term = Fraction(0), Fraction(1)
    for k in range(int(-min(up)) + 1):
        total += term
        num = (up[0] + k) * (up[1] + k) * (up[2] + k)
        term *= num / ((lo[0] + k) * (lo[1] + k) * (k + 1))
    return total


class TestErrorBounds:
    def test_cancelling_terminating_sum_within_bound(self):
        # terms up to 2.6e36 cancel to 1.2077e17; the float sum is off by
        # about 2e20, which the estimate must cover
        up, lo = [-40, 20.5, 30.5], [1.5, 2.5]
        r = sum_series_numeric(up, lo)
        exact = _exact_terminating(up, lo)
        assert abs(float(exact) - 1.2077e17) < 1e-4 * 1.2077e17
        assert abs(r.value - float(exact)) > 1e20
        assert abs(r.value - float(exact)) <= r.abs_error_estimate

    def test_terminating_bounds_hold(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 60)
            up = [-n, rng.randint(1, 400) / rng.choice((7, 11, 13)),
                  rng.randint(1, 400) / rng.choice((7, 11, 13))]
            lo = [rng.randint(1, 100) / rng.choice((7, 11, 13)),
                  rng.randint(1, 100) / rng.choice((7, 11, 13))]
            r = sum_series_numeric(up, lo)
            exact = float(_exact_terminating(up, lo))
            assert abs(r.value - exact) <= r.abs_error_estimate


#: mpmath.hyp3f2(..., 1) at 30 digits of the exact double parameters,
#: with the Thomae base each input is summed through
_LARGE = [
    ([300, 300, 300], [451, 451], 6.183044456902821786088609e+154, 1),
    ([161.375, 243.94, 288.543], [232.171, 462.911],
     8.6820678204482787218096e+128, 3),
    ([214.224, 201.801, 41.947], [121.41, 337.129],
     4.459610540603365831367582e+70, 8),
    ([226.455, 83.191, 155.465], [255.435, 210.97],
     1.024459773363897546802014e+66, 5),
    ([284.106, 126.461, 299.55], [245.657, 465.115],
     4.25025383563193964904567e+120, 6),
]
_COMPLEX = [
    ([1.325 - 0.349j, 1.088 + 0.059j, 1.437 - 0.29j],
     [1.824 + 0.083j, 3.066 - 0.663j],
     2.079661150424438358953829 - 0.4406509098522529580046458j),
    ([0.533 - 0.418j, 1.416 - 0.026j, 1.495 - 0.358j],
     [1.72 + 0.252j, 3.036 - 1.054j],
     1.32231890671854735316389 - 0.4835869479769394567121081j),
    ([0.125 - 0.128j, 0.172 + 0.252j, 0.596 + 0.46j],
     [1.662 + 0.221j, 0.106 + 0.363j],
     1.118295697158948175536949 - 0.08021561301003860004174549j),
    ([0.435 + 0.057j, 1.44 + 0.027j, 0.604 - 0.233j],
     [0.789 + 0.062j, 2.976 - 0.211j],
     1.361170630269342532150084 - 0.1104727365763897552311752j),
]


class TestHardInputs:
    @pytest.mark.parametrize("up, lo, ref, base", _LARGE)
    def test_large_parameters_via_thomae_image(self, up, lo, ref, base):
        r = sum_series_numeric(up, lo, rel_tol=1e-10)
        assert abs(r.value - ref) <= 1e-10 * abs(ref)
        assert abs(r.value - ref) <= r.abs_error_estimate
        assert r.abs_error_estimate <= 1e-10 * abs(ref)
        assert r.representation.startswith(f"Thomae base {base} (excess ")
        assert r.terms_used < DIRECT_BUDGET + 1024
        assert r.value.imag == 0.0

    @pytest.mark.parametrize("up, lo, ref", _COMPLEX)
    def test_complex_parameters_direct(self, up, lo, ref):
        r = sum_series_numeric(up, lo, rel_tol=1e-10)
        assert abs(r.value - ref) <= max(1e-10 * abs(ref), r.abs_error_estimate)
        assert r.representation == "direct"
        assert r.terms_used <= 2 ** 13

    def test_complex_excess_converges_directly(self):
        """Richardson with the complex exponent s + 1: no stall."""
        rng = random.Random(8)
        for _ in range(40):
            up = [complex(rng.uniform(0.1, 1.5), rng.uniform(-0.5, 0.5))
                  for _ in range(3)]
            s = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            e = complex(rng.uniform(0.5, 2.5), rng.uniform(-0.3, 0.3))
            r = sum_series_numeric(up, [e, sum(up) - e + s], rel_tol=1e-10)
            assert r.representation == "direct"
            assert r.terms_used <= 2 ** 13

    def test_ill_conditioned_image_is_skipped(self):
        # the image of largest excess (base 9, excess 108.38) converges,
        # but its sum of |t_k| is about 1.8e6 times its value; the next
        # one (base 2) is well conditioned
        ref = 115598160889385668109715.3
        r = sum_series_numeric([108.136, 33.942, 24.924], [133.304, 36.631])
        assert r.representation == "Thomae base 2 (excess 33.942)"
        assert abs(r.value - ref) <= 1e-10 * ref

    def test_no_well_conditioned_image_is_typed(self):
        # every image of larger excess has an upper parameter near -1e6,
        # whose terms overflow; the direct sum stalls
        with pytest.raises(NoConvergence, match="well-conditioned"):
            sum_series_numeric([1e6, 1, 1], [1e6 + 1, 2.5])

    def test_direct_sum_that_overflows_is_typed_and_silent(self, capfd):
        # a 2F1 has no Thomae image; its terms pass 1e308 before term 1024
        with pytest.raises(NoConvergence, match="overflow by term 1024$"):
            sum_series_numeric([1000.5, 900.25], [1901.9])
        # an entire series: its overflowing estimate must not pass as a
        # converged value of -inf
        with pytest.raises(NoConvergence, match="overflow"):
            sum_series_numeric([385932.0, -0.359, 0.382, 1.618],
                               [7.245, 3.902, 4.615, 5.541])
        assert capfd.readouterr().err == ""

    def test_3f2_that_overflows_goes_to_a_thomae_image_at_once(self, capfd):
        # alternating terms above 1e308 that cancel to 3.6e-78; the image
        # is tried at the overflow, not after DIRECT_BUDGET terms
        r = sum_series_numeric([-536.166, 577.96, 0.651], [22.803, 20.208])
        assert r.representation == "Thomae base 1 (excess 0.651)"
        assert abs(r.value - 3.587098738933789e-78) <= 1e-12 * 3.6e-78
        assert r.terms_used == 4096
        assert capfd.readouterr().err == ""

    @staticmethod
    def _spy_images(monkeypatch) -> list:
        """The slots of every Thomae image the oracle sums, in order."""
        summed = []
        real = series._sum_image

        def spy(upper, lower, s, rel_tol):
            summed.append(list(upper) + list(lower))
            return real(upper, lower, s, rel_tol)
        monkeypatch.setattr(series, "_sum_image", spy)
        return summed

    @staticmethod
    def _candidates(up, lo) -> list:
        """``(base, slots, gamma arguments)`` of the images the oracle may
        try, in the order it tries them: falling Re(excess) above Re(s)."""
        s = sum(lo) - sum(up)
        images = [(sum(img[3:]) - sum(img[:3]), base, img, num + den)
                  for base, img, num, den in numeric_images(up + lo)]
        return [im[1:] for im in sorted(images, key=lambda im: -im[0].real)
                if im[0].real > s.real]

    def test_image_with_a_lower_pole_is_skipped(self, monkeypatch):
        up, lo = [150.25, -0.75, 100.25], [451.0, -200.5]
        candidates = self._candidates(up, lo)
        base, slots, _ = candidates[0]
        assert base == 7 and slots[3] == 0.0  # f' = 0, a lower pole
        summed = self._spy_images(monkeypatch)
        r = sum_series_numeric(up, lo)
        assert r.representation == "Thomae base 9 (excess 350.75)"
        assert slots not in summed
        assert summed[-1] == next(img for b, img, _ in candidates if b == 9)

    def test_image_with_a_prefactor_pole_is_skipped(self, monkeypatch):
        """An excess within POLE_TOL of 0 puts Γ(s) in every candidate's
        prefactor; the oracle reads it as 0 and sums nothing."""
        up, lo = [300.0, 300.0, 300.0], [451.0, 449.0 + 1e-13]
        candidates = self._candidates(up, lo)
        pole = E.is_near_nonpositive_integer
        regular = [args for _, img, args in candidates
                   if not any(map(pole, img))]
        assert regular and all(any(map(pole, args)) for args in regular)
        summed = self._spy_images(monkeypatch)
        with pytest.raises(DivergentSeries, match="within POLE_TOL of 0"):
            sum_series_numeric(up, lo)
        assert summed == []

    @pytest.mark.parametrize("up, lo", [
        ([300.0, 300.0, 300.0], [451.0, 449.0 + 1e-13]),
        ([0.5, 0.5, 1.0], [1.0, 1.0 + 1e-13]),
        ([0.5, 0.5, 1.0], [1.0 + 1e-13 + 5e-13j, 1.0]),
    ])
    def test_excess_within_pole_tol_of_zero_sums_no_term(self, monkeypatch,
                                                         up, lo):
        calls = []
        monkeypatch.setattr(series, "_ratios",
                            lambda *args: calls.append(args))
        with pytest.raises(DivergentSeries):
            sum_series_numeric(up, lo)
        assert calls == []

    def test_richardson_exponent_beyond_float_range(self):
        # excess 2e6: 2.0 ** (s + 1) overflows a float
        r = sum_series_numeric([0.5, 0.5], [2e6 + 1.0])
        assert r.representation == "direct"
        assert abs(r.value - 1.0 - 0.25 / (2e6 + 1.0)) < 1e-12


# The functions below are the summation loop as it was before the ratio
# table: every doubling computes the ratios of its own block, as complex
# numbers.  Each result of the oracle must equal theirs bit for bit, and a
# real ratio table the real part of ``ref_ratios``.

def ref_ratios(upper, lower, k_start: int, k_stop: int) -> np.ndarray:
    k = np.arange(k_start, k_stop, dtype=np.float64)
    num = np.ones_like(k, dtype=np.complex128)
    for u in upper:
        num *= u + k
    den = (k + 1.0).astype(np.complex128)
    for l in lower:
        den *= l + k
    return num / den


def ref_block_terms(upper, lower, t_start: complex, k_start: int,
                    k_stop: int) -> np.ndarray:
    ratios = ref_ratios(upper, lower, k_start, k_stop - 1)
    terms = np.empty(k_stop - k_start, dtype=np.complex128)
    terms[0] = t_start
    if k_stop - k_start > 1:
        terms[1:] = t_start * np.cumprod(ratios)
    return terms


def ref_doublings(upper, lower, s: Optional[complex], track_abs: bool = False):
    checkpoint = 64
    k_next = 0
    t_next = 1.0 + 0.0j
    partial = 0.0 + 0.0j
    abs_sum = 0.0
    rows: list[list[complex]] = []
    best_prev: Optional[complex] = None
    if s is not None:
        p = s.real + 1.0 if s.imag == 0 else s + 1.0
    while checkpoint <= MAX_TERMS:
        terms = ref_block_terms(upper, lower, t_next, k_next, checkpoint + 1)
        partial += complex(np.sum(terms[:-1]))
        if track_abs:
            abs_sum += float(np.sum(np.abs(terms[:-1])))
        t_cp = complex(terms[-1])
        k_next = checkpoint
        t_next = t_cp
        if s is None:
            yield checkpoint, partial, abs(t_cp), abs_sum
            checkpoint *= 2
            continue
        tail = t_cp * (checkpoint / s + 0.5)
        v = partial + tail
        if not rows:
            rows.append([v])
        else:
            rows[0].append(v)
            level = 0
            cur = v
            while level + 1 < min(len(rows[0]), series._RICHARDSON_DEPTH):
                prev = rows[level][-2]
                q = p + level
                if q.real <= series._MAX_RICHARDSON_EXP:
                    cur = cur + (cur - prev) / (2.0 ** q - 1.0)
                level += 1
                if level == len(rows):
                    rows.append([])
                rows[level].append(cur)
            best = cur
            if best_prev is not None:
                yield checkpoint, best, abs(best - best_prev), abs_sum
            best_prev = best
        checkpoint *= 2


def _richardson_draws():
    """Seeded generic, small-excess, complex, large-parameter and entire
    sums, each as ``(upper, lower, s)``."""
    rng = random.Random(24)
    u = rng.uniform
    out = []
    for _ in range(6):
        up = [u(-2, 3) for _ in range(3)]
        e = u(0.2, 4)
        out.append((up, [e, sum(up) - e + u(0.3, 3)]))
        up = [u(0, 2) for _ in range(3)]
        out.append((up, [e, sum(up) - e + u(0.01, 0.3)]))
        up = [complex(u(-2, 3), u(-3, 3)) for _ in range(3)]
        e = complex(u(0.2, 4), u(-3, 3))
        out.append((up, [e, sum(up) - e + complex(u(0.2, 3), u(-2, 2))]))
        up = [u(-120, 300) for _ in range(3)]
        e = u(1, 400)
        out.append((up, [e, sum(up) - e + u(0.5, 40)]))
    kinds = ("generic", "small", "complex", "large")
    draws = [pytest.param([complex(x) for x in up], [complex(x) for x in lo],
                          sum(lo) - sum(up), id=f"{kinds[i % 4]}{i // 4}")
             for i, (up, lo) in enumerate(out)]
    return draws + [pytest.param([complex(u(0, 3)) for _ in range(2)],
                                 [complex(u(0.2, 3)) for _ in range(2)],
                                 None, id=f"entire{i}") for i in range(3)]


def _result(up, lo) -> str:
    try:
        r = sum_series_numeric(up, lo, rel_tol=1e-10)
        return repr((r.value, r.abs_error_estimate, r.terms_used,
                     r.terminated, r.representation))
    except Hyp321Error as exc:
        return repr((type(exc).__name__, str(exc)))


def _draws():
    """Complex and large-parameter draws, the regimes the golden oracle
    corpus leaves out."""
    rng = random.Random(46)
    out = []
    for _ in range(12):
        out.append(([complex(rng.uniform(0.1, 2), rng.uniform(-1, 1))
                     for _ in range(3)],
                    [complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
                     for _ in range(2)]))
        out.append(([rng.uniform(1, 300) for _ in range(3)],
                    [rng.uniform(1, 400) for _ in range(2)]))
    return out


#: past DIRECT_BUDGET: direct to 2^19 terms, direct after the Thomae images
#: fail, a Thomae image at 16,640 terms, a sum stopped at MAX_TERMS, and a
#: 2F1 whose terms overflow by term 1024
_LONG = [([40.5, 60.25], [101.3]), ([5000.5, 1.5, 1], [5001, 3.25]),
         ([20.5, 30.5, 0.5], [40.3, 12.1]), ([1e6, 1, 1], [1e6 + 1, 2.5]),
         ([1000.5, 900.25], [1901.9])]


#: real parameters for the float64 table: negative non-integers, lower
#: parameters 1e-9 from a pole, parameters near 1e6, an imaginary part -0.0
_REAL = [([-2.5, 0.3, -7.25], [1.5, -3.75]), ([-0.5, -11.75], [-4.5]),
         ([0.5, 0.25, 0.75], [-2 + 1e-9, 1.5]),
         ([1.25, 0.5, -0.3], [-7 + 1e-9, -1e-9]),
         ([1e6 + 0.5, 0.25, 1.5], [1e6 + 1.25, 2.75]),
         ([999999.3, 1000000.7], [2000001.9]),
         ([complex(0.5, -0.0), 0.25, 0.75], [1.5, complex(2.5, -0.0)]),
         ([-3.5], [0.25]), ([0.3, 0.6], [])]


def _peak_over_block(up, lo) -> float:
    """Peak traced memory of a full-length sum, in arrays of the last
    block's 2^20 complex terms."""
    block = MAX_TERMS // 2 * np.dtype(np.complex128).itemsize
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(NoConvergence, match=f"within {MAX_TERMS} "):
            sum_series_numeric(up, lo)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / block


class TestRatioTable:
    """The oracle against its loop before the ratio table, bit for bit."""

    @pytest.mark.parametrize("up, lo", [(u, l) for u, l, _ in _COMPLEX]
                             + [(u, l) for u, l, _, _ in _LARGE] + _LONG
                             + _draws() + _REAL)
    def test_same_result_as_block_terms(self, up, lo, monkeypatch):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _result(up, lo)
            monkeypatch.setattr(series, "_doublings", ref_doublings)
            assert _result(up, lo) == got

    @pytest.mark.parametrize("up, lo, s", _richardson_draws())
    @pytest.mark.parametrize("track_abs", [False, True])
    def test_richardson_column_is_the_whole_table(self, up, lo, s, track_abs):
        """Every yield, up to K = 2^16, equals that of ``ref_doublings``,
        which keeps the whole Richardson table."""
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(islice(series._doublings(up, lo, s, track_abs), 11))
            want = list(islice(ref_doublings(up, lo, s, track_abs), 11))
        assert got[0][0] == (256 if s is not None else 64)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("up, lo", _REAL)
    def test_real_table_is_the_real_part_of_the_complex_one(self, up, lo):
        """Compared as bytes: bit for bit, signed zeros included."""
        up, lo = [complex(u) for u in up], [complex(l) for l in lo]
        for k_start, k_stop in ((0, 1024), (1024, 4096), (2 ** 20, 2 ** 21)):
            got = series._ratios(up, lo, k_start, k_stop)
            want = ref_ratios(up, lo, k_start, k_stop)
            assert got.dtype == np.float64
            assert got.tobytes() == want.real.tobytes()
            assert not want.imag.any()  # the parts dropped are all zero

    def test_complex_table_is_unchanged(self):
        up, lo = [0.5 + 0.25j, 0.3, -1.5], [1.25, 2.5 - 0.5j]
        got, want = series._ratios(up, lo, 0, 4096), ref_ratios(up, lo, 0, 4096)
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_of_a_full_length_sum(self):
        """No more than three arrays of the last block's 2^20 complex terms
        at once for real parameters, whose ratio table is float64 (a
        complex table takes 4.5)."""
        assert 1 < _peak_over_block([1e6, 1, 1], [1e6 + 1, 2.5]) <= 3

    def test_peak_memory_of_a_full_length_complex_sum(self):
        """No more than five arrays of the last block's 2^20 terms at once
        (the loop before the ratio table held six)."""
        assert 1 < _peak_over_block([1e6, 1, 1 + 0.5j], [1e6 + 1, 2.5]) <= 5


class TestSeriesPfq:
    def test_symbolic_evaluation(self):
        p = ParamSet.make([a, b, c], [E.LinExpr.of(a) + Q_half(), 2])
        assign = {a: 0.4, b: 0.3, c: 0.2}
        r = series_pfq(p, assign)
        # as _MPMATH_3F2, at the parameters [0.4, 0.3, 0.2], [0.9, 2.0]
        ref = 1.0179095847620478 + 0j
        assert abs(r.value - ref) <= 1e-8 * abs(ref)

    def test_unbound_symbol(self):
        p = ParamSet.make([a, b, c], [1, 2])
        with pytest.raises(UnboundSymbol):
            series_pfq(p, {a: 0.1, b: 0.2})


def Q_half():
    from fractions import Fraction
    return Fraction(1, 2)
