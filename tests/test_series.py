"""Direct-summation oracle: classification and numeric accuracy."""

import math
import random

import mpmath
import pytest

from hyp321 import expr as E
from hyp321.errors import (DivergentSeries, LowerPole, NonFiniteParameter,
                           UnboundSymbol)
from hyp321.series import (ParamSet, excess, is_karlsson_minton,
                           is_terminating, series_pfq, sum_series_numeric)

a, b, c, n = E.sym("a"), E.sym("b"), E.sym("c"), E.sym("n")

mpmath.mp.dps = 30


def _ref(up, lo):
    return complex(mpmath.hyper([mpmath.mpf(str(u)) for u in up],
                                [mpmath.mpf(str(l)) for l in lo], 1))


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
        assert r.terminated and r.value == 0.0 and r.abs_error_estimate == 0.0

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
        cases = [
            ([0.3, 0.45, 0.7], [1.1, 0.95]),   # small excess 0.6
            ([0.5, 0.5, 0.5], [1.5, 1.2]),
            ([0.9, 1.1, 0.4], [2.0, 1.7]),
        ]
        for up, lo in cases:
            r = sum_series_numeric(up, lo, rel_tol=1e-10)
            ref = _ref(up, lo)
            assert abs(r.value - ref) <= 1e-9 * abs(ref)
            assert abs(r.value - ref) <= 10 * r.abs_error_estimate + 1e-13 * abs(ref)

    def test_entire_case(self):
        # 1F1(0.3; 1.4; 1) converges factorially
        r = sum_series_numeric([0.3], [1.4])
        ref = _ref([0.3], [1.4])
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
        ref = complex(mpmath.hyper([mpmath.mpc(u) for u in up],
                                   [mpmath.mpc(l) for l in lo], 1))
        assert abs(r.value - ref) <= 1e-8 * abs(ref)

    def test_self_consistency_tolerance_halving(self):
        """Tighter tolerance never moves the answer by more than the bound."""
        rng = random.Random(77)
        for _ in range(10):
            up = [rng.uniform(0.2, 0.9) for _ in range(3)]
            lo = [sum(up) / 2 + rng.uniform(0.3, 0.8), sum(up) / 2 + rng.uniform(0.3, 0.8)]
            loose = sum_series_numeric(up, lo, rel_tol=1e-7)
            tight = sum_series_numeric(up, lo, rel_tol=1e-11)
            assert abs(loose.value - tight.value) <= 1e-6 * abs(tight.value)


class TestSeriesPfq:
    def test_symbolic_evaluation(self):
        p = ParamSet.make([a, b, c], [E.LinExpr.of(a) + Q_half(), 2])
        assign = {a: 0.4, b: 0.3, c: 0.2}
        r = series_pfq(p, assign)
        up, lo = p.eval(assign)
        ref = _ref([u.real for u in up], [l.real for l in lo])
        assert abs(r.value - ref) <= 1e-8 * abs(ref)

    def test_unbound_symbol(self):
        p = ParamSet.make([a, b, c], [1, 2])
        with pytest.raises(UnboundSymbol):
            series_pfq(p, {a: 0.1, b: 0.2})


def Q_half():
    from fractions import Fraction
    return Fraction(1, 2)
