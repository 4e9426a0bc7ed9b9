"""Expression trees: evaluation, substitution, serialization."""

import math
import random
from fractions import Fraction as Q

import mpmath
import pytest

from hyp321 import expr as E
from hyp321.errors import (IndexCapture, NonIntegerSumBound, ParseError,
                           PoleError, UnboundSymbol)

a, b, c = E.sym("a"), E.sym("b"), E.sym("c")
n = E.sym("n")


# ---------------------------------------------------------------------------
# LinExpr
# ---------------------------------------------------------------------------

class TestLinExpr:
    def test_canonical_equality(self):
        l1 = E.LinExpr.of(a) + E.LinExpr.of(b) * 2 + 3
        l2 = 3 + 2 * E.LinExpr.of(b) + E.LinExpr.of(a)
        assert l1 == l2
        assert hash(l1) == hash(l2)

    def test_zero_coefficients_drop(self):
        l = E.LinExpr.of(a) - E.LinExpr.of(a)
        assert l.is_constant
        assert l.free_symbols() == frozenset()

    def test_arithmetic(self):
        l = (E.LinExpr.of(a) * 2 - E.LinExpr.of(b)) / 3
        assert l.coeff(a) == Q(2, 3)
        assert l.coeff(b) == Q(-1, 3)
        assert l.coeff(c) == 0

    def test_eval_and_unbound(self):
        l = E.LinExpr.of(a) + Q(1, 2)
        assert l.eval({a: 0.25}) == 0.75
        with pytest.raises(UnboundSymbol):
            l.eval({b: 1.0})

    def test_subs_is_linear(self):
        l = E.LinExpr.of(a) * 2 + E.LinExpr.of(b)
        out = l.subs({a: E.LinExpr.of(c) + 1})
        assert out == E.LinExpr.of(c) * 2 + E.LinExpr.of(b) + 2

    def test_integer_kind_reserved_names(self):
        assert E.sym("n").kind == "integer"
        assert E.sym("m").kind == "integer"
        assert E.sym("a").kind == "continuous"

    def test_is_integer_valued(self):
        assert (E.LinExpr.of(n) * 2 + 1).is_integer_valued()
        assert not (E.LinExpr.of(n) / 2).is_integer_valued()
        assert not (E.LinExpr.of(a) + 1).is_integer_valued()

    def test_as_integer(self):
        assert E.LinExpr.of(5).as_integer() == 5
        assert E.LinExpr.of(Q(1, 2)).as_integer() is None
        assert E.LinExpr.of(a).as_integer() is None


# ---------------------------------------------------------------------------
# Numeric kernels
# ---------------------------------------------------------------------------

class TestGamma:
    def test_half_is_sqrt_pi(self):
        assert E.cgamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_recurrence_property(self):
        rng = random.Random(7)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if E.is_near_nonpositive_integer(z) or E.is_near_nonpositive_integer(z + 1):
                continue
            lhs = E.cgamma(z + 1)
            rhs = z * E.cgamma(z)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_against_mpmath(self):
        rng = random.Random(11)
        for _ in range(30):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if E.is_near_nonpositive_integer(z):
                continue
            ref = complex(mpmath.gamma(z))
            assert abs(E.cgamma(z) - ref) <= 1e-11 * abs(ref)

    def test_pole_raises(self):
        for z in (0, -1, -5, -2 + 1e-14j):
            with pytest.raises(PoleError):
                E.cgamma(z)
            with pytest.raises(PoleError):
                E.loggamma(z)

    def test_loggamma_against_mpmath(self):
        """exp(loggamma) is Γ: equal to mpmath's log-gamma mod 2πi."""
        rng = random.Random(12)
        points = [complex(rng.uniform(-60, 600), rng.uniform(-40, 40))
                  for _ in range(200)]
        points += [complex(rng.uniform(-60, 600)) for _ in range(100)]
        points += [451.0, -0.5, -1.5, 1e5 + 2j, 1e-8 + 1e-9j]
        for z in points:
            ref = mpmath.loggamma(mpmath.mpc(z))
            d = mpmath.mpc(E.loggamma(z)) - ref
            d -= 2j * mpmath.pi * mpmath.nint(d.imag / (2 * mpmath.pi))
            assert abs(d) <= 1e-14 * max(1.0, abs(ref)), z


class TestPolygamma:
    def test_trigamma_one(self):
        assert E.cpolygamma(1, 1.0).real == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            E.cpolygamma(0, -3.0)


class TestPochhammer:
    def test_integer_counts(self):
        assert E.rising_factorial(3.0, 2) == 12.0
        assert E.rising_factorial(5.0, 0) == 1.0

    def test_negative_count_inverse(self):
        # (x)_{-k} * (x - k)_k = 1
        x = 2.7
        assert E.rising_factorial(x, -3) * E.rising_factorial(x - 3, 3) == pytest.approx(1.0)

    def test_symbolic_count_uses_gamma(self):
        e = E.Pochhammer(E.Lin(E.LinExpr.of(a)), E.LinExpr.of(b))
        v = E.eval_expr(e, {a: 1.3, b: 0.4})
        ref = E.cgamma(1.7) / E.cgamma(1.3)
        assert v == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# eval_expr
# ---------------------------------------------------------------------------

class TestEval:
    def test_finite_sum_inclusive(self):
        body = E.Lin(E.LinExpr.of(E.sym("k")))
        s = E.FiniteSum(E.sym("k"), E.LinExpr.of(0), E.LinExpr.of(2), body)
        assert E.eval_expr(s, {}) == 3.0

    def test_finite_sum_definite_convention(self):
        # sum_{k=1}^{n-2}: empty at n = 2, and the antidifference
        # convention negates the reflected range below that
        body = E.ONE
        s = E.FiniteSum(E.sym("k"), E.LinExpr.of(1), E.LinExpr.of(n) - 2, body)
        assert E.eval_expr(s, {n: 2}) == 0.0
        assert E.eval_expr(s, {n: 1}) == -1.0

    def test_finite_sum_non_integer_bound(self):
        s = E.FiniteSum(E.sym("k"), E.LinExpr.of(0), E.LinExpr.of(a), E.ONE)
        with pytest.raises(NonIntegerSumBound):
            E.eval_expr(s, {a: 1.5})

    def test_pow_and_pi(self):
        e = E.Pow(E.PI_CONST, E.Const(Q(1, 2)))
        assert E.eval_expr(e, {}) == pytest.approx(math.sqrt(math.pi))

    def test_recip_zero(self):
        with pytest.raises(PoleError):
            E.eval_expr(E.Recip(E.Const(Q(0))), {})

    def test_watson_ref_requires_resolver(self):
        w = E.WatsonRef(E.Lin(E.LinExpr.of(a)), E.ONE, E.ONE,
                        E.LinExpr.of(0), E.LinExpr.of(0))
        with pytest.raises(UnboundSymbol):
            E.eval_expr(w, {a: 0.5})

    def test_watson_ref_callback(self):
        w = E.WatsonRef(E.Lin(E.LinExpr.of(a)), E.ONE, E.ONE,
                        E.LinExpr.of(1), E.LinExpr.of(-1))
        seen = {}

        def resolver(av, bv, cv, m, n):
            seen.update(a=av, m=m, n=n)
            return 42.0

        assert E.eval_expr(w, {a: 0.5}, watson=resolver) == 42.0
        assert seen == {"a": 0.5, "m": 1, "n": -1}


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------

class TestSubstitute:
    def test_functoriality(self):
        """substitute-then-eval equals eval-at-composed-assignment."""
        rng = random.Random(3)
        e = E.Mul((
            E.Gamma(E.Lin(E.LinExpr.of(a) + E.LinExpr.of(b))),
            E.Pochhammer(E.Lin(E.LinExpr.of(b)), E.LinExpr.of(2)),
            E.Sin(E.Lin(E.LinExpr.of(a) / 2)),
        ))
        mapping = {a: E.LinExpr.of(c) * 2 + Q(1, 3), b: E.LinExpr.of(a) - 1}
        for _ in range(20):
            assign = {a: rng.uniform(0.2, 2), c: rng.uniform(0.2, 2)}
            composed = {s: mapping.get(s, E.LinExpr.of(s)).eval(assign)
                        for s in (a, b)}
            lhs = E.eval_expr(E.substitute(e, mapping), assign)
            rhs = E.eval_expr(e, composed)
            assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-12)

    def test_bound_index_shielded(self):
        k = E.sym("k")
        body = E.Lin(E.LinExpr.of(k) + E.LinExpr.of(a))
        s = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(2), body)
        out = E.substitute(s, {k: E.LinExpr.of(99)})
        # bound index untouched; sum still 0+1+2 + 3a
        assert E.eval_expr(out, {a: 1.0}) == 6.0

    def test_index_capture_detected(self):
        k = E.sym("k")
        body = E.Lin(E.LinExpr.of(a))
        s = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(2), body)
        with pytest.raises(IndexCapture):
            E.substitute(s, {a: E.LinExpr.of(k)})

    def test_free_symbols_excludes_index(self):
        k = E.sym("k")
        body = E.Gamma(E.Lin(E.LinExpr.of(k) + E.LinExpr.of(b)))
        s = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(n), body)
        assert E.free_symbols(s) == frozenset({b, n})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_expr_round_trip(self):
        k = E.sym("k")
        e = E.Add((
            E.Mul((E.Gamma(E.Lin(E.LinExpr.of(a) + Q(1, 2))), E.PI_CONST)),
            E.Neg(E.Recip(E.Pow(E.Const(Q(2)), E.Lin(E.LinExpr.of(n))))),
            E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(n),
                        E.Pochhammer(E.Lin(E.LinExpr.of(b)), E.LinExpr.of(k))),
            E.Polygamma(1, E.Lin(E.LinExpr.of(c))),
            E.Cos(E.Lin(E.LinExpr.of(a))),
            E.Sin(E.Lin(E.LinExpr.of(a))),
            E.WatsonRef(E.Lin(E.LinExpr.of(a)), E.Lin(E.LinExpr.of(b)),
                        E.Lin(E.LinExpr.of(c)), E.LinExpr.of(1), E.LinExpr.of(n)),
        ))
        j = E.expr_to_json(e)
        assert E.expr_from_json(j) == e

    def test_lin_round_trip(self):
        l = E.LinExpr.of(a) * Q(2, 3) - E.LinExpr.of(n) + Q(5, 7)
        assert E.lin_from_json(E.lin_to_json(l)) == l
        assert E.lin_from_flat(E.lin_to_flat(l)) == l

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            E.frac_from_str("1/0")

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            E.expr_from_json(["Bogus", 1])


class TestAsReal:
    def test_collapse(self):
        assert E.as_real(2.0 + 1e-13j) == 2.0
        v = E.as_real(2.0 + 0.1j)
        assert v == 2.0 + 0.1j
