"""Expression trees: evaluation, substitution, serialization."""

import cmath
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from typing import Optional

import mpmath
import pytest

from hyp321 import contiguous, database
from hyp321 import expr as E
from hyp321.database import seed_db
from hyp321.errors import (GammaOverflow, Hyp321Error, NonFiniteParameter,
                           NonIntegerSumBound, ParseError, PoleError,
                           UnboundSymbol)
from hyp321.expr import (Add, Assignment, Const, Cos, FiniteSum, Gamma, Lin,
                         Mul, Neg, Pi, Pochhammer, Polygamma, Pow, Recip, Sin,
                         WatsonFn, WatsonRef, cpolygamma,
                         is_near_nonpositive_integer, rising_factorial)
from hyp321.matcher import identify
from hyp321.parser import parse_expr, parse_linexpr, parse_param_list
from hyp321.series import ParamSet, sample_continuous
from hyp321.thomae import CLASS_REPRESENTATIVES, apply_variant

a, b, c = E.sym("a"), E.sym("b"), E.sym("c")
n = E.sym("n")


def _node_trees():
    """Trees covering every node type, each with its free symbols."""
    k = E.sym("k")
    la, lb, ln = E.LinExpr.of(a), E.LinExpr.of(b), E.LinExpr.of(n)
    A, B = E.Lin(la), E.Lin(lb)
    return [
        (E.Const(Q(-7, 3)), ""), (E.PI_CONST, ""), (A, "a"),
        (E.Lin(la * Q(2, 7) - lb + 1), "ab"),
        (E.Add((A, B, E.ONE)), "ab"), (E.Mul((A, B, E.PI_CONST)), "ab"),
        (E.Neg(A), "a"), (E.Recip(A), "a"), (E.Recip(E.Const(Q(0))), ""),
        (E.Pow(A, B), "ab"), (E.Pow(E.Const(Q(0)), B), "b"),
        (E.Pow(E.Const(Q(0)), E.Neg(B)), "b"),
        (E.Pow(E.Const(Q(0)), E.Const(Q(0))), ""),
        (E.Gamma(A), "a"), (E.Gamma(E.Neg(A)), "a"),
        (E.Gamma(E.Const(Q(-2))), ""), (E.Gamma(E.Gamma(A)), "a"),
        (E.Sin(A), "a"), (E.Cos(A), "a"), (E.Polygamma(1, A), "a"),
        (E.Pochhammer(A, ln), "an"), (E.Pochhammer(A, ln - 3), "an"),
        (E.Pochhammer(A, lb), "ab"),
        (E.FiniteSum(k, E.LinExpr.of(0), ln, E.Lin(E.LinExpr.of(k) + la)),
         "an"),
        (E.FiniteSum(k, E.LinExpr.of(1), ln - 4, E.Gamma(E.Lin(
            E.LinExpr.of(k) + la))), "an"),
        (E.FiniteSum(k, E.LinExpr.of(0), la, E.ONE), "a"),
        (E.WatsonRef(A, B, E.ONE, E.LinExpr.of(1), ln - 2), "abn"),
        (E.WatsonRef(A, B, E.ONE, la, ln), "abn"),
    ]


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


_PICKLE_A_HASHED_FORM = """
import pickle, sys
from fractions import Fraction
from hyp321.expr import LinExpr, sym
form = LinExpr.of(sym("a")) * Fraction(2, 3) - sym("n") + Fraction(5, 4)
hash(form)
sys.stdout.write(pickle.dumps(form).hex())
"""


def _three_ways(text, syms, row, den):
    """One form built by the parser, by ``row_lin`` from an integer row
    over ``syms`` and ``den``, and by ``combine`` of the symbols."""
    lin = E.row_lin(syms, row, den)
    return (parse_linexpr(text), lin,
            E.combine([c for _, c in lin.terms],
                      [E.LinExpr.of(s) for s, _ in lin.terms], -lin.const))


class TestLinExprHash:
    """A ``LinExpr`` hashes once, to the value of its dataclass hash, and
    its hash is not part of its pickled state."""

    CASES = (("a/2 + 3*b - 1/3", (a, b), (3, 18, -2), 6),
             ("n - 2*a + 5", (a, n), (-2, 1, 5), 1),
             ("7/4", (), (7,), 4),
             ("b", (a, b), (0, 4, 0), 4))

    @pytest.mark.parametrize("text,syms,row,den", CASES)
    def test_equal_forms_hash_alike(self, text, syms, row, den):
        forms = _three_ways(text, syms, row, den)
        for form in forms:
            assert form == forms[0]
            assert hash(form) == hash((form.terms, form.const))
            assert hash(form) == hash(forms[0])
        assert len({*forms}) == 1 and {forms[0]: 1}[forms[2]] == 1

    def test_hash_is_kept_and_not_pickled(self):
        form = E.LinExpr.of(a) * Q(2, 3) - b + 1
        fresh = E.LinExpr(form.terms, form.const)
        assert hash(form) == hash(form) == hash((form.terms, form.const))
        assert "_hash" in vars(form)
        assert form.__getstate__() == {"terms": form.terms,
                                       "const": form.const}
        assert pickle.dumps(form) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(form))
        assert "_hash" not in vars(back)
        assert back == form and hash(back) == hash(form)

    def test_pickle_from_another_hash_seed(self):
        """A form hashed and pickled under another PYTHONHASHSEED hashes
        here as a form built here, so it finds its dict entry."""
        src = str(Path(E.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        if os.environ.get("PYTHONHASHSEED") == "12345":
            env["PYTHONHASHSEED"] = "54321"
        out = subprocess.run([sys.executable, "-c", _PICKLE_A_HASHED_FORM],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        got = pickle.loads(bytes.fromhex(out))
        here = E.LinExpr.of(a) * Q(2, 3) - n + Q(5, 4)
        assert hash(got) == hash(here) == hash((got.terms, got.const))
        assert {here: "here"}[got] == "here"


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
        """Off the real axis, within 1e-12 of 30-digit mpmath."""
        rng = random.Random(11)
        points = [complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
                  for _ in range(30)]
        rng = random.Random(44)
        points += [complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
                   for _ in range(500)]
        points += [complex(0.5, 1e-300), 150 + 1j, -3 + 1e-13j, -2 + 1e-14j]
        mp = mpmath.mp.clone()
        mp.dps = 30
        for z in points:
            if E.is_near_nonpositive_integer(z):
                with pytest.raises(PoleError):
                    E.cgamma(z)
                continue
            ref = mp.gamma(mp.mpc(z))
            assert abs((mp.mpc(E.cgamma(z)) - ref) / ref) <= 1e-12, z

    def test_pole_raises(self):
        for z in (0, -1, -5, -3 + 1e-13, -3 - 1e-13, -2 + 1e-14j):
            with pytest.raises(PoleError):
                E.cgamma(z)
            with pytest.raises(PoleError):
                E.loggamma(z)

    def test_real_axis_against_mpmath(self):
        """libm's Γ on the real axis, away from poles: within 2e-15."""
        rng = random.Random(13)
        mp = mpmath.mp.clone()
        mp.dps = 30
        for lo, hi in ((-8, 0.5), (0.5, 12), (12, 171.5)):
            for _ in range(300):
                x = rng.uniform(lo, hi)
                if x < 0.5 and abs(x - round(x)) < 1e-6:
                    continue
                ref = mp.gamma(mp.mpf(x))
                got = E.cgamma(x)
                assert abs((mp.mpf(got.real) - ref) / ref) <= 2e-15, x

    def test_real_axis_range(self):
        """Finite up to 171.6; overflow and underflow raise, never 0, and
        so does an overflow off the axis."""
        assert math.isfinite(E.cgamma(150.5).real)
        for x in (171.7, -190.5, 200 + 1j):  # math.gamma(-190.5) is -0.0
            with pytest.raises(OverflowError) as info:
                E.cgamma(x)
            assert isinstance(info.value, Hyp321Error)

    def test_far_from_the_real_axis(self):
        """Left of Re z = 1/2 at |Im z| >= 230, where sin(πz) overflows a
        float: within 1e-12 of 30-digit mpmath, or GammaOverflow where Γ
        is below the smallest normal float."""
        mp = mpmath.mp.clone()
        mp.dps = 30
        for x in (-1, -0.5, 0.3):
            for y in (230, -230, 300, -300, 600, -600):
                z = complex(x, y)
                ref = mp.gamma(mp.mpc(z))
                if abs(ref) < sys.float_info.min:
                    with pytest.raises(GammaOverflow):
                        E.cgamma(z)
                    continue
                assert abs((mp.mpc(E.cgamma(z)) - ref) / ref) <= 1e-12, z

    def test_complex_underflow_is_typed(self):
        """Γ(-200 + 0.5i) underflows to 0: GammaOverflow, as on the real
        axis, also through 1/Γ and a Pochhammer symbol."""
        with pytest.raises(GammaOverflow):
            E.cgamma(-200 + 0.5j)
        for text in ("1/G(a)", "poch(a, 1/2)"):
            with pytest.raises(GammaOverflow):
                E.eval_expr(parse_expr(text), {a: -200 + 0.5j})

    def test_real_input_has_positive_zero_imaginary_part(self):
        for z in (2.5, -2.5, -7.5, 1e-9, complex(3.25, -0.0)):
            assert math.copysign(1.0, E.cgamma(z).imag) == 1.0, z

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

    @pytest.mark.parametrize("order", [E.MAX_POLYGAMMA_ORDER + 1, 100000,
                                       10 ** 7, -1])
    def test_order_out_of_range_is_a_parse_error(self, order):
        """The parser and the JSON reader refuse the order before mpmath
        could spend seconds (10^5) or hang (10^7) on it."""
        with pytest.raises(ParseError, match="polygamma order"):
            parse_expr(f"psi({order}, a)")
        j = E.expr_to_json(parse_expr("psi(1, a)"))
        j[1] = order
        with pytest.raises(ParseError, match="polygamma order"):
            E.expr_from_json(j)

    def test_non_finite_value_is_typed(self):
        top = parse_expr(f"psi({E.MAX_POLYGAMMA_ORDER}, a)")
        assert E.expr_from_json(E.expr_to_json(top)) == top
        with pytest.raises(GammaOverflow):
            E.eval_expr(top, {a: 0.5})
        assert E.eval_expr(parse_expr("psi(1, a)"), {a: 0.5}).real == \
            pytest.approx(math.pi ** 2 / 2, rel=1e-12)


class TestNearestInteger:
    def test_tolerance_and_strictness(self):
        assert E.nearest_integer(3.25 + 0.25j, 0.25) == 3
        assert E.nearest_integer(3.25 + 0j, 0.25, strict=True) is None
        assert E.nearest_integer(complex(-2, 0.25), 0.25, strict=True) is None
        assert E.nearest_integer(-2.125 - 0.125j, 0.25, strict=True) == -2
        assert E.nearest_integer(2.5 + 0j, 0.4) is None
        assert E.nearest_integer(4, 0) == 4
        assert E.nearest_integer(complex(7, 2), 1e-9) is None

    def test_callers_keep_their_comparison(self):
        """An imaginary part of exactly 1e-12 sends a count through Γ; one
        of exactly 1e-9 leaves a sum bound an integer."""
        tree = E.Pochhammer(E.Lin(E.LinExpr.of(a)), E.LinExpr.of(b))
        assert E.eval_expr(tree, {a: 1.5, b: complex(2, 1e-12)}) == \
            E.cgamma(complex(3.5, 1e-12)) / E.cgamma(1.5)
        assert E.eval_expr(tree, {a: 1.5, b: complex(2, 5e-13)}) == 1.5 * 2.5
        k = E.sym("k")
        total = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(b), E.ONE)
        assert E.eval_expr(total, {b: complex(3, 1e-9)}) == 4
        with pytest.raises(NonIntegerSumBound):
            E.eval_expr(total, {b: complex(3, 2e-9)})


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

    def test_index_capture_renames_the_index(self):
        k, k_ = E.sym("k"), E.Symbol("k_", "integer")
        body = E.Lin(E.LinExpr.of(k) + E.LinExpr.of(a))
        s = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(2), body)
        out = E.substitute(s, {a: E.LinExpr.of(k)})
        # the target's k stays free: sum over k_ of k_ + k is 3 + 3k
        assert out == E.FiniteSum(k_, E.LinExpr.of(0), E.LinExpr.of(2),
                                  E.Lin(E.LinExpr.of(k) + E.LinExpr.of(k_)))
        assert E.free_symbols(out) == frozenset({k})
        assert E.eval_expr(out, {k: 5}) == 18

    def test_index_capture_needs_the_symbol_in_the_body(self):
        k = E.sym("k")
        s = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(2),
                        E.Lin(E.LinExpr.of(a)))
        assert E.substitute(s, {b: E.LinExpr.of(k)}) == s
        # a bound is outside the index's scope
        s = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(b), E.ONE)
        assert E.substitute(s, {b: E.LinExpr.of(k)}).upper == E.LinExpr.of(k)

    def test_nested_capture_renames_each_index(self):
        k, k_ = E.sym("k"), E.Symbol("k_", "integer")
        inner = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(k_),
                            E.Lin(E.LinExpr.of(k) + E.LinExpr.of(a)))
        s = E.FiniteSum(k, E.LinExpr.of(1), E.LinExpr.of(n), inner)
        out = E.substitute(s, {a: E.LinExpr.of(k)})
        # the inner k_ is free in the outer body, so the outer index is k__;
        # the inner index skips k_, which its own upper bound reads as free,
        # and k__, which is a target
        assert out.index.name == "k__" and out.body.index.name == "k___"
        assert out.body.upper == E.LinExpr.of(k_)
        assert E.expr_str(out.body).startswith("Sum(k___, 0, k_, ")
        assert E.free_symbols(out) == frozenset({n, k_, k})
        assert E.eval_expr(out, {n: 3, k_: 2, k: 2.0}) == E.eval_expr(
            s, {n: 3, k_: 2, a: 2.0}) == 27
        assert E.substitute(s, {a: E.LinExpr.of(b)}).index == k

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
        for tree, names in _node_trees():
            assert E.expr_from_json(E.expr_to_json(tree)) == tree
            assert E.substitute(tree, {}) == tree
            assert {s.name for s in E.free_symbols(tree)} == set(names)

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

    @pytest.mark.parametrize("j", [
        ["Polygamma", "x", ["Pi"]], ["Polygamma", True, ["Pi"]],
        ["lin", "notadict"], ["lin", {"a": 1}], ["lin", {3: "1"}],
        ["Pochhammer", ["Pi"], [{"const": "1"}]],
        ["FiniteSum", 3, {"const": "0"}, {"const": "2"}, ["Pi"]],
        ["Const", 3], ["Pi", ["Pi"]], ["Pow", ["Pi"]], [["Add"]], ["Add", 1],
    ])
    def test_malformed_node(self, j):
        with pytest.raises(ParseError):
            E.expr_from_json(j)

    @pytest.mark.parametrize("d", [
        "notadict", {"coeffs": "x"}, {"coeffs": {"a": 1}},
        {"coeffs": {}, "const": 0.5},
    ])
    def test_malformed_lin(self, d):
        with pytest.raises(ParseError):
            E.lin_from_json(d)

    def test_symbol_named_const_has_no_flat_form(self):
        """The flat form keeps the constant under "const"; a symbol of that
        name would be overwritten, so writing it fails instead."""
        for text in ("G(const + 1)", "Sum(k, const, 2, k)"):
            with pytest.raises(ParseError, match="'const'"):
                E.expr_to_json(parse_expr(text))
        assert E.lin_to_flat(E.LinExpr.of(a) + Q(1, 2)) == {"a": "1",
                                                             "const": "1/2"}

    def test_every_node_type_has_a_shape_tag_and_evaluator(self):
        """A node type cannot join one traversal and miss another."""
        sample = {E.EXPR: E.ONE, E.EXPRS: (E.ONE,), E.LIN: E.LinExpr.of(1),
                  E.INDEX: E.sym("k"), E.FRAC: Q(1), E.INT: 0}
        nodes = [x for x in vars(E).values() if isinstance(x, type)
                 and issubclass(x, E.Expr) and x is not E.Expr]
        assert set(nodes) == set(E.SHAPES) == set(E.JSON_TAGS)
        for node in nodes:
            tree = node(*(sample[kind] for _, kind in E.SHAPES[node]))
            assert E.expr_from_json(E.expr_to_json(tree)) == tree
            E.eval_expr(tree, {}, watson=_fake_watson)


class TestAsReal:
    def test_collapse(self):
        assert E.as_real(2.0 + 1e-13j) == 2.0
        v = E.as_real(2.0 + 0.1j)
        assert v == 2.0 + 0.1j


# ---------------------------------------------------------------------------
# Differential: the evaluator against its straightforward form
# ---------------------------------------------------------------------------

# The three functions below are the evaluator as it was before it was tuned
# (Fraction coefficients through complex(), the node types in declaration
# order), with Γ taken from math.gamma on the real axis and from
# exp(loggamma) off it.  Every value of the tuned evaluator must equal
# theirs bit for bit.

def ref_lin_eval(self, assignment):
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


def ref_cgamma(z: complex) -> complex:
    z = complex(z)
    if is_near_nonpositive_integer(z):
        raise PoleError(f"gamma pole at {z}")
    if z.imag == 0:
        try:
            g = math.gamma(z.real)
        except OverflowError:
            g = 0.0
        if g == 0:
            raise GammaOverflow(f"gamma out of range at {z}")
        return complex(g)
    log = E.loggamma(z)
    try:
        return cmath.exp(log)
    except OverflowError:
        raise GammaOverflow(f"gamma out of range at {z}") from None


def ref_eval_expr(e: E.Expr, assignment: Assignment,
                  watson: Optional[WatsonFn] = None) -> complex:
    if isinstance(e, Const):
        return complex(e.value)
    if isinstance(e, Pi):
        return complex(math.pi)
    if isinstance(e, Lin):
        return ref_lin_eval(e.lin, assignment)
    if isinstance(e, Add):
        return sum((ref_eval_expr(a, assignment, watson) for a in e.args), 0j)
    if isinstance(e, Mul):
        out: complex = 1.0
        for a in e.args:
            out *= ref_eval_expr(a, assignment, watson)
        return out
    if isinstance(e, Neg):
        return -ref_eval_expr(e.arg, assignment, watson)
    if isinstance(e, Recip):
        v = ref_eval_expr(e.arg, assignment, watson)
        if v == 0:
            raise PoleError("division by zero")
        return 1.0 / v
    if isinstance(e, Pow):
        b = ref_eval_expr(e.base, assignment, watson)
        p = ref_eval_expr(e.exponent, assignment, watson)
        if b == 0:
            if p.real > 0:
                return 0.0
            raise PoleError("0 raised to a non-positive power")
        return cmath.exp(p * cmath.log(b))
    if isinstance(e, Gamma):
        return ref_cgamma(ref_eval_expr(e.arg, assignment, watson))
    if isinstance(e, Sin):
        return cmath.sin(ref_eval_expr(e.arg, assignment, watson))
    if isinstance(e, Cos):
        return cmath.cos(ref_eval_expr(e.arg, assignment, watson))
    if isinstance(e, Polygamma):
        return cpolygamma(e.order, ref_eval_expr(e.arg, assignment, watson))
    if isinstance(e, Pochhammer):
        base = ref_eval_expr(e.base, assignment, watson)
        cnt = ref_lin_eval(e.count, assignment)
        if abs(cnt.imag) < 1e-12 and abs(cnt.real - round(cnt.real)) < 1e-12:
            return rising_factorial(base, int(round(cnt.real)))
        return ref_cgamma(base + cnt) / ref_cgamma(base)
    if isinstance(e, FiniteSum):
        lo = ref_lin_eval(e.lower, assignment)
        hi = ref_lin_eval(e.upper, assignment)
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
            total += ref_eval_expr(e.body, inner, watson)
        return sign * total
    if isinstance(e, WatsonRef):
        if watson is None:
            raise UnboundSymbol("WatsonRef encountered without a watson resolver")
        a = ref_eval_expr(e.a, assignment, watson)
        b = ref_eval_expr(e.b, assignment, watson)
        c = ref_eval_expr(e.c, assignment, watson)
        m = ref_lin_eval(e.m, assignment)
        n = ref_lin_eval(e.n, assignment)
        for v in (m, n):
            if abs(v.imag) > 1e-9 or abs(v.real - round(v.real)) > 1e-9:
                raise NonIntegerSumBound(f"Watson offset {v} is not an integer")
        return watson(a, b, c, int(round(m.real)), int(round(n.real)))
    raise TypeError(f"unknown node {e!r}")


def _fake_watson(a, b, c, m, n):
    """A cheap resolver: both evaluators must pass it the same arguments."""
    return a * 3 + b - c * 1j + m - 0.5 * n


def _outcome(fn, *args):
    """``repr`` of the value, or the type of the exception raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the type is what is compared
        return type(exc)


def _assert_same(e, assignment, watson=_fake_watson):
    got = _outcome(E.eval_expr, e, assignment, watson)
    want = _outcome(ref_eval_expr, e, assignment, watson)
    assert got == want, (E.expr_str(e), assignment)
    return want


def _draw(rng, symbols, complex_part: bool):
    out = {}
    for s in symbols:
        if s.kind == "integer":
            out[s] = rng.randint(0, 4)
        else:
            out[s] = sample_continuous(rng)
            if complex_part:
                out[s] += 1j * rng.uniform(-0.5, 0.5)
    return out


class TestEvaluatorDifferential:
    def test_seed_entries(self):
        """Every entry's derived definitions and closed form, at seeded draws."""
        rng = random.Random(41)
        compared = 0
        for entry in seed_db():
            ints = [s for s, _ in entry.int_symbols]
            for k in range(4):
                full = _draw(rng, entry.base_continuous() + tuple(ints),
                             complex_part=k >= 2)
                for s, d in entry.derived:
                    value = _assert_same(d, full)
                    if not isinstance(value, str):
                        break
                    full[s] = ref_eval_expr(d, full)
                else:
                    _assert_same(entry.rhs, full)
                    compared += 1
        assert compared >= 300

    def test_anchors_and_prefactors(self):
        """The four Watson seeds and the four conversion prefactors; trees
        built at run time: the Thomae prefactor of every seed entry under
        each class representative, and the closed forms of the hits of the
        README's symbolic ``identify`` query."""
        rng = random.Random(42)
        anchors = contiguous.anchor_entries()
        assert len(anchors) == 4
        prefactors = list(contiguous._QUOTIENTS.values())
        assert len(prefactors) == 4
        sa, sb, sc, sm, sn = (E.sym(x) for x in "abcmn")
        for k in range(20):
            assignment = _draw(rng, (sa, sb, sc), complex_part=k % 2 == 1)
            for entry, _ in anchors.values():
                _assert_same(entry.rhs, assignment)
            assignment.update({sm: rng.randint(-4, 4), sn: rng.randint(-4, 4)})
            for pref in prefactors:
                _assert_same(pref, assignment)
        built = [apply_variant(v, e.lhs)[1] for e in seed_db()
                 for v in CLASS_REPRESENTATIVES]
        hits = identify(seed_db(), ParamSet.make(
            parse_param_list("a,b,2-b"), parse_param_list("c,2*a+2-c")))
        assert len(hits) == 24
        for tree in built + [h.instantiated_rhs for h in hits]:
            for complex_part in (False, True):
                _assert_same(tree, _draw(rng, sorted(E.free_symbols(tree)),
                                         complex_part))

    def test_one_tree_per_node_type(self):
        A, B = E.Lin(E.LinExpr.of(a)), E.Lin(E.LinExpr.of(b))
        ln = E.LinExpr.of(n)
        rng = random.Random(43)
        for tree, _ in _node_trees():
            for j in range(6):
                assignment = _draw(rng, (a, b, n), complex_part=j % 2 == 1)
                _assert_same(tree, assignment)
        unresolved = E.WatsonRef(A, B, E.ONE, E.LinExpr.of(0), ln)
        assert _assert_same(unresolved, {a: 0.5, b: 0.25, n: 1},
                            watson=None) is UnboundSymbol
        assert _assert_same(E.Add((A, B)), {a: 0.5}) is UnboundSymbol

    def test_real_forms_at_the_edges_of_gamma(self):
        """Real values (float, int, complex with imaginary part ±0.0) take
        the float path; compared with the complex reference by repr, so
        signed zeros, NaN and every exception type count."""
        la, lb = E.LinExpr.of(a), E.LinExpr.of(b)
        trees = [E.Gamma(E.Lin(la)), E.Gamma(E.Lin(la * Q(1, 2) + lb - 1)),
                 E.Lin(la * Q(-1, 3) + 2), E.Lin(la - lb),
                 E.Mul((E.Gamma(E.Lin(la + lb)), E.Recip(E.Gamma(E.Lin(lb))))),
                 E.Add((E.Lin(la), E.Gamma(E.Lin(lb - la)), E.PI_CONST))]
        edges = [1e-13, -1e-13, 5e-13, -3 + 5e-13, -3 - 5e-13, -3 + 2e-12,
                 171.6, 171.7, -178.5, -180.5, 0.0, -0.0, 0.5, -0.5, 1e308,
                 math.nan, math.inf, -math.inf, 0, -3, 7, 10 ** 400]
        for x in edges:
            values = [x] if isinstance(x, int) and abs(x) > 1e300 else \
                [x, complex(x), complex(x, -0.0)]
            for value in values:
                for tree in trees:
                    _assert_same(tree, {a: value, b: 0.5})
                    _assert_same(tree, {a: 0.25, b: value})
                    _assert_same(tree, {a: value, b: value})

    def test_int_sum_index_and_mixed_assignments(self):
        k = E.sym("k")
        la = E.LinExpr.of(a)
        total = E.FiniteSum(k, E.LinExpr.of(0), E.LinExpr.of(n),
                            E.Mul((E.Gamma(E.Lin(la + k)),
                                   E.Lin(E.LinExpr.of(k) * Q(1, 2) - la))))
        trees = [total, E.Gamma(E.Lin(la + b)), E.Lin(la * 3 - b + 1),
                 E.Add((E.Gamma(E.Lin(la)), E.Gamma(E.Lin(E.LinExpr.of(b)))))]
        for assignment in ({a: 0.25, b: 0.5, n: 3}, {a: -2.5, b: 0, n: 4},
                           {a: 0.3, b: 0.2 + 0.1j, n: 2},
                           {a: 0.3 - 0.25j, b: 0.2, n: 1},
                           {a: complex(0.3, -0.0), b: 0.2 + 0j, n: 2 + 0j}):
            for tree in trees:
                _assert_same(tree, assignment)

    def test_real_values_never_reach_cgamma(self, monkeypatch):
        tree = E.Mul((E.Gamma(E.Lin(E.LinExpr.of(a) + b)), E.Gamma(E.ONE)))
        want = E.eval_expr(tree, {a: 0.25, b: 0.5})

        def refuse(z):
            raise AssertionError(f"cgamma({z})")
        monkeypatch.setattr(E, "cgamma", refuse)
        for b_value in (0.5, 0.5 + 0j, complex(0.5, -0.0)):
            assert E.eval_expr(tree, {a: 0.25, b: b_value}) == want
        with pytest.raises(AssertionError, match="cgamma"):
            E.eval_expr(tree, {a: 0.25, b: 0.5 + 1e-3j})

    def test_lin_eval_matches_complex_of_fraction(self):
        """n / d is complex(Fraction) bit for bit, int constants included."""
        rng = random.Random(45)
        for _ in range(4000):
            num = rng.choice((rng.randint(-10, 10),
                              rng.randint(-10 ** 40, 10 ** 40)))
            den = rng.choice((rng.randint(1, 12), rng.randint(1, 10 ** 40)))
            q = Q(num, den)
            const = rng.randint(-10 ** 20, 10 ** 20)
            lin = E.LinExpr(((a, q),), const) if q else E.LinExpr((), const)
            x = rng.choice((sample_continuous(rng),
                            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                            rng.randint(-5, 5), -0.0))
            assert repr(E.LinExpr((), q).eval({})) == repr(complex(q))
            assert repr(lin.eval({a: x})) == repr(ref_lin_eval(lin, {a: x}))
        # several terms, non-finite and huge values, numpy floats and an
        # unbound symbol: the value's repr or the exception's type
        import numpy
        la, lb, lc = E.LinExpr.of(a), E.LinExpr.of(b), E.LinExpr.of(c)
        forms = [la * Q(-1, 3) + lb * Q(5, 2) - lc + Q(7, 11), la - lb,
                 lb * 2 + lc * Q(1, 10 ** 30), la * Q(10 ** 40, 3) + b - Q(1, 2)]
        values = [0.25, -0.0, complex(-1.5, -0.0), 2 + 0j, 0.5 + 1e-300j, 3,
                  math.nan, math.inf, -math.inf, complex(math.inf, 0.0),
                  10 ** 400, numpy.float64(0.3), numpy.float64(-2.5),
                  numpy.float64(math.nan)]
        for form in forms:
            for x, y in ((x, y) for x in values for y in values[:6] + values[-3:]):
                for point in ({a: x, b: y, c: 0.75}, {a: y, b: x, c: x},
                              {a: x, c: y}):
                    assert _outcome(form.eval, point) == \
                        _outcome(ref_lin_eval, form, point), (form, point)

    def test_huge_coefficient_raises_every_call(self):
        huge = 10 ** 400
        for lin in (E.LinExpr.of(a) * huge, E.LinExpr.of(huge),
                    E.LinExpr(((a, Q(1)),), huge)):
            for _ in range(3):
                with pytest.raises(NonFiniteParameter):
                    lin.eval({a: 1.0})

    def test_program_reused_at_two_assignments(self):
        tree = E.Mul((E.Gamma(E.Lin(E.LinExpr.of(a) * Q(1, 2) + 1)),
                      E.Recip(E.Gamma(E.Lin(E.LinExpr.of(a) + b)))))
        for assignment in ({a: 0.25, b: 0.5}, {a: 1.5 + 0.25j, b: 2}):
            _assert_same(tree, assignment)

    def test_pole_then_value(self):
        tree = E.Add((E.Gamma(E.Lin(E.LinExpr.of(a))), E.PI_CONST))
        for x in (-2.0, 0.5, -3.0, 1.5):
            _assert_same(tree, {a: x})
        with pytest.raises(PoleError):
            E.eval_expr(tree, {a: -2.0})
        assert E.eval_expr(tree, {a: 0.5}) == math.sqrt(math.pi) + math.pi

    @pytest.mark.parametrize("lin", [
        E.LinExpr.of(a) * 10 ** 400, E.LinExpr.of(10 ** 400),
        E.LinExpr(((a, Q(1)), (b, Q(10 ** 400))), Q(0))])
    def test_huge_coefficient_in_gamma_raises_every_call(self, lin):
        tree = E.Mul((E.ONE, E.Gamma(E.Lin(lin))))
        for _ in range(3):
            with pytest.raises(NonFiniteParameter):
                E.eval_expr(tree, {a: 1.0, b: 1.0})
        # the error the unbound symbol a and the huge number meet first
        _assert_same(tree, {b: 1.0})

    def test_huge_constant_raises_a_typed_error_every_call(self):
        tree = E.Gamma(E.Const(Q(10 ** 400)))
        for _ in range(3):
            with pytest.raises(NonFiniteParameter):
                E.eval_expr(tree, {})

    def test_pickle_after_evaluation(self):
        point = {a: 0.25, b: 0.5, n: 3}
        for tree, _ in _node_trees():
            first = _outcome(E.eval_expr, tree, point, _fake_watson)
            back = pickle.loads(pickle.dumps(tree))
            assert back == tree and hash(back) == hash(tree)
            assert vars(back) == vars(tree)  # the program is not on the node
            assert _outcome(E.eval_expr, back, point, _fake_watson) == first

    def test_lin_pickled_after_evaluation(self):
        """The float form is not pickled: an evaluated LinExpr pickles as a
        fresh one, and loads equal, with the same hash and value."""
        point = {a: 0.25, b: -1.5, c: 2 + 0.5j}
        for form in (E.LinExpr.of(a) * Q(2, 3) - b + 1, E.LinExpr.of(Q(-7, 4)),
                     E.LinExpr.of(c) - a, E.LinExpr.of(a) * 10 ** 400):
            first = _outcome(form.eval, point)
            assert _outcome(form.eval, point) == first
            fresh = E.LinExpr(form.terms, form.const)
            assert pickle.dumps(form) == pickle.dumps(fresh)
            back = pickle.loads(pickle.dumps(form))
            assert back == form and hash(back) == hash(form)
            assert _outcome(back.eval, point) == first

    def test_seed_db_computes_no_float_form(self, monkeypatch):
        """Import and ``seed_db()`` are what a fresh process pays for
        before its first evaluation: no linear form is evaluated there."""
        def refuse(form):
            raise AssertionError(f"float form of {form}")
        monkeypatch.setattr(E.LinExpr, "floats", property(refuse))
        monkeypatch.setattr(database, "_SEED_CACHE", None)
        seed_db()
        with pytest.raises(AssertionError, match="float form"):
            E.LinExpr.of(a).eval({a: 1.0})

    def test_unknown_node(self):
        with pytest.raises(TypeError, match="unknown node"):
            E.eval_expr(E.LinExpr.of(a), {a: 1.0})


# ---------------------------------------------------------------------------
# Symbols: hashing, interning, pickling
# ---------------------------------------------------------------------------

_PICKLE_A_SYMBOL = """
import pickle, sys
from hyp321.expr import sym
sys.stdout.write(pickle.dumps([sym("a"), sym("n")]).hex())
"""


class TestSymbol:
    def test_hash_is_the_dataclass_value(self):
        for name, kind in (("a", "continuous"), ("n", "integer")):
            assert hash(E.Symbol(name, kind)) == hash((name, kind))

    def test_sym_is_interned(self):
        assert E.sym("a") is E.sym("a")
        assert E.sym("a") == E.Symbol("a")

    def test_pickle_from_another_hash_seed(self):
        """A symbol pickled under another PYTHONHASHSEED finds its entry."""
        src = str(Path(E.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        if os.environ.get("PYTHONHASHSEED") == "12345":
            env["PYTHONHASHSEED"] = "54321"
        out = subprocess.run([sys.executable, "-c", _PICKLE_A_SYMBOL],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        got_a, got_n = pickle.loads(bytes.fromhex(out))
        table = {E.sym("a"): "a", E.sym("n"): "n"}
        assert table[got_a] == "a" and table[got_n] == "n"
        assert got_n.kind == "integer"
        assert hash(got_a) == hash(("a", "continuous"))
