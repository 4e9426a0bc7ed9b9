"""Contiguous-element engine: recursions, anchors, and conversion formulas."""

import cmath
import itertools
import random
from types import SimpleNamespace

import pytest

from hyp321 import contiguous
from hyp321 import expr as E
from hyp321.contiguous import (MAX_OFFSET, ContigQuery, anchor_entries,
                               anchor_value, dixon_element, dixon_swap,
                               p_from_w, p_from_x, watson_element,
                               whipple_element, w_to_x, x_to_w, _WatsonLattice)
from hyp321.database import get_entry, seed_db, verify_entry
from hyp321.errors import (ExceptionalCase, GammaOverflow, Hyp321Error,
                           NoConvergentCheck, NonFiniteParameter,
                           NonFiniteValue, ShapeError,
                           SingularRecursionPath)
from hyp321.parser import parse_expr
from hyp321.series import ParamSet, sum_series_numeric
from hyp321.thomae import apply_variant

a_s, b_s, c_s = E.sym("a"), E.sym("b"), E.sym("c")

#: the defining ₃F₂ parameters of each family, written out independently of
#: ``ContigQuery.series_params``
_FAMILIES = {
    "watson": lambda a, b, c, m, n: ((a, b, c), ((a + b + 1 + m) / 2,
                                                 2 * c + n)),
    "dixon": lambda a, b, c, m, n: ((a, b, c), (1 + m + a - b,
                                                1 + m + n + a - c)),
    "whipple": lambda a, b, c, m, n: ((a, b, 1 - b + m + n),
                                      (c, 1 + 2 * a + m - c)),
}

#: the four conversion quotients as derived by hand, the reference for the
#: quotients that ``contiguous`` builds from the Thomae group
_HAND_QUOTIENTS = {
    ("dixon", "watson"): "G(a-2*b-2*c+2+2*m+n)*G(1+a-c+m+n)"
                         " / (G(1-c+m+n)*G(2*a-2*b-2*c+2+2*m+n))",
    ("watson", "dixon"): "G(c+n+(1+m-a-b)/2)*G(2*c+n)*G((a+b+1+m)/2)"
                         " / (G(a)*G(c+n+(1+m+b-a)/2)*G(2*c+n+(1+m-a-b)/2))",
    ("whipple", "watson"): "G(a-n)*G(c)*G(1+m+2*a-c)"
                           " / (G(b)*G(2*a-n)*G(a-b+m+1))",
    ("whipple", "dixon"): "G(a-n)*G(c) / (G(b+c-1-m-n)*G(a-b+m+1))",
}


def _watson_draw(rng, m, n):
    """(a, b, c) with the W_{m,n} series comfortably convergent."""
    a = rng.uniform(0.1, 0.9)
    b = rng.uniform(0.1, 0.9)
    c = max(0.7 + (a + b - 1 - m) / 2 - n, 0.3) + rng.uniform(0.0, 0.8)
    return a, b, c


def _watson_series(a, b, c, m, n, rel_tol=1e-12):
    return sum_series_numeric([a, b, c], [(a + b + 1 + m) / 2, 2 * c + n],
                              rel_tol=rel_tol).value


class TestWatson:
    def test_grid_matches_oracle(self):
        rng = random.Random(3)
        for m, n in itertools.product(range(-2, 4), repeat=2):
            for _ in range(3):
                a, b, c = _watson_draw(rng, m, n)
                w = watson_element(a, b, c, m, n)
                ref = _watson_series(a, b, c, m, n)
                assert abs(w - ref) <= 1e-7 * max(1.0, abs(ref)), (m, n)

    def test_far_offsets(self):
        rng = random.Random(7)
        for m, n in ((-4, 5), (6, -3), (5, 6), (-4, -4)):
            a, b, c = _watson_draw(rng, m, n)
            w = watson_element(a, b, c, m, n)
            ref = _watson_series(a, b, c, m, n)
            assert abs(w - ref) <= 1e-7 * max(1.0, abs(ref))

    def test_classical_point(self):
        w = watson_element(0.3, 0.5, 1.4, 0, 0)
        ref = _watson_series(0.3, 0.5, 1.4, 0, 0)
        assert abs(w - ref) <= 1e-9 * abs(ref)

    def test_path_independence(self):
        # W(2,1) three ways: the lattice walk, the n-recursion applied to
        # lattice values in its column, and the m-recursion across columns.
        rng = random.Random(11)
        for _ in range(5):
            a, b, c = _watson_draw(rng, 2, 1)
            lat = _WatsonLattice(a, b, c)
            direct = lat.value(2, 1)
            c1, c2 = lat._n_step(2, 1)
            via_n = c1 * lat.value(2, 0) + c2 * lat.value(2, -1)
            ca, cb = lat._m_step(2, 1)
            via_m = ca * lat.value(0, 1) + cb * lat.value(-2, 1)
            scale = max(1.0, abs(direct))
            assert abs(direct - via_n) <= 1e-8 * scale
            assert abs(direct - via_m) <= 1e-8 * scale

    def test_recursions_as_identities(self):
        # feed oracle values into both three-term stencils
        rng = random.Random(23)
        for _ in range(10):
            m = rng.randint(0, 2)
            n = rng.randint(0, 2)
            a, b, c = _watson_draw(rng, m - 4, n - 2)
            lat = _WatsonLattice(a, b, c)
            c1, c2 = lat._n_step(m, n)
            lhs = _watson_series(a, b, c, m, n)
            rhs = (c1 * _watson_series(a, b, c, m, n - 1)
                   + c2 * _watson_series(a, b, c, m, n - 2))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
            ca, cb = lat._m_step(m, n)
            lhs2 = _watson_series(a, b, c, m, n)
            rhs2 = (ca * _watson_series(a, b, c, m - 2, n)
                    + cb * _watson_series(a, b, c, m - 4, n))
            assert abs(lhs2 - rhs2) <= 1e-8 * max(1.0, abs(lhs2))

    def test_mixed_relation_as_identity(self):
        # feed oracle values into W(m, n) = α·W(m−2, n) + β·W(m−2, n+1)
        rng = random.Random(29)
        for _ in range(10):
            m = rng.randint(-1, 3)
            n = rng.randint(-1, 2)
            a, b, c = _watson_draw(rng, m - 2, n)
            alpha, beta = _WatsonLattice(a, b, c)._mixed_step(m, n)
            lhs = _watson_series(a, b, c, m, n)
            rhs = (alpha * _watson_series(a, b, c, m - 2, n)
                   + beta * _watson_series(a, b, c, m - 2, n + 1))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs)), (m, n)

    @pytest.mark.parametrize("args", [
        (1.3, 0.3, 0.9, 2, 0),     # d = a: (a + b + 1)/2 = a in column 0
        (0.3, 0.2, 0.5, 2, -1),    # e = 2c + n = 0
        (-0.3, -0.7, 0.9, 2, 0)])  # d = (a + b + 1)/2 = 0
    def test_mixed_step_singular(self, args):
        with pytest.raises(SingularRecursionPath, match="mixed step"):
            watson_element(*args)

    def test_mixed_step_where_d_equals_e(self):
        # no singularity: γ = 0, so W(2, 0) = W(0, 1)
        a, b = 0.3, 0.5
        lat = _WatsonLattice(a, b, (a + b + 1) / 4)
        alpha, beta = lat._mixed_step(2, 0)
        assert abs(alpha) <= 1e-15 and abs(beta - 1) <= 1e-15
        assert lat.value(2, 0) == pytest.approx(lat.value(0, 1), rel=1e-14)

    #: anchors of the eight-anchor lattice that the four seeds determine:
    #: (m, n) -> (entry id, permutation), as in ``contiguous._ANCHOR_SPEC``
    FREED = {(0, -1): ("B.43", (0, 1, 2)), (1, 0): ("B.47", (0, 1, 2)),
             (1, -1): ("B.51", (2, 0, 1)), (2, 0): ("C.6", (0, 1, 2))}

    def test_freed_anchors_reproduced(self):
        """The lattice agrees with the closed forms it no longer reads, and
        with the series at the unknown it no longer resolves, u = W(2, 1).
        Odd m reaches column 1 from column −1 by the mixed step, whose
        denominator has the factor (a − b)²: near a = b (where B.47's closed
        form has a pole) it refuses."""
        rng = random.Random(37)
        db = seed_db()
        cases = [(m, n, get_entry(db, eid).rhs, perm)
                 for (m, n), (eid, perm) in self.FREED.items()]
        for m, n, rhs, perm in cases + [(2, 1, None, None)]:
            for _ in range(20):
                a, b, c = _watson_draw(rng, m, n)
                ref = _watson_series(a, b, c, m, n) if rhs is None else \
                    E.eval_expr(rhs, {s: (a, b, c)[i]
                                      for s, i in zip((a_s, b_s, c_s), perm)})
                try:
                    w = watson_element(a, b, c, m, n)
                except SingularRecursionPath:
                    assert m % 2 and abs(a - b) < 1e-2, (m, n, a, b, c)
                    continue
                assert abs(w - ref) <= 1e-7 * max(1.0, abs(ref)), (m, n)

    def test_anchor_consistency(self):
        rng = random.Random(31)
        for (m, n) in anchor_entries():
            for _ in range(10):
                a, b, c = _watson_draw(rng, m, n)
                anchor = anchor_value(m, n, a, b, c)
                ref = _watson_series(a, b, c, m, n)
                assert abs(anchor - ref) <= 1e-8 * max(1.0, abs(ref)), (m, n)

    def test_singular_path_detected(self):
        # a - b - m + 1 = 0 at the m-step for m = 3
        with pytest.raises(SingularRecursionPath):
            watson_element(2.2, 0.2, 3.0, 3, 0)

    def test_n_step_below_the_seeds_singular(self):
        # W(0, -1) solves the n-step at (0, 1) for its lowest term, whose
        # coefficient vanishes at 2c = a + b + 1
        with pytest.raises(SingularRecursionPath, match=r"^n-step at "
                           r"\(m,n\)=\(0,1\) cannot be inverted$"):
            watson_element(0.3, 0.5, 0.9, 0, -1)

    def test_no_convergent_check_carries_value(self):
        plain = watson_element(0.3, 0.4, 0.25, 0, -2)
        with pytest.raises(NoConvergentCheck) as info:
            watson_element(0.3, 0.4, 0.25, 0, -2, rel_tol=1e-7)
        assert info.value.value == plain


class TestDixon:
    def test_matches_c3_and_c4(self):
        rng = random.Random(5)
        db = seed_db()
        for eid, (m, n) in (("C.3", (-1, 0)), ("C.4", (2, 0))):
            entry = get_entry(db, eid)
            for _ in range(5):
                a = rng.uniform(0.3, 0.8)
                b = rng.uniform(0.05, 0.25)
                c = rng.uniform(0.05, 0.25)
                closed = E.eval_expr(entry.rhs, {a_s: a, b_s: b, c_s: c})
                val = dixon_element(a, b, c, m, n)
                assert abs(val - closed) <= 1e-7 * max(1.0, abs(closed)), eid

    def test_well_poised_base_case(self):
        rng = random.Random(13)
        for _ in range(3):
            a = rng.uniform(0.2, 0.6)
            b = rng.uniform(0.05, 0.3)
            c = rng.uniform(0.05, 0.3)
            val = dixon_element(a, b, c, 0, 0)
            ref = sum_series_numeric([a, b, c], [1 + a - b, 1 + a - c],
                                     rel_tol=1e-12).value
            assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_index_swap_symmetry(self):
        rng = random.Random(17)
        for _ in range(6):
            a = rng.uniform(0.5, 0.8)
            b = rng.uniform(0.05, 0.25)
            c = rng.uniform(0.05, 0.25)
            m, n = rng.randint(-1, 2), rng.randint(-1, 2)
            x1 = dixon_element(a, b, c, m, n)
            x2 = dixon_element(*dixon_swap(a, b, c, m, n))
            assert abs(x1 - x2) <= 1e-9 * max(1.0, abs(x1))


class TestWhipple:
    def test_matches_series(self):
        rng = random.Random(19)
        for m, n in itertools.product(range(-1, 3), repeat=2):
            a = rng.uniform(1.0, 1.8)
            b = rng.uniform(0.1, 0.6)
            c = rng.uniform(0.5, 1.0)
            q = ContigQuery("whipple", a, b, c, m, n)
            upper, lower = q.series_params()
            if (sum(lower) - sum(upper)).real <= 0.3:
                continue
            val = whipple_element(a, b, c, m, n)
            ref = sum_series_numeric(list(upper), list(lower),
                                     rel_tol=1e-12).value
            assert abs(val - ref) <= 1e-7 * max(1.0, abs(ref)), (m, n)

    def test_exceptional_case_refused(self):
        with pytest.raises(ExceptionalCase):
            whipple_element(-2, 0.3, 1.4, 0, 0)
        # integer b is fine
        whipple_element(0.7, 0.3, 1.4, 0, 0)

    def test_terminating_instance(self):
        # 1 - b + m + n a non-positive integer: finite sum, matched exactly
        a, c = 1.3, 0.9
        m, n = 1, 0
        b = 1 + m + n + 2  # 1 - b + m + n = -2
        val = whipple_element(a, b, c, m, n)
        q = ContigQuery("whipple", a, b, c, m, n)
        upper, lower = q.series_params()
        ref = sum_series_numeric(list(upper), list(lower)).value
        assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))


class TestConversions:
    def test_table_covers_the_four_maps(self):
        assert sorted(contiguous._CONVERSIONS) == sorted(_HAND_QUOTIENTS)

    @pytest.mark.parametrize("source, target", sorted(_HAND_QUOTIENTS))
    def test_row_is_a_thomae_variant(self, source, target):
        """The row's variant sends the source family to the target family
        at the row's arguments, and its quotient is the hand-derived one,
        tree for tree."""
        variant, target_args = contiguous._CONVERSIONS[source, target]
        quotient = contiguous._QUOTIENTS[source, target]
        a, b, c, m, n = (E.LinExpr.of(E.sym(x)) for x in "abcmn")
        img, _ = apply_variant(variant,
                               ParamSet(*_FAMILIES[source](a, b, c, m, n)))
        assert img == ParamSet(*_FAMILIES[target](
            *target_args(a, b, c, m, n), m, n))
        assert quotient == parse_expr(_HAND_QUOTIENTS[source, target])

    def test_x_w_round_trip(self):
        rng = random.Random(29)
        for _ in range(6):
            a = rng.uniform(0.3, 0.6)
            b = rng.uniform(0.05, 0.25)
            c = rng.uniform(0.05, 0.25)
            m, n = rng.randint(-2, 3), rng.randint(-2, 3)
            wargs, wpref = x_to_w(a, b, c, m, n)
            wa, wb, wc = [t.eval({}) for t in wargs[:3]]
            x = dixon_element(a, b, c, m, n)
            w = watson_element(wa, wb, wc, m, n)
            assert abs(x - w * E.eval_expr(wpref, {})) <= 1e-9 * max(1.0, abs(x))
            xargs, xpref = w_to_x(wa, wb, wc, m, n)
            xa, xb, xc = [t.eval({}) for t in xargs[:3]]
            back = dixon_element(xa, xb, xc, m, n)
            assert abs(w - back * E.eval_expr(xpref, {})) <= 1e-9 * max(1.0, abs(w))

    def test_whipple_two_routes_agree(self):
        rng = random.Random(37)
        for _ in range(6):
            a = rng.uniform(1.0, 1.6)
            b = rng.uniform(0.1, 0.5)
            c = rng.uniform(0.5, 1.0)
            m, n = rng.randint(-1, 2), rng.randint(-1, 2)
            wargs, wpref = p_from_w(a, b, c, m, n)
            wa, wb, wc = [t.eval({}) for t in wargs[:3]]
            p1 = watson_element(wa, wb, wc, m, n) * E.eval_expr(wpref, {})
            xargs, xpref = p_from_x(a, b, c, m, n)
            xa, xb, xc = [t.eval({}) for t in xargs[:3]]
            p2 = dixon_element(xa, xb, xc, m, n) * E.eval_expr(xpref, {})
            assert abs(p1 - p2) <= 1e-8 * max(1.0, abs(p1))

    @pytest.mark.parametrize("conversion", [x_to_w, w_to_x, p_from_w,
                                            p_from_x])
    def test_complex_argument_refused(self, conversion):
        with pytest.raises(ShapeError, match="real or exact-rational"):
            conversion(0.3 + 1j, 0.2, 0.4, 0, 0)
        args, _ = conversion(0.3 + 0j, 0.2, 0.4, 0, 0)  # a zero imaginary part
        assert all(t.is_constant for t in args)

    def test_recursion_derived_anchor_from_conversion(self):
        # the W(-1,0) closed form equals the conversion map applied to the
        # Dixon (-1,0) closed form
        db = seed_db()
        c3 = get_entry(db, "C.3")
        c5 = get_entry(db, "C.5")
        rng = random.Random(41)
        for _ in range(5):
            a = rng.uniform(0.3, 0.6)
            b = rng.uniform(0.05, 0.25)
            c = rng.uniform(0.05, 0.25)
            lhs = E.eval_expr(c5.rhs, {a_s: a, b_s: b, c_s: c})
            xargs, xpref = w_to_x(a, b, c, -1, 0)
            xa, xb, xc = [t.eval({}) for t in xargs[:3]]
            rhs = (E.eval_expr(c3.rhs, {a_s: xa, b_s: xb, c_s: xc})
                   * E.eval_expr(xpref, {}))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestDatabaseClosure:
    @pytest.mark.parametrize("eid", ["B.48", "B.49"])
    def test_watson_reference_entries(self, eid):
        entry = get_entry(seed_db(), eid)
        report = verify_entry(entry, trials=5, seed=0, rel_tol=1e-7)
        assert report.passed, report.max_rel_err


class TestLargeOffsets:
    """The lattice keeps its pending nodes on a stack, so no offset within
    ``MAX_OFFSET`` exhausts Python's recursion limit."""

    @pytest.mark.parametrize("fn, m, n, error", [
        (watson_element, 1000, 0, None), (watson_element, 0, 800, None),
        (watson_element, -4000, 0, None), (watson_element, 0, -2000, None),
        (watson_element, MAX_OFFSET, 0, None),
        (watson_element, -MAX_OFFSET, -MAX_OFFSET, None),
        (whipple_element, 0, 600, GammaOverflow),
        (dixon_element, 0, 1000, GammaOverflow),
        (whipple_element, 1000, 1, GammaOverflow)])
    def test_value_or_typed_error(self, fn, m, n, error):
        if error is None:
            assert cmath.isfinite(fn(0.3, 0.2, 0.4, m, n))
        else:
            with pytest.raises(error):
                fn(0.3, 0.2, 0.4, m, n)

    def test_far_element_cross_checks(self):
        w = watson_element(0.3, 0.2, 0.4, 1000, 0, rel_tol=1e-7)
        assert w == pytest.approx(1.00005998278, rel=1e-10)

    @pytest.mark.parametrize("fn", [watson_element, dixon_element,
                                    whipple_element])
    @pytest.mark.parametrize("m, n", [(MAX_OFFSET + 1, 0),
                                      (0, -MAX_OFFSET - 1), (10 ** 30, 5)])
    def test_beyond_the_bound(self, fn, m, n):
        with pytest.raises(ShapeError, match="beyond"):
            fn(0.3, 0.2, 0.4, m, n)


@pytest.mark.parametrize("fn", [watson_element, dixon_element,
                                whipple_element])
@pytest.mark.parametrize("offset", [1.5, float("nan"), float("inf"),
                                    -float("inf"), "2", 2 + 0j])
@pytest.mark.parametrize("axis", [3, 4])
def test_offset_not_an_integer(fn, offset, axis):
    args = [0.3, 0.2, 0.4, 1, 0]
    args[axis] = offset
    with pytest.raises(ShapeError, match="is not an integer"):
        fn(*args)


@pytest.mark.parametrize("fn", [watson_element, dixon_element,
                                whipple_element])
def test_integral_float_offset(fn):
    assert fn(0.3, 0.2, 0.4, 2.0, -1.0) == fn(0.3, 0.2, 0.4, 2, -1)


@pytest.mark.parametrize("fn", [watson_element, dixon_element,
                                whipple_element])
@pytest.mark.parametrize("rel_tol", [float("inf"), float("nan"), 0.0, -1e-7])
def test_bad_tolerance_rejected(fn, rel_tol):
    with pytest.raises(ShapeError, match="^rel_tol must be a finite"):
        fn(0.3, 0.2, 0.4, 1, 0, rel_tol=rel_tol)


def test_unknown_family_is_a_typed_error():
    with pytest.raises(Hyp321Error, match="unknown family"):
        ContigQuery("saalschutz", 0.1, 0.2, 0.3, 0, 0)


class TestNonFinite:
    """Anchors whose gamma products overflow to inf/inf give a NaN element:
    it raises, and the cross-check never agrees with a non-finite value."""

    @pytest.mark.parametrize("fn, args", [
        (watson_element, (0.3, 0.2, 100, 0, 0)),
        (dixon_element, (0.3, 100.2, 1.3, 0, 0)),
        (whipple_element, (60.7, 100.2, 0.45, 0, 0)),
    ])
    @pytest.mark.parametrize("rel_tol", [None, 1e-7])
    def test_element_raises(self, fn, args, rel_tol):
        with pytest.raises(NonFiniteValue, match="not finite"):
            fn(*args, rel_tol=rel_tol)

    @pytest.mark.parametrize("value, ref", [
        (complex("nan+nanj"), 1.0), (1.0, float("inf")),
        (float("inf"), float("inf")), (complex("nan+nanj"), float("nan"))])
    def test_cross_check_never_agrees(self, monkeypatch, value, ref):
        result = SimpleNamespace(value=complex(ref))
        monkeypatch.setattr(contiguous, "sum_series_numeric",
                            lambda *args, **kw: result)
        query = ContigQuery("watson", 0.3, 0.2, 0.4, 0, 0)
        with pytest.raises(Hyp321Error, match="disagrees"):
            contiguous._cross_check(query, complex(value), 1e-7)


def test_wide_parameters_raise_only_typed_errors():
    """Elements at a, b, c in [-3, 120] and |m|, |n| <= 8 return a value or
    raise a Hyp321Error (Γ overflow included); an anchor's power out of
    float range raises GammaOverflow; a NaN or infinite a, b or c raises
    NonFiniteParameter."""
    elements = (watson_element, dixon_element, whipple_element)
    rng = random.Random(11)
    for k in range(1200):
        a, b, c = (rng.uniform(-3, 120) for _ in range(3))
        m, n = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            elements[k % 3](a, b, c, m, n)
        except Hyp321Error:
            pass
    # EQ.15's 2^(a + b) overflows, directly or at the mapped arguments
    for fn, args in ((watson_element, (1200.9, 0.3, 0.5, 0, 1)),
                     (dixon_element, (0.3, 0.2, 0.4, 1200, 1)),
                     (whipple_element, (0.3, 0.2, 0.4, 1200, 1))):
        with pytest.raises(GammaOverflow, match="power"):
            fn(*args)
    nan, inf = float("nan"), float("inf")
    for fn, slot, bad in itertools.product(
            elements, range(3), (nan, inf, -inf, complex(0.3, nan))):
        args = [0.3, 0.2, 0.4]
        args[slot] = bad
        with pytest.raises(NonFiniteParameter, match="not finite"):
            fn(*args, 0, 0)


def test_element_sweep_mismatches():
    """900 seeded elements, the three families in turn, at a, b, c in
    [0.1, 1.5] and |m|, |n| <= 8, cross-checked at rel_tol 1e-7.  A mismatch
    (the base Hyp321Error: the element disagrees with its direct series) is
    counted; typed refusals are not.  The four-seed lattice gives 2, the
    eight-anchor lattice with a resolved unknown gave 13."""
    elements = (watson_element, dixon_element, whipple_element)
    rng = random.Random(5)
    mismatches = 0
    for k in range(900):
        a, b, c = (rng.uniform(0.1, 1.5) for _ in range(3))
        m, n = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            elements[k % 3](a, b, c, m, n, rel_tol=1e-7)
        except Hyp321Error as exc:
            mismatches += type(exc) is Hyp321Error
    assert mismatches <= 2
