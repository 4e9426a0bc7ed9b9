"""Two-term relations: numeric identity, excess transport, group structure."""

import random
from fractions import Fraction as Q

import pytest

from hyp321 import expr as E
from hyp321.database import seed_db
from hyp321.errors import ShapeError
from hyp321.series import ParamSet, excess, sum_series_numeric
from hyp321.thomae import (BASE_COUNT, CLASS_REPRESENTATIVES,
                           IDENTITY_VARIANT, ThomaeVariant, all_variants,
                           apply_variant, base_relation, distinct_images,
                           five_forms, gamma_args, numeric_images)

a, b, c = E.sym("a"), E.sym("b"), E.sym("c")
f, e = E.sym("f"), E.sym("e")

GENERIC = ParamSet.make([a, b, c], [f, e])

A, B, C, EE = (E.LinExpr.of(s) for s in (a, b, c, e))

#: special parameter sets; on the first four, and on the constant one, some
#: of the ten generic image classes coincide
SPECIAL = {
    "a=b=c": ParamSet.make([a, a, a], [f, e]),
    "a=b,e=f": ParamSet.make([a, a, c], [e, e]),
    "watson,a=b": ParamSet.make([a, a, c], [A + Q(1, 2), C * 2]),
    "dixon,b=c": ParamSet.make([a, b, b], [A - B + 1, A - B + 1]),
    "watson": ParamSet.make([a, b, c], [(A + B + 1) / 2, C * 2]),
    "dixon": ParamSet.make([a, b, c], [A - B + 1, A - C + 1]),
    "whipple": ParamSet.make([a, 1 - A, c], [e, C * 2 - EE + 1]),
    "saalschutz": ParamSet.make([a, b, -E.LinExpr.of(E.sym("n"))],
                                [c, A + B - C + 1 - E.sym("n")]),
    "constant": ParamSet.make([1, 1, 1], [2, 2]),
}


def _gamma_quotient(num, den):
    factors = [E.Gamma(E.Lin(l)) for l in num] + \
        [E.Recip(E.Gamma(E.Lin(l))) for l in den]
    return E.Mul(tuple(factors)) if factors else E.ONE


def _reference_base_relation(base, a, b, c, f, e):
    """The ten relations as written out by hand, one branch each."""
    s = e + f - a - b - c
    if base == 1:
        return (ParamSet((s, f - c, e - c), (e - b + f - c, e + f - a - c)),
                _gamma_quotient([s, f, e], [c, e - b + f - c, e + f - a - c]))
    if base == 2:
        return (ParamSet((s, f - b, e - b), (e - b + f - c, e - b + f - a)),
                _gamma_quotient([s, f, e], [b, e - b + f - c, e - b + f - a]))
    if base == 3:
        return (ParamSet((f - c, f - b, a), (e - b + f - c, f)),
                _gamma_quotient([s, e], [e - a, e - b + f - c]))
    if base == 4:
        return (ParamSet((e - c, e - b, a), (e - b + f - c, e)),
                _gamma_quotient([s, f], [f - a, e - b + f - c]))
    if base == 5:
        return (ParamSet((s, f - a, e - a), (e + f - a - c, e - b + f - a)),
                _gamma_quotient([s, f, e], [a, e + f - a - c, e - b + f - a]))
    if base == 6:
        return (ParamSet((f - c, f - a, b), (e + f - a - c, f)),
                _gamma_quotient([s, e], [e - b, e + f - a - c]))
    if base == 7:
        return (ParamSet((e - c, e - a, b), (e + f - a - c, e)),
                _gamma_quotient([s, f], [f - b, e + f - a - c]))
    if base == 8:
        return (ParamSet((f - b, f - a, c), (e - b + f - a, f)),
                _gamma_quotient([s, e], [e - c, e - b + f - a]))
    if base == 9:
        return (ParamSet((e - b, e - a, c), (e - b + f - a, e)),
                _gamma_quotient([s, f], [f - c, e - b + f - a]))
    if base == 10:
        return ParamSet((a, b, c), (f, e)), E.ONE
    raise ValueError(f"base relation index {base} outside 1..10")


def _reference_apply(v, p):
    a, b, c = (p.upper[i] for i in v.upper_perm)
    f, e = (p.lower[i] for i in v.lower_perm)
    return _reference_base_relation(v.base, a, b, c, f, e)


def _draw(rng):
    """Assignment keeping both sides of every base relation convergent."""
    return {
        a: rng.uniform(0.1, 0.4),
        b: rng.uniform(0.1, 0.4),
        c: rng.uniform(0.1, 0.4),
        f: rng.uniform(0.9, 1.5),
        e: rng.uniform(0.9, 1.5),
    }


def _scan(p, variants):
    """Reference for ``distinct_images``: apply every variant in turn and
    keep the first to reach each image, as a multiset."""
    seen = set()
    out = []
    for v in variants:
        img, pref = apply_variant(v, p)
        if img.key() not in seen:
            seen.add(img.key())
            out.append((v.name, img.upper, img.lower, pref))
    return out


def decoded(image):
    """An image ``(syms, rows, den)`` of ``distinct_images`` as a ParamSet,
    each slot decoded by ``row_lin``."""
    syms, rows, den = image
    slots = [E.row_lin(syms, row, den) for row in rows]
    return ParamSet(tuple(slots[:3]), tuple(slots[3:]))


def _images(p, variants=None):
    """``distinct_images`` of ``p``, decoded, in the shape of ``_scan``."""
    out = []
    for v, img in distinct_images(p, variants):
        q = decoded(img)
        out.append((v.name, q.upper, q.lower, apply_variant(v, p)[1]))
    return out


class TestNumericIdentity:
    @pytest.mark.parametrize("base", range(1, 10))
    def test_base_relation_two_sided(self, base):
        rng = random.Random(1000 + base)
        for _ in range(20):
            assign = _draw(rng)
            img, pref = apply_variant(ThomaeVariant(base), GENERIC)
            up, lo = GENERIC.eval(assign)
            lhs = sum_series_numeric(up, lo, rel_tol=1e-11).value
            up2, lo2 = img.eval(assign)
            rhs = (E.eval_expr(pref, assign)
                   * sum_series_numeric(up2, lo2, rel_tol=1e-11).value)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_permuted_variants(self):
        rng = random.Random(4242)
        v = ThomaeVariant(3, (1, 2, 0), (1, 0))
        for _ in range(5):
            assign = _draw(rng)
            img, pref = apply_variant(v, GENERIC)
            up, lo = GENERIC.eval(assign)
            lhs = sum_series_numeric(up, lo, rel_tol=1e-11).value
            up2, lo2 = img.eval(assign)
            rhs = (E.eval_expr(pref, assign)
                   * sum_series_numeric(up2, lo2, rel_tol=1e-11).value)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


class TestStructure:
    def test_identity_variant(self):
        img, pref = apply_variant(ThomaeVariant(10), GENERIC)
        assert img == GENERIC
        assert pref == E.ONE

    def test_variant_count_and_order(self):
        vs = all_variants()
        assert len(vs) == 120
        assert vs[0] == ThomaeVariant(1, (0, 1, 2), (0, 1))
        assert len(set((v.base, v.upper_perm, v.lower_perm) for v in vs)) == 120

    def test_variant_names(self):
        assert ThomaeVariant(3, (0, 2, 1), (0, 1)).name == "T3·(acb|fe)"
        assert ThomaeVariant(10).name == "T10·(abc|fe)"
        assert ThomaeVariant(7, (2, 1, 0), (1, 0)).name == "T7·(cba|ef)"

    def test_excess_transport(self):
        """Base k maps the excess to a fixed slot expression; T1 sends it to c."""
        img, _ = apply_variant(ThomaeVariant(1), GENERIC)
        assert excess(img) == E.LinExpr.of(c)
        expected = {
            1: E.LinExpr.of(c),
            2: E.LinExpr.of(b),
            3: E.LinExpr.of(e) - E.LinExpr.of(a),
            4: E.LinExpr.of(f) - E.LinExpr.of(a),
            5: E.LinExpr.of(a),
            6: E.LinExpr.of(e) - E.LinExpr.of(b),
            7: E.LinExpr.of(f) - E.LinExpr.of(b),
            8: E.LinExpr.of(e) - E.LinExpr.of(c),
            9: E.LinExpr.of(f) - E.LinExpr.of(c),
            10: excess(GENERIC),
        }
        for base, want in expected.items():
            got, _ = apply_variant(ThomaeVariant(base), GENERIC)
            assert excess(got) == want, f"T{base}"

    def test_ten_distinct_generic_images(self):
        """120 variants collapse to exactly 10 parameter multisets generically."""
        imgs = distinct_images(GENERIC)
        assert len(imgs) == 10
        # input permutations alone reach every class: representatives come
        # from bases 1 (the three s-bearing images), 3 (the six
        # difference-type images) and 10 (the identity class)
        assert sorted(set(v.base for v, _ in imgs)) == [1, 3, 10]
        # and every base image appears among the ten classes
        keys = {decoded(img).key() for _, img in imgs}
        for base in range(1, 11):
            img, _ = apply_variant(ThomaeVariant(base), GENERIC)
            assert img.key() in keys

    def test_group_closure_images(self):
        """Applying any variant to any image lands back in the ten classes."""
        class_keys = {decoded(img).key() for _, img in distinct_images(GENERIC)}
        first, _ = apply_variant(ThomaeVariant(5), GENERIC)
        for v in all_variants()[::7]:
            img, _ = apply_variant(v, first)
            assert img.key() in class_keys

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            apply_variant(ThomaeVariant(1), ParamSet.make([a, b], [f]))
        with pytest.raises(ShapeError, match="outside 1..10"):
            base_relation(11, *(E.LinExpr.of(s) for s in (a, b, c, f, e)))
        with pytest.raises(ShapeError, match="outside 1..10"):
            gamma_args(ThomaeVariant(0), GENERIC)


class TestDistinctImages:
    def test_representatives_head_the_generic_classes(self):
        assert [name for name, *_ in _scan(GENERIC, all_variants())] == \
            [v.name for v in CLASS_REPRESENTATIVES]

    @pytest.mark.parametrize("p", [pytest.param(GENERIC, id="generic")] + [
        pytest.param(SPECIAL[k], id=k) for k in sorted(SPECIAL)])
    def test_matches_full_scan_on_special_sets(self, p):
        """The encoded images lose nothing: decoded slot by slot, they are
        the ``apply_variant`` images of the full scan, in its order."""
        assert _images(p) == _scan(p, all_variants())
        with_identity = (IDENTITY_VARIANT,) + CLASS_REPRESENTATIVES
        assert _images(p, with_identity) == \
            _scan(p, [IDENTITY_VARIANT] + all_variants())

    def test_matches_full_scan_on_seed_entries(self):
        for entry in seed_db():
            assert _images(entry.lhs) == _scan(entry.lhs, all_variants()), \
                entry.id


class TestAgainstHandWrittenRelations:
    """The construction from the five forms reproduces the ten branches."""

    @pytest.mark.parametrize("p", [pytest.param(GENERIC, id="generic")] + [
        pytest.param(SPECIAL[k], id=k) for k in sorted(SPECIAL)] + [
        pytest.param(e.lhs, id=e.id) for e in seed_db()[::7]])
    def test_all_variants_match_reference(self, p):
        for v in all_variants():
            img, pref = apply_variant(v, p)
            ref_img, ref_pref = _reference_apply(v, p)
            assert img.upper == ref_img.upper, v.name
            assert img.lower == ref_img.lower, v.name
            assert pref == ref_pref, v.name
            assert E.expr_str(pref) == E.expr_str(ref_pref), v.name

    def test_variants_permute_the_five_forms(self):
        forms = sorted(five_forms(GENERIC), key=str)
        for v in all_variants():
            img, _ = apply_variant(v, GENERIC)
            assert sorted(five_forms(img), key=str) == forms, v.name


class TestNumericImages:
    def test_matches_base_relation(self):
        """The numeric view evaluates the symbolic image and prefactor."""
        rng = random.Random(77)
        for _ in range(10):
            assign = _draw(rng)
            slots = [complex(x) for x in sum(GENERIC.eval(assign), [])]
            images = numeric_images(slots)
            assert [k for k, *_ in images] == list(range(1, BASE_COUNT))
            for base, img, num, den in images:
                ref_img, pref = base_relation(
                    base, *(GENERIC.upper + GENERIC.lower))
                up, lo = ref_img.eval(assign)
                assert img == pytest.approx(up + lo, rel=1e-14, abs=1e-14)
                value = 1.0
                for x in num:
                    value *= E.cgamma(x)
                for x in den:
                    value /= E.cgamma(x)
                ref = E.eval_expr(pref, assign)
                assert abs(value - ref) <= 1e-12 * abs(ref)
