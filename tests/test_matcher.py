"""Unification, identification, equivalence witnesses, and the cull pipeline."""

import dataclasses
import random
import zlib
from fractions import Fraction
from itertools import combinations, cycle, product
from math import lcm

import numpy as np
import pytest

from hyp321 import database
from hyp321 import expr as E
from hyp321 import matcher
from hyp321.database import SampleRecord, get_entry, seed_db, _build_entry
from hyp321.errors import Hyp321Error, ShapeError
from hyp321.matcher import (Substitution, _compile, _eliminate, _hit_entry,
                            _images_of, _invertible_pair, _orbit_key,
                            _spot_check, _witness_samples, _witness_sound,
                            cull, equivalent, identify, unify)
from hyp321.parser import parse_expr
from hyp321.series import ParamSet, excess
from hyp321.thomae import (CLASS_REPRESENTATIVES, LOWER_PERMS, UPPER_PERMS,
                           ThomaeVariant, all_variants, apply_variant,
                           five_forms)
from test_database import k0_query
from test_golden_matcher import QUERIES, closure_pool
from test_thomae import decoded

a, b, c, n = E.sym("a"), E.sym("b"), E.sym("c"), E.sym("n")
L = E.sym("L")
Q = Fraction
#: every STRIDE-th seed entry supplies the queries of the differential test
STRIDE = 31


def _const_paramset(upper, lower):
    return ParamSet.make([E.LinExpr.of(Q(x)) for x in upper],
                         [E.LinExpr.of(Q(x)) for x in lower])


def _renamed(p):
    """``p`` with every symbol renamed ``q*<name>``; the common prefix keeps
    the terms sorted by name."""
    def rename(lin):
        return E.LinExpr(tuple((E.Symbol("q*" + s.name, s.kind), c)
                               for s, c in lin.terms), lin.const)

    return ParamSet(tuple(map(rename, p.upper)), tuple(map(rename, p.lower)))


def _image_entry(entry, variant, new_id):
    """A new entry whose lhs is the image of ``entry``'s lhs under
    ``variant``, a ThomaeVariant or the number of a base relation."""
    if isinstance(variant, int):
        variant = ThomaeVariant(variant)
    img, pref = apply_variant(variant, entry.lhs)
    rhs = E.Mul((E.Recip(pref), entry.rhs))
    return dataclasses.replace(entry, id=new_id, lhs=img, rhs=rhs,
                               excess=excess(img))


def _planted_pool():
    """Ten seed entries, two of them transform families, and two images."""
    db = seed_db()
    ids = ["B.17", "B.37", "B.43", "B.44", "B.45", "B.46", "B.47",
           "B.50", "B.51", "B.52"]
    entries = [get_entry(db, i) for i in ids]
    planted = [_image_entry(entries[1], 4, "Z.IMG.0"),
               _image_entry(entries[2], 6, "Z.IMG.1")]
    return entries + planted


def _reference_solve(rows, rhs, nsym):
    """Gauss-Jordan, per system, on each row augmented with its right-hand
    side, a Fraction vector over the query's symbols and a constant.  Each
    row is scaled to integers and rows are combined by cross-multiplication,
    so the loop runs on ints; the solution's vectors are Fractions again,
    or None."""
    m = []
    for row in (t + r for t, r in zip(rows, rhs)):
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    for col in range(nsym):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        for i in range(len(m)):
            f = m[i][col]
            if i != col and f:
                m[i] = [p * x - f * y for x, y in zip(m[i], m[col])]
    if any(x for row in m[nsym:] for x in row):
        return None
    return [[Q(x, row[col]) for x in row[nsym:]]
            for col, row in enumerate(m[:nsym])]


def _reference_integer_ok(lin):
    if lin.is_constant:
        k = lin.as_integer()
        return k is not None and k >= 0
    return lin.is_integer_valued()


def _reference_unify(template, query):
    """``unify`` as it was before templates were compiled: one elimination
    per slot alignment, with the same later checks and output order."""
    tsyms = sorted(template.free_symbols(), key=lambda s: s.name)
    tparams = template.upper + template.lower
    rows = [[p.coeff(s) for s in tsyms] for p in tparams]
    pool = {"upper": list(query.upper), "lower": list(query.lower)}
    for side, tside in (("upper", template.upper), ("lower", template.lower)):
        for t in tside:
            if t.is_constant:
                if t not in pool[side]:
                    return []
                pool[side].remove(t)
    qsyms = sorted(query.free_symbols(), key=lambda s: s.name)
    vecs = {side: [[q.coeff(s) for s in qsyms] + [q.const] for q in qside]
            for side, qside in (("upper", query.upper),
                                ("lower", query.lower))}
    out, seen = [], set()
    for up in UPPER_PERMS:
        for lp in LOWER_PERMS:
            qs = [vecs["upper"][i] for i in up] + \
                [vecs["lower"][i] for i in lp]
            rhs = [q[:-1] + [q[-1] - p.const] for p, q in zip(tparams, qs)]
            sol = _reference_solve(rows, rhs, len(tsyms))
            if sol is None:
                continue
            mapping = {s: E.LinExpr.make(dict(zip(qsyms, v)), v[-1])
                       for s, v in zip(tsyms, sol)}
            if not all(_reference_integer_ok(lin)
                       for s, lin in mapping.items() if s.kind == "integer"):
                continue
            inst = ParamSet(tuple(u.subs(mapping) for u in template.upper),
                            tuple(l.subs(mapping) for l in template.lower))
            if inst != query:
                continue
            key = tuple((s.name, lin) for s, lin in mapping.items())
            if key not in seen:
                seen.add(key)
                out.append(tuple(mapping.items()))
    return out


def _assert_matches_reference(template, query):
    got = [sub.mapping for sub in unify(template, query)]
    assert got == _reference_unify(template, query), (template, query)
    return got


class TestCompiledUnify:
    """``unify`` against the per-alignment elimination it replaced."""

    def test_seed_templates_against_renamed_images(self):
        db = seed_db()
        hits = pairs = 0
        for query_entry in db[::STRIDE]:
            q = _renamed(query_entry.lhs)
            for _, image in _images_of(q.upper, q.lower):
                for entry in db:
                    pairs += 1
                    got = _assert_matches_reference(entry.lhs, decoded(image))
                    assert [sub.mapping for sub in unify(entry.lhs, image)] \
                        == got, (entry.id, query_entry.id)
                    hits += bool(got)
        assert pairs > 2000 and hits > 50

    def test_template_and_query_share_names(self):
        # the query is B.37's lhs with a and b swapped
        lhs = get_entry(seed_db(), "B.37").lhs
        swap = {a: E.LinExpr.of(b), b: E.LinExpr.of(a)}
        query = ParamSet(tuple(u.subs(swap) for u in lhs.upper),
                         tuple(l.subs(swap) for l in lhs.lower))
        subs = unify(lhs, query)
        assert sorted(map(str, subs)) == ["{a -> a, b -> b, c -> c}",
                                          "{a -> b, b -> a, c -> c}"]
        for sub in subs:
            smap = sub.as_dict()
            assert ParamSet(tuple(u.subs(smap) for u in lhs.upper),
                            tuple(l.subs(smap) for l in lhs.lower)) == query

    def test_rank_deficient_template(self):
        # a and b only enter as a+b: rank 2 for three symbols
        A, C = E.LinExpr.of(a), E.LinExpr.of(c)
        template = ParamSet.make([A + b, C, 1], [A + b + 1, C + 2])
        X, Y = E.LinExpr.of(E.sym("x")), E.LinExpr.of(E.sym("y"))
        query = ParamSet.make([X, Y, 1], [X + 1, Y + 2])
        assert _assert_matches_reference(template, query) == []

    def test_all_constant_template(self):
        template = _const_paramset([1, 1, 1], [2, 2])
        assert _assert_matches_reference(template, template) == [()]
        assert _assert_matches_reference(
            template, _const_paramset([1, 1, 2], [2, 2])) == []

    def test_slot_orders_of_one_multiset(self):
        # equal as multisets, so one ParamSet key, but compiled separately
        A, B, C = E.LinExpr.of(a), E.LinExpr.of(b), E.LinExpr.of(c)
        first = ParamSet.make([A, B, C], [A + 1, B + C])
        second = ParamSet.make([C, A, B], [B + C, A + 1])
        assert first == second
        X, Y, Z = (E.LinExpr.of(E.sym(x)) for x in "xyz")
        query = ParamSet.make([X, Y, Z], [Y + Z, X + 1])
        for template in (first, second, first):
            assert _assert_matches_reference(template, query)

    def test_form_vanishing_at_a_fixed_point(self):
        # x - (crc32("x") + 1) is zero at the point where an earlier integer
        # prefilter evaluated every query slot
        X = E.LinExpr.of(E.sym("x"))
        shifted = X - (zlib.crc32(b"x") + 1)
        A, B = E.LinExpr.of(a), E.LinExpr.of(b)
        template = ParamSet.make([A, B, 0], [A + 1, B + 1])
        query = ParamSet.make([shifted, X * 2, 0], [shifted + 1, X * 2 + 1])
        got = _assert_matches_reference(template, query)
        assert (b, X * 2) in got[0]

    def test_query_with_large_common_denominator(self):
        X, Y = E.LinExpr.of(E.sym("x")), E.LinExpr.of(E.sym("y"))
        A, B, C = E.LinExpr.of(a), E.LinExpr.of(b), E.LinExpr.of(c)
        template = ParamSet.make([A, B, C], [A + B + 1, C + 2])
        u, v, w = X * Q(1, 7), Y * Q(3, 11) + Q(5, 13), X * Q(5, 13) - Y
        query = ParamSet.make([w, u, v], [w + 2, u + v + 1])
        got = _assert_matches_reference(template, query)
        assert got and (a, u) in got[0]
        off = ParamSet.make([w, u, v], [w + 2, u + v + 1 + Q(1, 1001)])
        assert _assert_matches_reference(template, off) == []

    def test_template_with_scaled_consistency_rows(self):
        # rank 1 in five slots: four consistency rows with rational entries
        A = E.LinExpr.of(a)
        template = ParamSet.make([A * Q(1, 2), A * Q(2, 3) + Q(1, 5),
                                  A * Q(3, 7)], [A * Q(5, 4) - 1, A + Q(1, 9)])
        X = E.LinExpr.of(E.sym("x"))
        query = ParamSet.make([X * Q(1, 3) + Q(1, 5), X * Q(3, 14),
                               X * Q(1, 4)], [X * Q(1, 2) + Q(1, 9),
                                              X * Q(5, 8) - 1])
        got = _assert_matches_reference(template, query)
        assert got == [((a, X * Q(1, 2)),)]
        moved = ParamSet.make(list(query.upper), [X * Q(1, 2) + Q(1, 9),
                                                  X * Q(5, 8)])
        assert _assert_matches_reference(template, moved) == []

    def test_integer_symbol_binds_to_non_negative_integers(self):
        A, B, N = E.LinExpr.of(a), E.LinExpr.of(b), E.LinExpr.of(n)
        template = ParamSet.make([A, B, N], [A + 1, B + N + 1])
        X, Y = E.LinExpr.of(E.sym("x")), E.LinExpr.of(E.sym("y"))
        for k, ok in ((2, True), (0, True), (-2, False), (Q(1, 2), False)):
            query = ParamSet.make([X, Y, k], [X + 1, Y + k + 1])
            assert bool(_assert_matches_reference(template, query)) == ok, k

    def test_401_digit_constant_slot(self):
        big = 10 ** 400 + 7
        A, B = E.LinExpr.of(a), E.LinExpr.of(b)
        template = ParamSet.make([A, B, big], [A + B, A + 1])
        X, Y = E.LinExpr.of(E.sym("x")), E.LinExpr.of(E.sym("y"))
        query = ParamSet.make([Y, big, X + Q(1, 3)],
                              [X + Q(4, 3), X + Y + Q(1, 3)])
        got = _assert_matches_reference(template, query)
        assert got == [((a, X + Q(1, 3)), (b, Y))]
        near = ParamSet.make([Y, big + 1, X], [X + 1, X + Y])
        assert _assert_matches_reference(template, near) == []


def _invertible(sub):
    """Reference for ``_invertible_pair``: the witness substitution itself is
    a square, full-rank affine map."""
    qsyms, rows, _ = E.int_rows([lin for _, lin in sub.mapping])
    return len(qsyms) == len(rows) and \
        _eliminate(rows, len(qsyms)) is not None


def test_invertible_witness_needs_full_rank():
    X, Y = E.LinExpr.of(E.sym("x")), E.LinExpr.of(E.sym("y"))
    assert _invertible(Substitution(((a, X + Y), (b, X - Y + 1))))
    assert not _invertible(Substitution(((a, X + Y), (b, X * 2 + Y * 2))))
    assert not _invertible(Substitution(((a, X + Y), (b, E.LinExpr.of(1)))))


def test_invertible_pair_agrees_with_each_witness():
    """``equivalent`` decides invertibility once per pair of entries; over
    every fifth seed entry and closure image, each substitution that
    ``unify`` finds for a pair is invertible exactly when the pair is."""
    pool = seed_db()[::5] + [img for _, img in closure_pool()][::5]
    verdicts = []
    for e1, e2 in product(pool, repeat=2):
        pair = _invertible_pair(e1, e2)
        for _, image in _images_of(e1.lhs.upper, e1.lhs.lower):
            for sub in unify(e2.lhs, image):
                assert _invertible(sub) == pair, (e1.id, e2.id, str(sub))
                verdicts.append(pair)
    assert len(verdicts) > 1000 and verdicts.count(False) > 300


def test_eliminate_gives_left_inverse_and_null_rows():
    rng = random.Random(4)
    for trial in range(300):
        k = rng.randint(1, 4)
        m = np.array([[rng.randint(-9, 9) for _ in range(k)]
                      for _ in range(5)], dtype=object)
        if trial % 4 == 0:  # rank below k
            m[:, k - 1] = m[:, :k - 1].sum(axis=1) if k > 1 else 0
        got = _eliminate([list(r) + [int(i == j) for j in range(5)]
                          for i, r in enumerate(m)], k)
        full = np.linalg.matrix_rank(m.astype(float)) == k
        assert (got is not None) == full, m
        if got is not None:
            d, rows = got
            inverse = np.array([r[k:] for r in rows[:k]], dtype=object)
            null = np.array([r[k:] for r in rows[k:]], dtype=object)
            assert (inverse.dot(m) == d * np.eye(k, dtype=int)).all()
            assert not null.dot(m).any()


class TestUnify:
    def test_symbolic_self_match_includes_identity(self):
        p = get_entry(seed_db(), "B.37").lhs
        subs = unify(p, p)
        identity = {s: E.LinExpr.of(s) for s in p.free_symbols()}
        assert any(sub.as_dict() == identity for sub in subs)

    def test_numeric_instantiation(self):
        template = get_entry(seed_db(), "B.17").lhs
        query = _const_paramset([Q(11, 10), Q(2, 5), Q(8, 5)],
                                [Q(2), Q(11, 5)])
        subs = unify(template, query)
        expected = {a: E.LinExpr.of(Q(11, 10)),
                    b: E.LinExpr.of(Q(2, 5)),
                    c: E.LinExpr.of(Q(2))}
        assert any(sub.as_dict() == expected for sub in subs)

    def test_reinstantiation_property(self):
        rng = random.Random(5)
        db = seed_db()
        found = 0
        for _ in range(20):
            entry = rng.choice(db)
            template = entry.lhs
            mapping = {}
            for s in sorted(template.free_symbols(), key=lambda x: x.name):
                if s.kind == "integer":
                    mapping[s] = E.LinExpr.of(rng.randint(1, 4))
                else:
                    mapping[s] = E.LinExpr.of(
                        Q(rng.randint(1, 60), rng.randint(7, 13)))
            query = ParamSet.make([p.subs(mapping) for p in template.upper],
                                  [p.subs(mapping) for p in template.lower])
            subs = unify(template, query)
            # templates with more symbols than independent parameter slots
            # are legitimately underdetermined and yield no exact solution
            found += bool(subs)
            for sub in subs:
                m = sub.as_dict()
                back = ParamSet.make([p.subs(m) for p in template.upper],
                                     [p.subs(m) for p in template.lower])
                assert back == query, entry.id
        assert found >= 15

    def test_wrong_shape_rejected(self):
        p = get_entry(seed_db(), "B.37").lhs
        with pytest.raises(ValueError):
            unify(p, ParamSet.make([a, b], [c]))
        with pytest.raises(ValueError):
            unify(ParamSet.make([a, b], [c]), E.int_rows(p.upper + p.lower))

    def test_encoded_query_at_any_common_scale(self):
        """An encoded query gives the substitutions of its ParamSet, with
        its rows and denominator scaled together by any positive factor."""
        db = seed_db()
        hits = 0
        for query_entry in db[::STRIDE]:
            for _, image in _images_of(query_entry.lhs.upper,
                                       query_entry.lhs.lower):
                syms, rows, den = image
                for entry in db[::2]:
                    want = [s.mapping for s in unify(entry.lhs,
                                                     decoded(image))]
                    for k in (1, 6):
                        scaled = (syms, [[k * x for x in row] for row in rows],
                                  k * den)
                        got = unify(entry.lhs, scaled)
                        assert [s.mapping for s in got] == want, entry.id
                    hits += bool(want)
        assert hits > 20


class TestIdentify:
    @pytest.mark.parametrize("rel_tol", [float("inf"), float("nan"), 0.0, -1e-7])
    def test_bad_tolerance_rejected(self, rel_tol):
        query = _const_paramset([Q(11, 10), Q(2, 5), Q(8, 5)],
                                [Q(2), Q(11, 5)])
        with pytest.raises(ShapeError, match="^rel_tol must be a finite"):
            identify(seed_db(), query, rel_tol=rel_tol)

    def test_wrong_shape_raises_typed_error(self):
        # a 2F1 parameter set: typed, and still a ValueError
        with pytest.raises(Hyp321Error, match="3F2 parameter sets only"):
            identify(seed_db(), ParamSet.make([1, 2], [3]))
        with pytest.raises(ValueError):
            identify(seed_db(), ParamSet.make([1, 2], [3]))

    def test_numeric_instance_found_with_identity_variant(self):
        db = seed_db()
        query = _const_paramset([Q(11, 10), Q(2, 5), Q(8, 5)],
                                [Q(2), Q(11, 5)])
        hits = identify(db, query)
        b17 = [h for h in hits if h.entry_id == "B.17"]
        assert b17
        assert any(h.variant.base == 10 for h in b17)

    def test_transformed_instance_round_trip(self):
        from hyp321.series import series_pfq
        db = seed_db()
        base = _const_paramset([Q(11, 10), Q(2, 5), Q(8, 5)],
                               [Q(2), Q(11, 5)])
        img, _ = apply_variant(ThomaeVariant(1), base)
        hits = identify(db, img)
        b17 = [h for h in hits if h.entry_id == "B.17"]
        assert b17
        lhs = series_pfq(img, {}, rel_tol=1e-11).value
        for h in b17:
            rhs = E.eval_expr(h.instantiated_rhs, {})
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs))

    def test_unidentified_query(self):
        db = seed_db()
        query = _const_paramset(["3/10", "2/5", "1/2"], ["7/10", "4/5"])
        assert identify(db, query) == []

    def test_regression_integer_offset_alias(self):
        # the B.3 family with its inner offset renamed to another integer
        db = seed_db()
        query = ParamSet.make(
            [a, -E.LinExpr.of(n), b],
            [c, E.LinExpr.of(a) - c + b - n + L])
        hits = identify(db, query)
        assert any(h.entry_id == "B.3" for h in hits)

    def test_regression_specialized_lower_parameter(self):
        # the B.3 family at offset 2 with c pinned to 1 + a - b
        db = seed_db()
        query = ParamSet.make(
            [a, -E.LinExpr.of(n), b],
            [E.LinExpr.of(a) - b + 1, E.LinExpr.of(b) * 2 - n + 1])
        hits = identify(db, query)
        assert any(h.entry_id == "B.3" for h in hits)

    def test_conjectures_opt_in(self):
        db = seed_db()
        conj = get_entry(db, "CONJ.24")
        query = conj.lhs
        assert not any(h.entry_id == "CONJ.24" for h in identify(db, query))
        hits = identify(db, query, include_conjectures=True)
        assert any(h.entry_id == "CONJ.24" for h in hits)

    def test_integer_symbol_outside_the_reserved_names(self):
        """Constraints carried onto a query integer symbol name it by name:
        renaming B.1's n to an integer k0 keeps every hit."""
        db = seed_db()
        want = [(h.entry_id, h.variant.name)
                for h in identify(db, get_entry(db, "B.1").lhs)]
        assert want
        assert [(h.entry_id, h.variant.name)
                for h in identify(db, k0_query())] == want

    def test_self_recall(self):
        """Every fifth verified seed entry with a full-rank template (all but
        EQ.12, EQ.12B and EQ.14) is found from its own lhs."""
        db = seed_db()
        entries = [e for e in db if e.status == "verified"
                   and _compile(e.lhs.upper, e.lhs.lower) is not None]
        assert len(entries) == 86
        for e in entries[::5]:
            assert e.id in {h.entry_id for h in identify(db, e.lhs)}, e.id


class TestSpotCheck:
    @staticmethod
    def _conj24_hits():
        """CONJ.24's hits with the spot check passing every candidate."""
        db = seed_db()
        query = get_entry(db, "CONJ.24").lhs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcher, "_spot_check", lambda *args: True)
            return db, query, identify(db, query, include_conjectures=True)

    def test_derived_binding_never_circular(self):
        """Where the substituted definition of e1 mentions the query's own
        e1, the hit binds a fresh e1_ instead, so it can be evaluated; the
        spot check keeps only the two CONJ.24 hits under T10·(abc|fe) that
        bind e1 itself."""
        db, query, hits = self._conj24_hits()
        assert len(hits) == 24
        renamed = [h for h in hits if h.derived[0][0] == E.sym("e1_")]
        assert len(renamed) == 8
        assert all(h.entry_id == "CONJ.24" for h in renamed)
        for h in hits:
            assert all(s not in E.free_symbols(d) for s, d in h.derived)
            assert _hit_entry(query, h, get_entry(db, h.entry_id)) is not None
        kept = identify(db, query, include_conjectures=True)
        assert len(kept) == 2
        for h in kept:
            assert (h.entry_id, h.variant.name) == ("CONJ.24", "T10·(abc|fe)")
            assert h.derived[0][0] == E.sym("e1")
            assert h in hits

    def test_refuted_at_a_repaired_draw(self, monkeypatch):
        """CONJ.24's B.41 candidates are compared where the excess was moved
        into the convergence region, and rejected."""
        db, query, hits = self._conj24_hits()
        b41 = [h for h in hits if h.entry_id == "B.41"]
        assert len(b41) == 12
        entry = get_entry(db, "B.41")
        repaired = []
        shift = database._newton_shift

        def recorded(*args):
            fixed = shift(*args)
            if fixed is not None:
                repaired.append(fixed)
            return fixed
        monkeypatch.setattr(database, "_newton_shift", recorded)
        for h in b41:
            hit = _hit_entry(query, h, entry)
            repaired.clear()
            first = next(o for o in hit.checks(0, 30, 1e-10)
                         if isinstance(o, SampleRecord))
            point = hit.assignment_with_derived(repaired[-1])
            assert first.assignment == tuple(sorted(
                (s.name, v) for s, v in point.items()))
            assert first.rel_err >= 1e-6
            assert not _spot_check(query, h, entry, 0, 1e-6)

    @pytest.mark.parametrize("upper, lower, hits", [
        ([Q(1, 3)] * 3, [Q(4, 3)] * 2, 20),
        ([Q(1)] * 3, [Q(2)] * 2, 13),
    ])
    def test_one_draw_when_no_symbol_is_drawn(self, monkeypatch, upper,
                                              lower, hits):
        """A numeric query's draws are all the same point: one is made."""
        calls = []
        real = database.series_pfq

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(database, "series_pfq", counted)
        found = identify(seed_db(), _const_paramset(upper, lower))
        assert len(found) == hits
        assert len(calls) == hits

    def test_mismatch_rejected(self):
        db = seed_db()
        query = _const_paramset([Q(11, 10), Q(2, 5), Q(8, 5)],
                                [Q(2), Q(11, 5)])
        hit = identify(db, query)[0]
        entry = get_entry(db, hit.entry_id)
        assert _spot_check(query, hit, entry, 0, 1e-6)
        wrong = dataclasses.replace(hit, instantiated_rhs=E.Mul(
            (E.Const(Q(21, 20)), hit.instantiated_rhs)))
        assert not _spot_check(query, wrong, entry, 0, 1e-6)


class TestEquivalent:
    def test_untestable_witness_is_degenerate(self):
        # every draw leaves the image at Re(excess) <= 0.3
        e = get_entry(seed_db(), "EQ.1")
        v = next(v for v in CLASS_REPRESENTATIVES if v.name == "T1·(abc|fe)")
        assert list(_witness_samples(e, v, 24)) == ["excess"] * 24
        assert not _witness_sound(e, v)

    def test_no_legal_integer_draw_is_degenerate(self):
        e = _build_entry(dict(id="T.G", upper="a, -n, b",
                              lower="c, a+b-c-n+1", rhs="1",
                              ints={"n": ("n>=5", "n<5")}))
        v = CLASS_REPRESENTATIVES[0]
        assert list(_witness_samples(e, v, 24)) == ["constraints"] * 24
        assert not _witness_sound(e, v)

    def test_witness_independent_of_earlier_calls(self):
        # two images with one parameter multiset in different slot orders:
        # the witness for the second must not depend on the first's images
        db = seed_db()
        target = get_entry(db, "B.22")
        first, second = (
            next(_image_entry(get_entry(db, pid), v, f"{pid}|{v.name}")
                 for v in CLASS_REPRESENTATIVES if v.name == name)
            for pid, name in (("B.10", "T1·(abc|fe)"),
                              ("B.22", "T3·(bac|ef)")))
        assert first.lhs == second.lhs
        assert first.lhs.upper != second.lhs.upper
        _images_of.cache_clear()
        fresh = equivalent(second, target)
        _images_of.cache_clear()
        equivalent(first, target)
        warm = equivalent(second, target)
        assert warm == fresh
        variant, sub = warm
        image, _ = apply_variant(variant, second.lhs)
        smap = sub.as_dict()
        assert ParamSet(tuple(u.subs(smap) for u in target.lhs.upper),
                        tuple(l.subs(smap) for l in target.lhs.lower)) == image

    def test_self_witness(self):
        e = get_entry(seed_db(), "B.37")
        witness = equivalent(e, e)
        assert witness is not None
        variant, sub = witness
        assert variant.base == 10

    def test_constructed_image_witness(self):
        e = get_entry(seed_db(), "B.37")
        image = _image_entry(e, 3, "T.IMG")
        assert equivalent(e, image) is not None
        assert equivalent(image, e) is not None

    def test_unrelated_entries(self):
        db = seed_db()
        assert equivalent(get_entry(db, "B.1"), get_entry(db, "B.37")) is None

    def test_derived_definition_with_unbound_symbol(self):
        # d = s*b names s, which neither lhs binds: compared by name, the
        # two definitions would be equal and the identity a witness
        first, second = (_build_entry(dict(
            id=i, upper="a, d, 1/3", lower="b + 2, c", rhs="G(a)*G(d)",
            derived=[("d", "s*b")])) for i in ("T.D1", "T.D2"))
        assert equivalent(first, second) is None
        assert equivalent(second, first) is None

    def test_derived_definition_capturing_a_symbol(self):
        # substituting n -> L into the template's Sum over L would capture
        # the query's L: the definitions differ, and nothing raises
        template = _build_entry(dict(
            id="T.S1", upper="a, d, -n", lower="b + 2, c", rhs="G(a)",
            derived=[("d", "Sum(L, 0, 2, n*b)")]))
        query = _build_entry(dict(
            id="T.S2", upper="a, d, -L", lower="b + 2, c", rhs="G(a)",
            derived=[("d", "Sum(k, 0, 2, L*b)")]))
        assert equivalent(query, template) is None
        assert equivalent(template, query) is None
        assert equivalent(query, query) is not None


class TestCull:
    def test_image_pair_collapses(self):
        e = get_entry(seed_db(), "B.37")
        image = _image_entry(e, 3, "T.IMG")
        kept = cull([e, image])
        assert len(kept) == 1

    def test_nonpositive_integer_excess_dropped(self):
        entry = _build_entry(dict(
            id="T.EXC", upper="a, b, c", lower="a+1, b+c-2",
            rhs="1", prov="synthetic"))
        assert entry.excess == E.LinExpr.of(-1)
        assert cull([entry]) == []

    def test_terminating_negative_excess_kept(self):
        entry = _build_entry(dict(
            id="T.TERM", upper="a, b, -n", lower="a+1, b-n-2",
            rhs="1", prov="synthetic"))
        assert cull([entry]) == [entry]

    def test_unit_offset_template_dropped(self):
        entry = _build_entry(dict(
            id="T.KM", upper="a, b+1, c", lower="b, a+c+2",
            rhs="1", prov="synthetic"))
        assert cull([entry]) == []

    def test_flagged_entries_never_dropped(self):
        entry = _build_entry(dict(
            id="T.EXC", upper="a, b, c", lower="a+1, b+c-2",
            rhs="1", prov="synthetic", status="flagged"))
        assert cull([entry]) == [entry]
        e = get_entry(seed_db(), "B.37")
        image = dataclasses.replace(_image_entry(e, 3, "T.IMG"),
                                    status="flagged")
        kept = cull([e, image])
        assert image in kept

    def test_repeated_entry_kept_once(self):
        """An entry given twice survives once, at its first place; flagged
        entries are kept as they come, repeats included."""
        db = seed_db()
        e, other = get_entry(db, "B.37"), get_entry(db, "B.17")
        flagged = dataclasses.replace(e, id="T.FLAG", status="flagged")
        assert cull([e, e]) == [e]
        kept = cull([other, e, flagged, e, other, flagged])
        assert [id(x) for x in kept] == \
            [id(other), id(e), id(flagged), id(flagged)]

    def test_subset_pipeline_properties(self):
        pool = _planted_pool()
        kept = cull(pool)
        kept_ids = {e.id for e in kept}
        # planted images removed, idempotent, pairwise inequivalent
        assert not any(i.startswith("Z.IMG") for i in kept_ids)
        assert cull(kept) == kept
        for e1 in kept:
            for e2 in kept:
                if e1.id != e2.id:
                    assert equivalent(e1, e2) is None, (e1.id, e2.id)
        # the transform family collapses to single representatives
        assert "B.43" in kept_ids and "B.50" in kept_ids
        assert not {"B.44", "B.45", "B.46", "B.51", "B.52"} & kept_ids


def _reference_sup_if_bounded(entry, lin):
    """Least upper bound of an integer-valued affine form, if one exists:
    the bound that cull's two sign tests read before they were one."""
    hi = lin.const
    for s, c in lin.terms:
        if s.kind != "integer" or c > 0:
            return None
        hi += c * entry.int_ranges.get(s, (0, 0))[0]
    return hi


def _reference_excess_nonpositive_integer(entry):
    exc = entry.excess
    if not exc.is_integer_valued():
        return False
    sup = _reference_sup_if_bounded(entry, exc)
    return sup is not None and sup <= 0


def _reference_terminating_template(entry):
    for u in entry.lhs.upper:
        if u.is_integer_valued():
            sup = _reference_sup_if_bounded(entry, u)
            if sup is not None and sup <= 0:
                return True
    return False


def _reference_nonpositive_integer(entry, lin):
    return lin.is_integer_valued() and \
        (sup := _reference_sup_if_bounded(entry, lin)) is not None and sup <= 0


#: entries whose excess or an upper slot is a non-positive integer only at
#: their declared lower bound, or not at all
_SIGN_TEST_ENTRIES = (
    dict(id="T.EXC", upper="a, b, c", lower="a+1, b+c-2", rhs="1"),
    dict(id="T.TERM", upper="a, b, -n", lower="a+1, b-n-2", rhs="1"),
    dict(id="T.LB2", upper="a, b, 2-n", lower="c, a+b-c+n-3", rhs="1",
         ints={"n": ("n>=2",)}),
    dict(id="T.LB1", upper="a, b, 2-n", lower="c, a+b-c+n-3", rhs="1",
         ints={"n": ("n>=1",)}),
    dict(id="T.MIX", upper="a, b, m-n", lower="c, a+b-c+m-n+2", rhs="1",
         ints={"n": ("n>=0",), "m": ("m>=0",)}),
    dict(id="T.HALF", upper="a, b, -n/2", lower="c, a+b-c-n/2-1", rhs="1"),
)


def test_nonpositive_integer_matches_the_two_sign_tests():
    """On every seed entry, every golden closure image and a few synthetic
    entries: the predicate agrees with the reference bound on the excess and
    on all five slots, and cull's drop decision with the two tests it
    replaced."""
    entries = list(seed_db()) + [img for _, img in closure_pool()] + [
        _build_entry(dict(raw, prov="synthetic"))
        for raw in _SIGN_TEST_ENTRIES]
    verdicts = []
    for e in entries:
        for form in (e.excess,) + e.lhs.upper + e.lhs.lower:
            verdicts.append(matcher._nonpositive_integer(e, form))
            assert verdicts[-1] == _reference_nonpositive_integer(e, form), \
                (e.id, str(form))
        assert (matcher._nonpositive_integer(e, e.excess)
                == _reference_excess_nonpositive_integer(e)), e.id
        assert any(matcher._nonpositive_integer(e, u) for u in e.lhs.upper) \
            == _reference_terminating_template(e), e.id
    assert 0 < sum(verdicts) < len(verdicts)


#: the five forms as Fraction rows over the slots (a, b, c, f, e)
_H = Q(1, 2)
_FRACTION_FORMS = ((-_H, _H, _H, 0, 0), (_H, -_H, _H, 0, 0),
                   (_H, _H, -_H, 0, 0), (-_H, -_H, -_H, 0, 1),
                   (-_H, -_H, -_H, 1, 0))


def _reference_five_forms(p):
    return [E.combine(row, p.upper + p.lower) for row in _FRACTION_FORMS]


def _reference_orbit_key(entry):
    """``_orbit_key`` as it was computed with Fraction forms."""
    y = _reference_five_forms(entry.lhs)
    pairs = list(combinations(y, 2))

    def constants(forms):
        return [x.const for x in forms if x.is_constant]

    syms = entry.lhs.free_symbols()
    return (sum(s.kind == "integer" for s in syms), len(syms),
            tuple(sorted(constants(y))),
            tuple(sorted(abs(d) for d in constants(u - v for u, v in pairs))),
            tuple(sorted(constants(u + v for u, v in pairs))))


def test_orbit_key_matches_reference():
    entries = list(seed_db()) + [img for _, img in closure_pool()]
    for entry in entries:
        assert five_forms(entry.lhs) == _reference_five_forms(entry.lhs)
        assert _orbit_key(entry) == _reference_orbit_key(entry), entry.id


class TestOrbitKey:
    def test_invariant_under_every_variant(self):
        for entry in seed_db():
            key = _orbit_key(entry)
            for v in all_variants():
                img, _ = apply_variant(v, entry.lhs)
                image = dataclasses.replace(entry, lhs=img)
                assert _orbit_key(image) == key, (entry.id, v.name)

    def test_witnesses_link_equal_keys(self):
        pool = _planted_pool()
        linked = set()
        for e1 in pool:
            for e2 in pool:
                if e1 is not e2 and equivalent(e1, e2) is not None:
                    assert _orbit_key(e1) == _orbit_key(e2), (e1.id, e2.id)
                    linked.add(frozenset((e1.id, e2.id)))
        assert {frozenset(("B.37", "Z.IMG.0")),
                frozenset(("B.43", "Z.IMG.1"))} <= linked


# ---------------------------------------------------------------------------
# substitute against the two-pass substitution it replaced
# ---------------------------------------------------------------------------

class _Capture(Exception):
    pass


def _rebuilt(e, sub, lin=lambda form: form):
    step = {E.EXPR: sub, E.EXPRS: lambda xs: tuple(map(sub, xs)), E.LIN: lin}
    return type(e)(*(step[kind](v) if kind in step else v
                     for kind, v in E._fields(e)))


def _refusing_substitute(e, mapping):
    """Substitution that raises _Capture where a target mentions the index
    of a sum whose body holds the mapped symbol."""
    index, inner = E._index(e), mapping
    if index is not None:
        inner = {s: t for s, t in mapping.items() if s != index}
        body = frozenset().union(*map(E.free_symbols, E._subtrees(e)))
        if any(s in body and t.coeff(index) for s, t in inner.items()):
            raise _Capture(index)
    return _rebuilt(e, lambda x: _refusing_substitute(x, inner),
                    lambda form: form.subs(mapping))


def _renamed_apart(e, taken):
    """``e`` with each sum index in ``taken`` renamed to its name with
    ``_`` appended until the name is neither taken nor free in the body."""
    index = E._index(e)
    if index not in taken:
        return _rebuilt(e, lambda x: _renamed_apart(x, taken))
    body = frozenset().union(*map(E.free_symbols, E._subtrees(e)))
    fresh = E.Symbol(index.name + "_", "integer")
    while fresh in taken or fresh in body:
        fresh = E.Symbol(fresh.name + "_", "integer")
    to_fresh = {index: E.LinExpr.of(fresh)}
    e = _rebuilt(e, lambda x: _refusing_substitute(_renamed_apart(x, taken),
                                                   to_fresh))
    return type(e)(*(fresh if kind == E.INDEX else v
                     for kind, v in E._fields(e)))


def _reference_substitute(e, mapping):
    """Capture-free substitution in two passes: every sum index that a
    target mentions renamed apart, then a substitution that refuses to
    capture."""
    taken = frozenset().union(*(t.free_symbols() for t in mapping.values()))
    return _refusing_substitute(_renamed_apart(e, taken), mapping)


def _indices(e):
    """The sum indices bound anywhere in ``e``."""
    here = {E._index(e)} - {None}
    return here.union(*map(_indices, E._subtrees(e)))


def _outcome(e, assignment):
    try:
        return E.eval_expr(e, assignment)
    except Hyp321Error as exc:
        return type(exc)


class TestCaptureAvoidingSubstitute:
    def test_identify_substitutions_give_identical_trees(self):
        """The substitutions that ``identify`` makes for the README queries:
        each applied to its own entry's closed form and derived definitions,
        as ``identify`` applies it, and to one further seed tree, so that
        every seed tree meets one."""
        db = seed_db()
        pairs, subs = [], set()
        for entry in db:
            trees = (entry.rhs, *(d for _, d in entry.derived))
            for query in QUERIES.values():
                for _, image in _images_of(query.upper, query.lower):
                    for sub in unify(entry.lhs, image):
                        pairs += [(tree, sub) for tree in trees]
                        subs.add(sub)
        trees = [t for e in db for t in (e.rhs, *(d for _, d in e.derived))]
        assert len(trees) > len(subs) > 50
        pairs += zip(trees, cycle(sorted(subs, key=str)))
        for tree, sub in pairs:
            smap = sub.as_dict()
            assert E.substitute(tree, smap) == _reference_substitute(tree, smap)

    def test_captures_keep_their_values(self):
        """Each free symbol of a seed tree with a sum, or of a nested sum,
        mapped to a target that mentions a bound index: the trees may name
        their indices apart differently, but agree at every draw."""
        cases = [(t, i) for e in seed_db()
                 for t in (e.rhs, *(d for _, d in e.derived))
                 for i in sorted(_indices(t), key=lambda s: s.name)]
        cases += [(parse_expr(text), E.sym(i)) for text, i in (
            ("Sum(k, 0, n, Sum(L, 0, k, G(a + k + L)/G(b + L)))", "L"),
            ("Sum(k, 0, n, Sum(L, 0, k, G(a + k + L)/G(b + L)))", "k"),
            ("Sum(k, 0, n, Sum(k, 0, 2, a + k)*G(b + k))", "k"),
            ("Sum(k, 1, n, Sum(L, 0, m, (a + L)*(k + b)))", "k"))]
        rng = random.Random(20)
        values = 0
        for tree, index in cases:
            free = sorted(E.free_symbols(tree), key=lambda s: s.name)
            mapping = {s: E.LinExpr.of(s) + (j + 1) * E.LinExpr.of(index)
                       for j, s in enumerate(free)}
            with pytest.raises(_Capture):
                _refusing_substitute(tree, mapping)
            new, ref = E.substitute(tree, mapping), \
                _reference_substitute(tree, mapping)
            assert E.free_symbols(new) == E.free_symbols(ref)
            for _ in range(3):
                draw = {s: rng.randint(0, 3) if s.kind == "integer"
                        else rng.uniform(0.1, 0.9) for s in E.free_symbols(new)}
                got, want = _outcome(new, draw), _outcome(ref, draw)
                if isinstance(want, type):
                    assert got is want
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
                    values += 1
        assert len(cases) > 50 and values > 100
