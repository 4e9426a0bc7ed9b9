"""Seed database: numeric gate, special values, serialization, conjectures."""

import dataclasses
import hashlib
import random
from itertools import combinations, product

import pytest

from hyp321 import database
from hyp321 import expr as E
from hyp321.database import (converges_at, db_from_json, db_to_json,
                             dumps_db, entry_from_json, entry_rng,
                             entry_to_json, get_entry, load_db,
                             parse_constraint, sample_checks, save_db,
                             seed_db, verify_all, verify_entry, _build_entry)
from hyp321.entries import RAW_ENTRIES
from hyp321.errors import (AnchorPole, Hyp321Error, InsufficientSamples,
                           ParseError, PoleError, SchemaVersionMismatch,
                           ShapeError, SingularRecursionPath, UnboundSymbol,
                           UnknownEntry)
from hyp321.parser import parse_expr
from hyp321.series import ParamSet, excess, series_pfq, sum_series_numeric
from test_golden_matcher import closure_pool

a, b, c, n, s = E.sym("a"), E.sym("b"), E.sym("c"), E.sym("n"), E.sym("s")


class TestGate:
    def test_all_entries_pass(self):
        reports = verify_all(seed_db(), trials=5, seed=0, rel_tol=1e-7)
        failed = [k for k, r in reports.items() if not r.passed]
        assert not failed, failed

    def test_no_unexplained_flags(self):
        assert all(e.status != "flagged" for e in seed_db())

    def test_entry_counts(self):
        db = seed_db()
        b_entries = [e for e in db if e.id.startswith("B.")]
        assert len(b_entries) == 66
        assert len([e for e in db if e.status == "conjecture"]) == 2


class TestSpecialValues:
    def test_terminating_one_term(self):
        entry = get_entry(seed_db(), "B.54")
        assign = {a: 0.37, n: 1}
        full = entry.assignment_with_derived(assign | {b: 2.6})
        lhs = series_pfq(entry.lhs, full).value
        rhs = E.eval_expr(entry.rhs, full)
        assert abs(lhs - 1.0) < 1e-12
        assert abs(rhs - 1.0) < 1e-12

    def test_rational_gamma_entry_golden(self):
        # independently computed reference value (30-digit oracle)
        entry = get_entry(seed_db(), "B.37")
        assign = {a: 0.31, b: 0.47, c: 2.73}
        rhs = E.eval_expr(entry.rhs, assign)
        assert abs(rhs - 1.0326947297019134) <= 1e-7

    def test_non_finite_oracle_parameter_draws_discarded(self):
        # G(a+120)^2 overflows to inf, so every draw gives the oracle an
        # infinite lower parameter
        entry = _build_entry(dict(
            id="T.INF", upper="a, b, c", lower="d, 2", rhs="1",
            derived=[("d", "G(a+120)*G(a+120)")], prov="synthetic"))
        with pytest.raises(InsufficientSamples,
                           match=r"after 300 draws \(discarded: "
                                 r"NonFiniteParameter 300\)"):
            verify_entry(entry, trials=3)

    def test_perturbed_coefficient_fails(self):
        raw = next(r for r in RAW_ENTRIES if r["id"] == "B.37")
        bad = dict(raw)
        assert bad["rhs"].count("-6*") == 1
        bad["rhs"] = bad["rhs"].replace("-6*", "-5.9*")
        entry = _build_entry(bad)
        report = verify_entry(entry, trials=5, seed=0, rel_tol=1e-7)
        assert not report.passed


class TestSampleChecks:
    def test_outcome_per_draw(self):
        draws = iter([{a: 1.0}, "excess", {a: 0.0}, {a: 2.0}])

        def lhs(full):
            if full[a] == 0.0:
                raise PoleError("pole")
            return full[a]

        out = list(sample_checks(random.Random(0), 4, lambda rng: next(draws),
                                 lhs, lambda full: 1.0))
        assert out[1:3] == ["excess", "PoleError"]
        assert out[0].assignment == (("a", 1.0),) and out[0].rel_err == 0.0
        assert (out[3].lhs, out[3].rhs, out[3].rel_err) == (2.0, 1.0, 0.5)

    def test_tiny_values_compare_equal(self):
        [out] = sample_checks(random.Random(0), 1, lambda rng: {},
                              lambda full: 1e-15, lambda full: 3e-15)
        assert out.rel_err == 0.0

    def test_unrecoverable_error_propagates(self):
        with pytest.raises(UnboundSymbol):
            list(sample_checks(random.Random(0), 3, lambda rng: {},
                               lambda full: E.eval_expr(parse_expr("a"), full),
                               lambda full: 1.0))

    def test_watson_lattice_failures_discard_the_draw(self):
        errors = iter([AnchorPole("anchor"), SingularRecursionPath("path")])

        def rhs(full):
            raise next(errors)

        out = sample_checks(random.Random(0), 2, lambda rng: {},
                            lambda full: 1.0, rhs)
        assert list(out) == ["AnchorPole", "SingularRecursionPath"]

    def test_convergence_gate(self):
        d = E.sym("d")
        p = ParamSet.make([a, -E.LinExpr.of(n), b], [c, d])
        exc = excess(p)
        assert converges_at(p, exc, {a: 1, n: 2, b: 1, c: 0.5, d: 0.5})
        assert not converges_at(p, exc, {a: 1, n: -2, b: 1, c: 2.25, d: 2})
        assert converges_at(p, exc, {a: 1, n: -2, b: 1, c: 2.5, d: 2})


class TestArguments:
    """verify_entry checks its tolerance and trial count itself."""

    @pytest.mark.parametrize("rel_tol", [float("inf"), float("nan"), 0.0,
                                         -1e-7])
    def test_bad_tolerance_rejected(self, rel_tol):
        entry = get_entry(seed_db(), "EQ.1")
        wrong = dataclasses.replace(  # the right side off by 10%
            entry, rhs=E.Mul((E.Const(E.Q(11, 10)), entry.rhs)))
        assert not verify_entry(wrong).passed
        with pytest.raises(ShapeError, match="^rel_tol must be a finite"):
            verify_entry(wrong, rel_tol=rel_tol)
        with pytest.raises(ShapeError, match="^rel_tol must be a finite"):
            verify_entry(dataclasses.replace(wrong, rel_tol=rel_tol))

    @pytest.mark.parametrize("trials", [2, 0, -1])
    def test_fewer_than_three_trials_rejected(self, trials):
        with pytest.raises(ShapeError,
                           match=f"^verify needs at least 3 trials, got {trials}$"):
            verify_entry(get_entry(seed_db(), "EQ.1"), trials=trials)


def _n_entry(constraints):
    """An entry whose integer symbol n carries ``constraints``."""
    return _build_entry(dict(id="T.N", upper="a, -n, b",
                             lower="c, a+b-c-n+1", rhs="1",
                             ints={"n": tuple(constraints)}))


class TestConstraints:
    def test_parsed_once_and_evaluated(self):
        m = E.sym("m")
        parsed = parse_constraint("n < m - 1")
        assert parse_constraint("n < m - 1") is parsed
        assert parsed.op == "<" and parsed.lhs == E.LinExpr.of(n)
        assert parsed.holds({n: 1, m: 3})
        assert not parsed.holds({n: 2, m: 3})
        assert parse_constraint("2*n>=n+1").holds({n: 1})

    def test_malformed_text_is_a_parse_error(self):
        for text in ("n = 1", "n", "n < m < 3", "n >= (1"):
            with pytest.raises(ParseError):
                parse_constraint(text)

    def test_unbound_symbol_raises_or_is_skipped(self):
        entry = _build_entry(dict(id="T.C", upper="a, -n, b",
                                  lower="c, a+b-c-n+1", rhs="1",
                                  ints={"n": ("n>=1", "n<m")}))
        with pytest.raises(UnboundSymbol):
            parse_constraint("n<m").holds({n: 1})
        with pytest.raises(UnboundSymbol):
            entry.ints_hold({n: 1})
        assert entry.ints_hold({n: 1}, skip_unbound=True)
        assert not entry.ints_hold({n: 0}, skip_unbound=True)

    @pytest.mark.parametrize("constraints, lo", [
        (["n>=0"], 0), (["n >= 0"], 0), (["0<=n"], 0), (["n>-1"], 0),
        (["n>=1"], 1), (["n>=1", "n<m"], 1), (["n>=0", "n<m"], 0),
        (["n>0"], 1), (["2*n>=1"], 1),
    ])
    def test_int_range_reads_the_parsed_constraints(self, constraints, lo):
        assert _n_entry(constraints).int_ranges == {n: (lo, 4)}

    @pytest.mark.parametrize("constraints, want", [
        (["n>=5"], (5, 8)), (["n>5"], (6, 9)), (["9<=n", "n>=7"], (9, 12)),
        (["2*n>=11", "n<20"], (6, 9)), (["n<=3"], (0, 4)), (["n>=-2"], (0, 4)),
    ])
    def test_int_range_starts_at_the_least_allowed_value(self, constraints,
                                                         want):
        assert _n_entry(constraints).int_ranges == {n: want}

    def test_lower_bound_above_one_is_sampled(self):
        entry = _build_entry(dict(
            id="T.S5", upper="a, b, -n", lower="c, 1+a+b-c-n",
            rhs="poch(c-a, n)*poch(c-b, n)/(poch(c, n)*poch(c-a-b, n))",
            ints={"n": ("n>=5",)}))
        report = verify_entry(entry, trials=5, seed=0)
        assert report.passed and len(report.samples) == 5
        assert all(dict(s.assignment)["n"] >= 5 for s in report.samples)

    def test_verify_entry_computes_each_range_once(self, monkeypatch):
        entry = get_entry(seed_db(), "B.1")  # integer symbols m and n
        want = verify_entry(entry, trials=5, seed=3)
        calls = []
        rule = database._int_range

        def counted(constraints, s):
            calls.append(s.name)
            return rule(constraints, s)
        monkeypatch.setattr(database, "_int_range", counted)
        fresh = dataclasses.replace(entry)  # nothing cached yet
        assert verify_entry(fresh, trials=5, seed=3) == want
        verify_entry(fresh, trials=5, seed=4)
        assert calls == ["m", "n"]  # not once per draw, nor per call


def _domain_entries():
    return seed_db() + [image for _, image in closure_pool()]


def _constraints_hold(entry, values, partial=False):
    """Every parsed constraint of ``entry`` holds at ``values``; with
    ``partial``, every one whose symbols ``values`` binds."""
    parsed = [parse_constraint(t) for _, cs in entry.int_symbols for t in cs]
    return all(c.holds(values) for c in parsed if not partial or
               c.lhs.free_symbols() | c.rhs.free_symbols() <= values.keys())


class TestIntegerDomain:
    """``DbEntry``'s integer domain against the parsed constraints, on every
    seed entry and every image of the golden closure pool."""

    @staticmethod
    def _box(entry):
        syms = list(entry.int_ranges)
        return [dict(zip(syms, combo)) for combo in product(
            *(range(lo, hi + 1) for lo, hi in entry.int_ranges.values()))]

    def test_grid_is_the_box_filtered_by_the_constraints(self):
        for entry in _domain_entries():
            assert list(entry.int_ranges) == [s for s, _ in entry.int_symbols]
            want = [g for g in self._box(entry)
                    if _constraints_hold(entry, g)]
            assert list(entry.int_grid) == want, entry.id

    def test_ints_hold_agrees_with_each_constraint(self):
        for entry in _domain_entries():
            syms = list(entry.int_ranges)
            for point in self._box(entry):
                assert entry.ints_hold(point) == \
                    _constraints_hold(entry, point), (entry.id, point)
                for k in range(len(syms)):
                    for kept in combinations(syms, k):
                        part = {s: point[s] for s in kept}
                        assert entry.ints_hold(part, skip_unbound=True) == \
                            _constraints_hold(entry, part, partial=True), \
                            (entry.id, part)

    def test_verified_samples_lie_in_the_grid(self):
        for entry in _domain_entries():
            report = verify_entry(entry, trials=3, seed=0)
            for sample in report.samples:
                values = dict(sample.assignment)
                ints = {s: values[s.name] for s in entry.int_ranges}
                assert ints in entry.int_grid, (entry.id, ints)


class TestDraw:
    """``DbEntry.draw``, the one sampler of verification and of the cull's
    witness check."""

    def test_outcomes_are_legal_convergent_points(self):
        empty = _n_entry(["n>=5", "n<5"])
        for entry in seed_db() + [empty]:
            rng = entry_rng(entry.id, 0)
            derived = {s for s, _ in entry.derived}
            for _ in range(20):
                out = entry.draw(rng)
                if isinstance(out, str):
                    assert out in ("constraints", "excess"), (entry.id, out)
                    assert (out == "constraints") == (not entry.int_grid)
                    continue
                assert entry.int_grid, entry.id
                base = {s: v for s, v in out.items() if s not in derived}
                assert base.keys() == \
                    set(entry.base_continuous()) | entry.int_ranges.keys()
                assert {s: out[s] for s in entry.int_ranges} in entry.int_grid
                assert out == entry.assignment_with_derived(base), entry.id
                assert converges_at(entry.lhs, entry.excess, out), entry.id

    def test_verify_takes_the_first_usable_draws(self):
        entry = get_entry(seed_db(), "B.1")  # integer symbols m and n
        report = verify_entry(entry, trials=5, seed=3)
        rng, usable = entry_rng("B.1", 3), []
        while len(usable) < 5:
            out = entry.draw(rng)
            if not isinstance(out, str):
                usable.append(tuple(sorted((s.name, v)
                                           for s, v in out.items())))
        assert [s.assignment for s in report.samples] == usable

    def test_no_legal_integer_point_is_named(self):
        with pytest.raises(InsufficientSamples,
                           match=r"after 500 draws \(discarded: "
                                 r"constraints 500\)"):
            verify_entry(_n_entry(["n>=5", "n<5"]), trials=5)


class TestSerialization:
    def test_dumps_deterministic(self):
        db = seed_db()
        assert dumps_db(db) == dumps_db(db)

    def test_save_load_round_trip(self, tmp_path):
        db = seed_db()
        path = tmp_path / "db.json"
        save_db(db, str(path))
        back = load_db(str(path))
        assert [e.id for e in back] == [e.id for e in db]
        assert dumps_db(back) == dumps_db(db)

    @pytest.mark.parametrize("content", [b'{"schema": "hyp321/1", "entr',
                                         b'{"schema": "hyp\xff"}'])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="bad.json is not a UTF-8 JSON"):
            load_db(str(path))

    def test_entry_round_trip_exact(self):
        for e in seed_db():
            assert entry_from_json(entry_to_json(e)) == e

    def test_outputs_pinned(self):
        """The stored form and every rendered closed form and derived
        definition of the seed database, byte for byte."""
        db = seed_db()
        text = "\n".join(line for e in db for line in (
            E.expr_str(e.rhs),
            *(f"{s.name} = {E.expr_str(d)}" for s, d in e.derived)))
        assert hashlib.sha256(dumps_db(db).encode()).hexdigest() == (
            "f16f04ffef471cace470ef65e6c5ce7ec96428cf76cee2eadd99c08d1fc6c3bb")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4045d5fd1433cca0d5987d3844999e2de5dad9b015e3dc8f4dd210e9f29660c5")

    def test_malformed_linear_form_rejected(self):
        doc = entry_to_json(seed_db()[0])
        doc["upper"][0]["coeffs"] = "a"
        with pytest.raises(ParseError):
            entry_from_json(doc)

    @pytest.mark.parametrize("field, value", [
        ("int_symbols", [[3, ["n>=1"]]]), ("int_symbols", [[None, []]]),
        ("derived", [[3, ["lin", {"const": "1"}]]]),
        ("derived", [[["d"], ["lin", {"const": "1"}]]]),
    ])
    def test_non_string_symbol_name_rejected(self, field, value):
        doc = entry_to_json(seed_db()[0])
        doc[field] = value
        with pytest.raises(ParseError, match="malformed database entry"):
            entry_from_json(doc)

    @pytest.mark.parametrize("rel_tol", ["inf", "nan", "0", "-1e-7"])
    def test_bad_tolerance_rejected(self, rel_tol):
        doc = entry_to_json(get_entry(seed_db(), "EQ.1"))
        doc["rel_tol"] = rel_tol
        with pytest.raises(ParseError, match="^EQ.1: rel_tol must be a finite"):
            entry_from_json(doc)

    def test_duplicate_id_rejected(self):
        doc = db_to_json(seed_db())
        doc["entries"].append(entry_to_json(get_entry(seed_db(), "B.1")))
        with pytest.raises(ParseError, match="duplicate entry ids: B.1$"):
            db_from_json(doc)

    @pytest.mark.parametrize("int_symbols, message", [
        ([["m", ["m>=1"]]], r"declares the integer symbols \['m'\], but "
                            r"uses \['m', 'n'\]"),
        ([["m", ["m>=1"]], ["n", []], ["n", []]], "declares"),
        ([["a", []], ["m", ["m>=1"]], ["n", ["n>=1"]]], "declares"),
        ([["m", ["m>=1"]], ["n", ["n=>1"]]], "unexpected character '='"),
        ([["m", ["m>=1"]], ["n", ["n<a"]]], "'n<a' names a symbol"),
        ([["m", ["m>=1"]], ["n", [1]]], "B.1: "),
    ])
    def test_inconsistent_integer_symbols_rejected(self, int_symbols,
                                                   message):
        doc = entry_to_json(get_entry(seed_db(), "B.1"))
        doc["int_symbols"] = int_symbols
        with pytest.raises(ParseError, match=message):
            entry_from_json(doc)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("1/0")

    def test_excess_mismatch_rejected(self):
        doc = entry_to_json(seed_db()[0])
        doc["excess"] = {"coeffs": {}, "const": "7"}
        with pytest.raises(ParseError):
            entry_from_json(doc)

    def test_schema_version_checked(self):
        doc = db_to_json(seed_db()[:1])
        doc["schema"] = "hyp321/999"
        with pytest.raises(SchemaVersionMismatch):
            db_from_json(doc)

    def test_unknown_entry_is_typed(self):
        with pytest.raises(UnknownEntry) as info:
            get_entry(seed_db(), "B.999")
        assert isinstance(info.value, KeyError)
        assert isinstance(info.value, Hyp321Error)


class TestConjectures:
    def test_first_conjecture_small_offsets(self):
        entry = get_entry(seed_db(), "CONJ.23")
        rng = random.Random(1)
        for nval in range(5):
            for _ in range(5):
                aval = rng.uniform(0.1, 0.9)
                assign = {a: aval, n: nval}
                lhs = series_pfq(entry.lhs, assign).value
                rhs = E.eval_expr(entry.rhs, assign)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs)), nval

    def test_second_conjecture_including_equal_parameters(self):
        entry = get_entry(seed_db(), "CONJ.24")
        rng = random.Random(2)
        draws = [(rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6),
                  rng.uniform(3.5, 4.5)) for _ in range(9)]
        draws.append((2.5, 3.2, 3.2))  # b = c: left side degenerates to 2F1
        for aval, bval, cval in draws:
            assign = entry.assignment_with_derived({a: aval, b: bval, c: cval})
            lhs = series_pfq(entry.lhs, assign).value
            rhs = E.eval_expr(entry.rhs, assign)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_first_conjecture_reduces_to_known_entry(self):
        # at offset 1 the conjecture coincides with B.56 under a -> 2a,
        # b -> 1 - a
        conj = get_entry(seed_db(), "CONJ.23")
        known = get_entry(seed_db(), "B.56")
        rng = random.Random(3)
        for _ in range(8):
            aval = rng.uniform(0.1, 0.9)
            lhs = E.eval_expr(conj.rhs, {a: aval, n: 1})
            assign = known.assignment_with_derived(
                {a: 2 * aval, b: 1 - aval, n: 1})
            rhs = E.eval_expr(known.rhs, assign)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


class TestMintonReduction:
    """The 4F3 with a unit upper/lower offset splits into two 3F2 terms."""

    @pytest.mark.parametrize("nval", [2, 3])
    def test_relation(self, nval):
        rng = random.Random(100 + nval)
        for _ in range(5):
            av = rng.uniform(0.3, 0.9)
            bv = rng.uniform(0.3, 0.9)
            sv = rng.uniform(1.3, 1.9)
            lhs = sum_series_numeric(
                [1, 1 + av / (sv - 1), bv * sv - av, -nval],
                [av / (sv - 1), bv + 1, 1 - av - nval * sv]).value
            t1 = sum_series_numeric(
                [1, bv * sv - av, -nval],
                [bv + 1, 1 - av - nval * sv]).value
            coef = ((sv - 1) * (sv * bv - av) * nval
                    / (av * (bv + 1) * (1 - av - nval * sv)))
            t2 = sum_series_numeric(
                [2, 1 + bv * sv - av, 1 - nval],
                [bv + 2, 2 - av - nval * sv]).value
            rhs = t1 - coef * t2
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_reduced_form_is_gated(self):
        entry = get_entry(seed_db(), "EQ.14")
        report = verify_entry(entry, trials=5, seed=0, rel_tol=1e-7)
        assert report.passed
