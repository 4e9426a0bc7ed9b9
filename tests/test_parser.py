"""Parameter/expression grammar."""

import math
from fractions import Fraction as Q

import pytest

from hyp321 import expr as E
from hyp321.errors import ParseError
from hyp321.parser import (parse_expr, parse_linexpr, parse_param_list)

a, b, c, n = E.sym("a"), E.sym("b"), E.sym("c"), E.sym("n")


class TestLinGrammar:
    def test_affine_folding(self):
        l = parse_linexpr("(2*a - b)/3 + 1/2 - n")
        assert l.coeff(a) == Q(2, 3)
        assert l.coeff(b) == Q(-1, 3)
        assert l.coeff(n) == -1
        assert l.const == Q(1, 2)

    def test_decimals_exact(self):
        assert parse_linexpr("0.25").const == Q(1, 4)
        assert parse_linexpr("1.5 + a").const == Q(3, 2)

    def test_param_list(self):
        ps = parse_param_list("a, b, 1 + a - b")
        assert len(ps) == 3
        assert ps[2] == E.LinExpr.of(a) - E.LinExpr.of(b) + 1

    def test_param_list_nested_commas(self):
        ps = parse_param_list("a, b")
        assert len(ps) == 2

    def test_nonlinear_rejected(self):
        with pytest.raises(ParseError):
            parse_linexpr("a*b")
        with pytest.raises(ParseError):
            parse_linexpr("Gamma(a)")

    def test_str_round_trip(self):
        l = parse_linexpr("2*a - b/2 + 3/4")
        assert parse_linexpr(str(l)) == l


class TestExprGrammar:
    def test_gamma_and_pi(self):
        e = parse_expr("Gamma(1/2)")
        assert E.eval_expr(e, {}) == pytest.approx(math.sqrt(math.pi))
        e = parse_expr("pi^2/6")
        assert E.eval_expr(e, {}) == pytest.approx(math.pi ** 2 / 6)

    def test_psi(self):
        e = parse_expr("psi(1, 1)")
        assert E.eval_expr(e, {}).real == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_poch(self):
        e = parse_expr("poch(3, 2)")
        assert E.eval_expr(e, {}) == 12.0

    def test_sum(self):
        e = parse_expr("Sum(k, 0, n, k)")
        assert E.eval_expr(e, {n: 4}) == 10.0

    def test_watson_ref(self):
        e = parse_expr("W(a, b, c, 1, -1)")
        assert isinstance(e, E.WatsonRef)
        assert e.m == E.LinExpr.of(1)
        assert e.n == E.LinExpr.of(-1)

    def test_sqrt_and_power(self):
        e = parse_expr("sqrt(pi) * 2^(-a)")
        v = E.eval_expr(e, {a: 2.0})
        assert v == pytest.approx(math.sqrt(math.pi) / 4)

    def test_precedence(self):
        assert E.eval_expr(parse_expr("2 + 3 * 4"), {}) == 14.0
        assert E.eval_expr(parse_expr("-2^2 + 1"), {}) == -3.0

    def test_division_chain(self):
        e = parse_expr("Gamma(a)/Gamma(b)/Gamma(c)")
        v = E.eval_expr(e, {a: 3.0, b: 2.0, c: 4.0})
        assert v == pytest.approx(2.0 / (1.0 * 6.0))

    def test_serialization_round_trip(self):
        e = parse_expr("Gamma(a + 1/2) * sin(pi*b) / poch(c, n) + Sum(k, 1, n, 1/k)")
        assert E.expr_from_json(E.expr_to_json(e)) == e


class TestParseErrors:
    def test_division_by_zero_literal(self):
        with pytest.raises(ParseError):
            parse_expr("1/0")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("a + b )")

    def test_unexpected_char(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("a + $")
        assert exc.value.position is not None

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_expr("Gamma(a")

    def test_inexact_decimal(self):
        with pytest.raises(ParseError):
            parse_expr("0.3333333333333333")

    def test_bad_arity(self):
        with pytest.raises(ParseError):
            parse_expr("Gamma(a, b)")
        with pytest.raises(ParseError):
            parse_expr("poch(a)")

    def test_sum_index_must_be_symbol(self):
        with pytest.raises(ParseError):
            parse_expr("Sum(2*k, 0, 1, 1)")

    def test_psi_order_literal(self):
        with pytest.raises(ParseError):
            parse_expr("psi(a, 1)")

    def test_bad_character_position_is_the_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("a +  $")
        assert exc.value.position == 5


class TestParamListErrors:
    """A list is parsed as one text, so positions count from its start."""

    @pytest.mark.parametrize("text, position", [
        ("a, b, $", 6), ("a, (b, c", 5), ("a, b)", 4), ("a,, b", 2),
        ("a, 0.3333333", 3)])
    def test_position_counts_from_list_start(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_param_list(text)
        assert exc.value.position == position

    def test_non_affine_item_is_named(self):
        with pytest.raises(ParseError,
                           match=r"^'poch\(b, 2\)' is not an affine"):
            parse_param_list("a,  poch(b, 2) , 1")

    def test_commas_inside_parentheses(self):
        ps = parse_param_list("(a + b), (1 - (c)), n")
        assert ps == (E.LinExpr.of(a) + E.LinExpr.of(b),
                      1 - E.LinExpr.of(c), E.LinExpr.of(n))


class TestNestingBound:
    """Input nested deeper than ``MAX_DEPTH`` is a ParseError with a
    position, not a RecursionError."""

    @pytest.mark.parametrize("text", [
        "(" * 400 + "a" + ")" * 400, "-" * 3000 + "a", "^".join(["2"] * 2000),
        "G(" * 400 + "a" + ")" * 400])
    def test_deep_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than") as exc:
            parse_expr(text)
        assert exc.value.position is not None

    def test_deep_parameter_list_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_param_list("(" * 400 + "1" + ")" * 400 + ", 1, 1")

    def test_deep_json_is_a_parse_error(self):
        j = ["lin", {"a": "1", "const": "0"}]
        for _ in range(600):
            j = ["Neg", j]
        with pytest.raises(ParseError, match="nested deeper than"):
            E.expr_from_json(j)

    @pytest.mark.parametrize("pattern", ["a - b/({})^2", "G(a - b/{}^2)^2",
                                         "-G(-{})", "cos(a/{})"])
    def test_deepest_parsed_tree_reads_back_from_json(self, pattern):
        """The parser's bound holds for the tree it builds: the deepest
        tree it accepts is one ``expr_from_json`` accepts, and it walks."""
        text, tree = "a", None
        while True:
            try:
                tree = parse_expr(text)
            except ParseError:
                break
            text = pattern.format(text)
        assert E.expr_from_json(E.expr_to_json(tree)) == tree
        assert E.expr_str(tree)
        E.eval_expr(tree, {a: 0.5, b: 0.25, n: 2})


class TestSharedCalls:
    """A memo shares call subtrees between parses and changes no result."""

    def test_every_raw_entry_parses_alike_without_the_build_memo(self):
        from hyp321.database import seed_db
        from hyp321.entries import RAW_ENTRIES
        built = {e.id: e for e in seed_db()}
        for raw in RAW_ENTRIES:
            entry = built[raw["id"]]
            assert parse_param_list(raw["upper"]) == entry.lhs.upper
            assert parse_param_list(raw["lower"]) == entry.lhs.lower
            assert parse_expr(raw["rhs"]) == entry.rhs
            assert tuple((E.sym(name), parse_expr(d))
                         for name, d in raw.get("derived", ())) == entry.derived

    def test_repeated_call_is_the_same_node(self):
        memo = {}
        first = parse_expr("G(a + 1)*n", memo)
        second = parse_expr("b + G(a + 1)", memo)
        assert first.args[0] is second.args[1]
        assert second == parse_expr("b + G(a + 1)")

    @pytest.mark.parametrize("primed", [False, True])
    def test_unclosed_repeat_keeps_its_error(self, primed):
        memo = {}
        if primed:
            parse_expr("G(a+1)", memo)
        with pytest.raises(ParseError) as exc:
            parse_expr("G(a+1) + G(a+1", memo)
        assert str(exc.value) == "expected ')', found '' (at position 14)"
        assert exc.value.position == 14

    def test_memo_hit_too_deep_here_is_reparsed_to_fail(self):
        memo = {}
        inner = "G(" * 12 + "a" + ")" * 12
        parse_expr(inner, memo)
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_expr("(" * 10 + inner + ")" * 10, memo)

    def test_distinct_inputs_leave_no_cache_beyond_its_bound(self):
        import hyp321
        import importlib
        import pkgutil
        from hyp321 import parser
        modules = [importlib.import_module(f"hyp321.{m.name}")
                   for m in pkgutil.iter_modules(hyp321.__path__)]

        def sizes():
            return {name: len(v) for name, v in vars(parser).items()
                    if isinstance(v, (dict, list, set))}
        before = sizes()
        for i in range(10_000):
            parse_expr(f"G(a{i} + {i}/7) * x{i} + G(a{i} + {i}/7)")
            parse_param_list(f"a{i}, {i + 1}/3, b - {i}")
        assert sizes() == before
        for module in modules:
            for name, f in vars(module).items():
                info = f.cache_info() if hasattr(f, "cache_info") else None
                if info and info.maxsize is not None:  # else a finite domain
                    assert info.currsize <= info.maxsize, name


def test_seed_build_tokenizes_each_text_once_and_parses_each_call_once(
        monkeypatch):
    """One seed_db() build: one tokenization per source string, one call
    parse per distinct call text, counted by wrapping the parser."""
    import re
    from collections import Counter
    from hyp321 import database, parser
    from hyp321.entries import RAW_ENTRIES
    texts = [raw[k] for raw in RAW_ENTRIES for k in ("upper", "lower", "rhs")]
    texts += [d for raw in RAW_ENTRIES for _, d in raw.get("derived", ())]

    def call_texts(text):  # each name( ... ) of a call, by paren counting
        for m in re.finditer(r"(?<![A-Za-z_0-9])(%s)\(" % "|".join(
                parser._CALLS), text):
            depth, j = 0, m.end() - 1
            while True:
                depth += {"(": 1, ")": -1}.get(text[j], 0)
                if depth == 0:
                    yield text[m.start():j + 1]
                    break
                j += 1
    calls = {t for text in texts for t in call_texts(text)}

    tokenized, parsed = Counter(), Counter()
    tokenize, parse_call = parser._tokenize, parser._Parser.parse_call

    def counting_tokenize(text):
        tokenized[text] += 1
        return tokenize(text)

    def counting_parse_call(self, name):
        start = self.poss[self.i - 1]
        parsed[self.text[start:self.close[self.poss[self.i]] + 1]] += 1
        return parse_call(self, name)
    monkeypatch.setattr(parser, "_tokenize", counting_tokenize)
    monkeypatch.setattr(parser._Parser, "parse_call", counting_parse_call)
    monkeypatch.setattr(database, "_SEED_CACHE", None)
    database.seed_db()
    assert tokenized == Counter(texts)
    assert set(parsed) == calls
    assert set(parsed.values()) == {1}
    # the seed table's figures: 292 source strings, 497 distinct calls
    assert (sum(tokenized.values()), sum(parsed.values())) == (292, 497)
