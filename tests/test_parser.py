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
