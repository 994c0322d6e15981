"""Parser, symbolic differentiation, evaluation and the polynomial bridge."""

import math
from fractions import Fraction

import pytest

from transurf.expr import (
    MAX_DEPTH,
    Const,
    DomainError,
    NotPolynomialError,
    ParseError,
    ast_diff,
    ast_eval,
    expr_to_poly,
    mentions,
    parse_expr,
    poly_to_expr,
    to_text,
)
from transurf.gallery import gallery
from transurf.poly import Poly2

F = Fraction


def central_difference(e, var, u, v, h=1e-5):
    if var == "u":
        return (ast_eval(e, u + h, v) - ast_eval(e, u - h, v)) / (2 * h)
    return (ast_eval(e, u, v + h) - ast_eval(e, u, v - h)) / (2 * h)


class TestParser:
    def test_polynomial_round_trip(self):
        poly = expr_to_poly(parse_expr("u^2 + 2*u + 3"))
        assert poly == Poly2({(2, 0): 1, (1, 0): 2, (0, 0): 3})

    def test_nested_functions(self):
        e = parse_expr("log(abs(cos(u)))")
        assert to_text(e) == "log(abs(cos(u)))"
        assert ast_eval(e, 0.4, 0.0) == pytest.approx(math.log(abs(math.cos(0.4))))

    def test_rational_exponent(self):
        e = parse_expr("u^(4/3)")
        assert e.exponent == F(4, 3)
        assert ast_eval(e, 8.0, 0.0) == pytest.approx(8 ** (4 / 3))

    def test_negative_exponents(self):
        assert ast_eval(parse_expr("u^-2"), 2.0, 0.0) == pytest.approx(0.25)
        assert ast_eval(parse_expr("u^(-1/2)"), 4.0, 0.0) == pytest.approx(0.5)

    def test_decimal_and_quotient_literals(self):
        assert expr_to_poly(parse_expr("1.5*u")) == Poly2({(1, 0): F(3, 2)})
        assert expr_to_poly(parse_expr("3/2*u")) == Poly2({(1, 0): F(3, 2)})

    def test_division_binds_after_power(self):
        assert expr_to_poly(parse_expr("u^3/3")) == Poly2({(3, 0): F(1, 3)})

    def test_leading_minus(self):
        assert expr_to_poly(parse_expr("-u^2 + v")) == Poly2({(2, 0): -1, (0, 1): 1})

    def test_unicode_minus(self):
        assert expr_to_poly(parse_expr("u − v")) == Poly2({(1, 0): 1, (0, 1): -1})

    @pytest.mark.parametrize(
        "bad",
        ["u + w", "3*", "((u)", "sin u", "u^^2", "", "2..5", "u^(1/0)"],
    )
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as info:
            parse_expr(bad)
        assert "position" in str(info.value)


class TestDiff:
    def test_power_rule_fractional(self):
        d = ast_diff(parse_expr("u^(4/3)"), "u")
        assert ast_eval(d, 8.0, 0.0) == pytest.approx(F(4, 3) * 8 ** (1 / 3))

    def test_log_abs_cos_is_minus_tan(self):
        d = ast_diff(parse_expr("log(abs(cos(u)))"), "u")
        for k in range(20):
            x = -1.3 + 0.13 * k
            assert ast_eval(d, x, 0.0) == pytest.approx(-math.tan(x), abs=1e-8)

    def test_constant_derivative(self):
        assert ast_diff(parse_expr("22/7"), "u") == Const(F(0))
        assert ast_diff(parse_expr("u^2"), "v") == Const(F(0))

    def test_gallery_first_derivatives_match_central_differences(self):
        for name, params in (
            ("scherk", {"a": 1}),
            ("cmc", {"h0": F(1, 2), "a": 1}),
            ("blair", {"c": 1}),
            ("paraboloid", {"a": 1}),
        ):
            surf = gallery(name, **params)
            umin, umax, vmin, vmax = surf.default_rect
            for k in range(20):
                t = (k + 0.5) / 20
                u = umin + t * (umax - umin) * 0.9 + 0.05 * (umax - umin)
                v = vmin + t * (vmax - vmin) * 0.9 + 0.05 * (vmax - vmin)
                for e, var, x, y in ((surf.f, "u", u, 0.0), (surf.g, "v", 0.0, v)):
                    if name == "blair":
                        x = max(x, 0.55)
                        y = max(y, 0.55)
                    exact = ast_eval(ast_diff(e, var), x, y)
                    approx = central_difference(e, var, x, y)
                    assert exact == pytest.approx(approx, rel=1e-7, abs=1e-7)

    def test_third_derivatives_stay_well_formed(self):
        for text in ("log(abs(cos(u)))", "sqrt(2)*sqrt(1-u^2)", "u^(4/3)", "exp(u)*0 + u^5"):
            e = parse_expr(text)
            d3 = ast_diff(ast_diff(ast_diff(e, "u"), "u"), "u")
            value = ast_eval(d3, 0.37, 0.0)
            assert math.isfinite(value)

    def test_tan_derivative(self):
        d = ast_diff(parse_expr("tan(u)"), "u")
        assert ast_eval(d, 0.6, 0.0) == pytest.approx(1 / math.cos(0.6) ** 2)


class TestEval:
    def test_domain_error_names_subexpression(self):
        with pytest.raises(DomainError) as info:
            ast_eval(parse_expr("log(cos(u))"), 2.0, 0.0)
        assert "log" in str(info.value)

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            ast_eval(parse_expr("sqrt(1 - u^2)"), 2.0, 0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            ast_eval(parse_expr("u^(4/3)"), -1.0, 0.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ast_eval(parse_expr("1/u"), 0.0, 0.0)

    def test_fractional_power_second_derivative_at_zero(self):
        # alpha'' of the fractional-power surface has a negative power of u.
        d2 = ast_diff(ast_diff(parse_expr("u^(4/3)"), "u"), "u")
        with pytest.raises(DomainError):
            ast_eval(d2, 0.0, 0.0)

    def test_log_of_exact_zero(self):
        with pytest.raises(DomainError):
            ast_eval(parse_expr("log(abs(u))"), 0.0, 0.0)


class TestTextRoundTrip:
    def test_gallery_expressions_reparse_to_same_values(self):
        for name in ("scherk", "cmc", "blair", "paraboloid", "cylinder"):
            surf = gallery(name)
            for e in (surf.f, surf.g):
                reparsed = parse_expr(to_text(e))
                for t in (0.55, 0.8):
                    assert ast_eval(reparsed, t, t) == pytest.approx(
                        ast_eval(e, t, t), rel=1e-14, abs=1e-14
                    )


class TestPolynomialBridge:
    def test_non_polynomial_rejected(self):
        for text in ("sin(u)", "u^(1/2)", "1/u", "u^-1"):
            with pytest.raises(NotPolynomialError):
                expr_to_poly(parse_expr(text))

    def test_poly_to_expr_round_trip(self):
        p = Poly2({(3, 0): F(-1, 3), (1, 1): 2, (0, 0): F(5, 2)})
        assert expr_to_poly(poly_to_expr(p)) == p

    def test_constant_division_is_polynomial(self):
        assert expr_to_poly(parse_expr("(u + v)/2")) == Poly2(
            {(1, 0): F(1, 2), (0, 1): F(1, 2)}
        )


class TestInputBounds:
    def test_deep_parentheses_refused(self):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr("(" * 300 + "u" + ")" * 300)

    def test_long_sum_refused(self):
        # A left-deep chain is as deep as it is long.
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr("+".join(["u"] * 3000))

    def test_deep_function_nesting_refused(self):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr("sin(" * 60 + "u" + ")" * 60)

    def test_depth_at_the_cap_accepted(self):
        e = parse_expr("+".join(["u"] * MAX_DEPTH))
        assert expr_to_poly(e) == Poly2.monomial(MAX_DEPTH, 1, 0)
        # Parentheses alone add nesting, not tree depth.
        assert parse_expr("(" * (MAX_DEPTH - 1) + "u" + ")" * (MAX_DEPTH - 1)) == parse_expr("u")

    @pytest.mark.parametrize(
        "text", ["(u+1)^99999999", "u^60*u^60", "(u^20)^6", "(u*v)^51"]
    )
    def test_degree_cap_before_expanding(self, text):
        with pytest.raises(ValueError, match="degree"):
            expr_to_poly(parse_expr(text))

    def test_degree_at_the_cap_accepted(self):
        assert expr_to_poly(parse_expr("(u+1)^100")).degree() == 100

    def test_constant_power_size_cap(self):
        with pytest.raises(ValueError, match="bits"):
            expr_to_poly(parse_expr("2^99999999"))
        assert expr_to_poly(parse_expr("2^100")) == Poly2.const(2**100)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflow"):
            ast_eval(parse_expr("u^99999999"), 2.0, 0.0)
        with pytest.raises(DomainError, match="overflow"):
            ast_eval(parse_expr("exp(u)"), 1000.0, 0.0)

    def test_derivative_of_huge_constant_power_is_zero(self):
        assert ast_diff(parse_expr("2^99999999"), "u") == Const(F(0))

    def test_mentions(self):
        e = parse_expr("sin(u)^2 + log(abs(2*v))")
        assert mentions(e, "u") and mentions(e, "v")
        assert not mentions(parse_expr("exp(u)/3"), "v")
