"""The half-power algebra: products, derivatives, clearing, evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import univariate
from transurf.poly import Poly2
from transurf.radical import DeltaMismatchError, RadExpr

U = Poly2.var_u()
V = Poly2.var_v()


def make_delta(alpha: Poly2, beta: Poly2) -> Poly2:
    return 1 + alpha * alpha + beta * beta


PARA_DELTA = make_delta(2 * U, 2 * V)


class TestMul:
    def test_exponents_add(self):
        p = U + 1
        q = V * V
        x = RadExpr(PARA_DELTA, {-1: p})
        y = RadExpr(PARA_DELTA, {-3: q})
        assert (x * y).terms == {-4: p * q}

    def test_identity(self):
        x = RadExpr(PARA_DELTA, {-3: U * V, 2: Poly2.const(5)})
        one = RadExpr.from_poly(PARA_DELTA, 1)
        assert (x * one).terms == x.terms

    def test_paraboloid_mean_curvature_square(self):
        # H = (2 + 4u^2 + 4v^2) D^(-3/2); H^2 = (4 + 8u^2 + 8v^2)^2 / 4 * D^(-3)
        n = 2 + 4 * U * U + 4 * V * V
        h = RadExpr(PARA_DELTA, {-3: n})
        expected = (4 + 8 * U * U + 8 * V * V) ** 2 * Fraction(1, 4)
        assert (h * h).terms == {-6: expected}

    def test_mismatched_bases_error(self):
        other = make_delta(U, V)
        with pytest.raises(DeltaMismatchError):
            RadExpr(PARA_DELTA, {0: U}) * RadExpr(other, {0: V})
        with pytest.raises(DeltaMismatchError):
            RadExpr(PARA_DELTA, {0: U}) + RadExpr(other, {0: V})


class TestDiff:
    def test_chain_rule_on_root(self):
        # d/du D^(1/2) = alpha alpha' D^(-1/2) for alpha = 2u (dD/du = 8u)
        root = RadExpr.power(PARA_DELTA, 1)
        got = root.diff("u")
        assert got.terms == {-1: 4 * U}

    def test_constant_derivative(self):
        c = RadExpr.from_poly(PARA_DELTA, Fraction(5, 3))
        assert c.diff("u").terms == {}
        assert c.diff("v").terms == {}

    def test_gauss_curvature_even_in_v(self):
        # K = 4 D^(-2) for the unit paraboloid; dK/dv vanishes at the origin
        k = RadExpr(PARA_DELTA, {-4: Poly2.const(4)})
        assert abs(k.diff("v").evalf(0.0, 0.0)) == 0.0

    @settings(max_examples=40)
    @given(univariate("u", 2), univariate("v", 2),
           st.integers(-4, 4), st.integers(-4, 4))
    def test_leibniz(self, alpha, beta, e1, e2):
        delta = make_delta(alpha, beta)
        x = RadExpr(delta, {e1: alpha + V, 0: beta})
        y = RadExpr(delta, {e2: beta * U - 1})
        lhs = (x * y).diff("u")
        rhs = x.diff("u") * y + x * y.diff("u")
        assert (lhs - rhs).is_zero


class TestClearedNumerator:
    def test_zero(self):
        n_even, n_odd, k_min = RadExpr.zero(PARA_DELTA).as_cleared_numerator()
        assert n_even.is_zero and n_odd.is_zero and k_min == 0

    def test_single_odd_term(self):
        p = U * V + 3
        x = RadExpr(PARA_DELTA, {-3: p})  # p * D^(-3/2)
        n_even, n_odd, k_min = x.as_cleared_numerator()
        assert n_even.is_zero
        assert n_odd == p
        assert k_min == -2

    def test_contract_reconstruction(self):
        x = RadExpr(PARA_DELTA, {-3: U, -4: V * V, 1: Poly2.const(2)})
        n_even, n_odd, k_min = x.as_cleared_numerator()
        u0, v0 = 0.7, -0.4
        d = PARA_DELTA.evalf(u0, v0)
        reconstructed = (n_even.evalf(u0, v0) + n_odd.evalf(u0, v0) * d**0.5) * d**k_min
        assert reconstructed == pytest.approx(x.evalf(u0, v0), rel=1e-12)

    def test_zero_detected_through_cancellation(self):
        # D * D^(-1) - 1 == 0 even though the term map is nonempty
        x = RadExpr(PARA_DELTA, {-2: PARA_DELTA, 0: Poly2.const(-1)})
        assert x.is_zero


class TestEvaluation:
    @settings(max_examples=30)
    @given(univariate("u", 3), univariate("v", 3))
    def test_cleared_form_matches_direct_evaluation(self, alpha, beta):
        delta = make_delta(alpha, beta)
        rng = random.Random(hash((str(alpha), str(beta))) & 0xFFFF)
        x = RadExpr(delta, {-3: alpha * V + 1, -2: beta, 1: alpha * beta})
        n_even, n_odd, k_min = x.as_cleared_numerator()

        def terms_magnitude(p, u0, v0):
            # Backward-error scale: what the expanded polynomial sums in
            # absolute value (clearing can inflate then cancel terms).
            return sum(
                abs(float(c)) * abs(u0) ** i * abs(v0) ** j
                for (i, j), c in p.terms.items()
            )

        for _ in range(3):
            u0, v0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            d = delta.evalf(u0, v0)
            direct = x.evalf(u0, v0)
            cleared = (n_even.evalf(u0, v0) + n_odd.evalf(u0, v0) * d**0.5) * d**k_min
            scale = max(
                1.0,
                abs(direct),
                terms_magnitude(n_even, u0, v0) * d**k_min,
                terms_magnitude(n_odd, u0, v0) * d**0.5 * d**k_min,
            )
            assert abs(direct - cleared) <= 1e-12 * scale

    @settings(max_examples=30)
    @given(univariate("u", 3), univariate("v", 3),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_delta_at_least_one(self, alpha, beta, u0, v0):
        assert make_delta(alpha, beta).evalf(u0, v0) >= 1.0

    def test_exact_evaluation_integer_powers(self):
        x = RadExpr(PARA_DELTA, {-4: Poly2.const(4)})
        assert x.eval_exact(1, 1) == Fraction(4, 81)

    def test_exact_evaluation_rejects_half_powers(self):
        x = RadExpr(PARA_DELTA, {-3: Poly2.const(1)})
        with pytest.raises(ValueError):
            x.eval_exact(0, 0)
