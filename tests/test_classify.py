"""Classification decisions, the exact paraboloid relation, and the
homogeneous linear-relation test."""

from fractions import Fraction

import pytest

from transurf.classify import (
    LWOutcome,
    SurfaceClass,
    classify_kii,
    classify_pt,
    lw0_symbolic,
    relation1_residual,
)
from transurf.curvature import PolyGenerators
from transurf.poly import Poly2

U = Poly2.var_u()
V = Poly2.var_v()


class TestClassifyPT:
    def test_shifted_paraboloid(self):
        result = classify_pt(2 * U + 2, 2 * V + 2)
        assert result.kind is SurfaceClass.PARABOLOID_OF_REVOLUTION
        assert result.params == (Fraction(1), Fraction(-1), Fraction(-1))

    def test_constant_alpha_is_cylinder(self):
        result = classify_pt(Poly2.const(3), V**5)
        assert result.kind is SurfaceClass.CYLINDER_OR_PLANE

    def test_plane(self):
        result = classify_pt(Poly2.const(1), Poly2.const(-2))
        assert result.kind is SurfaceClass.CYLINDER_OR_PLANE

    def test_quadratic_cubic_not_weingarten(self):
        result = classify_pt(U * U, V**3)
        assert result.kind is SurfaceClass.NOT_WEINGARTEN
        coeff, i, j = result.witness
        assert coeff * Fraction(1) ** i * Fraction(1) ** j != 0

    def test_unequal_slopes_not_weingarten(self):
        result = classify_pt(2 * U, V)
        assert result.kind is SurfaceClass.NOT_WEINGARTEN
        assert result.witness == (Fraction(64), 1, 1)

    def test_downward_paraboloid_normalized(self):
        result = classify_pt(-2 * U + 4, -2 * V)
        assert result.kind is SurfaceClass.PARABOLOID_OF_REVOLUTION
        a, u0, v0 = result.params
        assert a == 1 and a > 0
        assert u0 == 2 and v0 == 0

    def test_scaled_vertex_recovery(self):
        # f' = 3(u - 4)/1 -> a = 3/2, u0 = 4
        result = classify_pt(3 * U - 12, 3 * V + 6)
        a, u0, v0 = result.params
        assert (a, u0, v0) == (Fraction(3, 2), 4, -2)

    def test_wrong_variable_rejected(self):
        with pytest.raises(ValueError):
            classify_pt(V, U)

    def test_witness_evaluates_nonzero_somewhere(self):
        result = classify_pt(U**3, V * V)
        coeff, i, j = result.witness
        assert coeff != 0  # nonzero at any point with u, v != 0

    def test_condition_polynomial_reported(self):
        result = classify_pt(2 * U, V)
        assert result.condition == 64 * U * V
        assert classify_pt(U, V).condition.is_zero


class TestRelation1:
    def test_vertex_values(self):
        # a = 1 at the vertex: H = 2, K = 4, both sides 32.
        a = Fraction(1)
        delta = Fraction(1)
        sqrt_k = 2 * a / delta
        assert 8 * a * 4 == sqrt_k * (2 * a + sqrt_k) ** 2 == 32
        assert relation1_residual(1, (0, 0)) == 0

    def test_worked_value_at_one_one(self):
        # Both sides equal 800/729 for a = 1 at (1, 1).
        assert relation1_residual(1, (1, 1)) == 0
        sqrt_k = Fraction(2, 9)
        assert sqrt_k * (2 + sqrt_k) ** 2 == Fraction(800, 729)

    def test_half_scale_vertex(self):
        # a = 1/2 at the vertex: 8 * (1/2) * 1 = 4 and 1 * (1 + 1)^2 = 4.
        assert relation1_residual(Fraction(1, 2), (0, 0)) == 0

    def test_translated_vertex(self):
        assert relation1_residual(Fraction(3, 4), (2, -5), u0=2, v0=-5) == 0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            relation1_residual(0, (0, 0))
        with pytest.raises(ValueError):
            relation1_residual(Fraction(-1), (0, 0))

    def test_exactness_on_awkward_rationals(self):
        assert relation1_residual(
            Fraction(7, 3), (Fraction(22, 7), Fraction(-5, 13)),
            u0=Fraction(1, 9), v0=Fraction(-8, 11),
        ) == 0


class TestLW0Symbolic:
    def test_constant_generator_flat(self):
        assert lw0_symbolic(PolyGenerators(Poly2.const(2), V**3)) is LWOutcome.FLAT_FAMILY
        assert lw0_symbolic(PolyGenerators(U * U, Poly2.const(0))) is LWOutcome.FLAT_FAMILY

    def test_unit_slopes_no_relation(self):
        assert lw0_symbolic(PolyGenerators(U, V)) is LWOutcome.NO_RELATION

    def test_quadratic_pair_no_relation(self):
        assert lw0_symbolic(PolyGenerators(U * U, V * V)) is LWOutcome.NO_RELATION


class TestClassifyKii:
    def test_constant_beta_vanishes(self):
        assert classify_kii(PolyGenerators(U**4, Poly2.const(3))).vanishes

    def test_paraboloid_nonvanishing_with_witness(self):
        result = classify_kii(PolyGenerators(2 * U, 2 * V))
        assert not result.vanishes
        assert result.witness == (Fraction(32), 0, 0)

    def test_quadratic_pair_nonvanishing(self):
        assert not classify_kii(PolyGenerators(U * U, V * V)).vanishes


class TestConstantGaussCurvature:
    def test_flat_classification_iff_curvature_polynomial_vanishes(self):
        # K == 0 as an exact statement (alpha' beta' == 0) picks out exactly
        # the cylinder-or-plane class.
        import random

        rng = random.Random(17)
        for _ in range(40):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            alpha = Poly2.from_u_coeffs(
                [Fraction(rng.randint(-3, 3)) for _ in range(m)] + [Fraction(rng.randint(1, 3))]
            )
            beta = Poly2.from_v_coeffs(
                [Fraction(rng.randint(-3, 3)) for _ in range(n)] + [Fraction(rng.randint(1, 3))]
            )
            k_vanishes = (alpha.diff("u") * beta.diff("v")).is_zero
            flat = classify_pt(alpha, beta).kind is SurfaceClass.CYLINDER_OR_PLANE
            assert k_vanishes == flat
