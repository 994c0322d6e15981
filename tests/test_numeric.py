"""Floating-point curvature work: samples, the Weingarten grid test, the
linear-relation fit, and the second-curvature oracle."""

from fractions import Fraction

import pytest

from transurf.curvature import PolyGenerators
from transurf.expr import parse_expr, poly_to_expr
from transurf.gallery import gallery
from transurf.numeric import (
    eval_curvatures,
    eval_curvatures_symbolic,
    grid_points,
    kii_oracle,
    kii_orthogonal,
    lw_fit,
    numeric_weingarten_test,
)
from transurf.poly import Poly2, antiderivative

F = Fraction
U = Poly2.var_u()
V = Poly2.var_v()


class TestEvalCurvatures:
    def test_scherk_is_minimal(self):
        surf = gallery("scherk", a=1)
        sample = eval_curvatures(surf.f, surf.g, (0.3, -0.7))
        assert abs(sample.H) < 1e-12
        assert sample.K < 0  # saddle everywhere

    def test_paraboloid_values(self):
        surf = gallery("paraboloid", a=1)
        sample = eval_curvatures(surf.f, surf.g, (1.0, 1.0))
        assert sample.H == pytest.approx(10 / 27, rel=1e-12)
        assert sample.K == pytest.approx(4 / 81, rel=1e-12)
        assert sample.delta == pytest.approx(9.0)
        assert sample.K_II == pytest.approx(8 / 27, rel=1e-12)
        assert sample.method == "monge_formula"

    def test_cylinder_flat_with_undefined_second_curvature(self):
        sample = eval_curvatures(parse_expr("u^3"), parse_expr("2*v"), (0.8, -1.1))
        assert sample.K == 0.0
        assert sample.K_II is None

    def test_sample_invariants_across_gallery(self):
        # delta >= 1 and real principal curvatures (H^2 >= K) everywhere.
        for name in ("scherk", "cmc", "blair", "paraboloid", "cylinder"):
            surf = gallery(name)
            for point in grid_points(surf.default_rect, 7):
                s = eval_curvatures(surf.f, surf.g, point)
                assert s.delta >= 1.0
                assert s.H * s.H - s.K >= -1e-9


class TestSymbolicNumericAgreement:
    def test_cross_evaluation_small(self):
        gen = PolyGenerators(
            Poly2.from_u_coeffs([F(1, 2), F(-2), F(3, 2)]),
            Poly2.from_v_coeffs([F(-1), F(2), F(0), F(1, 3)]),
        )
        f = poly_to_expr(antiderivative(gen.alpha, "u"))
        g = poly_to_expr(antiderivative(gen.beta, "v"))
        for point in [(0.37, -0.81), (1.6, 0.2), (-1.9, 1.4)]:
            numeric = eval_curvatures(f, g, point)
            symbolic = eval_curvatures_symbolic(gen, point)
            assert symbolic.method == "symbolic_eval"
            assert numeric.H == pytest.approx(symbolic.H, rel=1e-10, abs=1e-12)
            assert numeric.K == pytest.approx(symbolic.K, rel=1e-10, abs=1e-12)
            assert numeric.K_II == pytest.approx(symbolic.K_II, rel=1e-10, abs=1e-12)


class TestWeingartenTest:
    def test_scherk_passes(self):
        surf = gallery("scherk", a=1)
        grid = grid_points((-1.4, 1.4, -1.4, 1.4), 21)
        result = numeric_weingarten_test(surf.f, surf.g, grid, tol=1e-6)
        assert result.passed

    def test_paraboloid_passes(self):
        surf = gallery("paraboloid", a=1)
        result = numeric_weingarten_test(
            surf.f, surf.g, grid_points((-1, 1, -1, 1), 21), tol=1e-6
        )
        assert result.passed

    def test_cubic_quadratic_fails(self):
        result = numeric_weingarten_test(
            parse_expr("u^3/3"),
            parse_expr("v^2/2"),
            grid_points((0.3, 1.5, 0.3, 1.5), 15),
            tol=1e-6,
        )
        assert not result.passed
        assert result.max_abs > 1e-3
        assert result.argmax is not None

    def test_singular_points_skipped_not_failed(self):
        surf = gallery("blair", c=1)
        grid = [(0.0, 0.0), (1.0, 1.0)]  # fractional powers singular at 0
        result = numeric_weingarten_test(surf.f, surf.g, grid, tol=1e-4)
        assert result.skipped == 1
        # The verdict comes from the valid cell alone; the singular one is
        # counted, not failed.
        assert len(result.samples) == 1
        assert result.argmax == (1.0, 1.0)

    def test_all_points_skipped_does_not_pass(self):
        grid = grid_points((-2, -1, -1, 1), 5)
        result = numeric_weingarten_test(parse_expr("sqrt(u)"), parse_expr("v^3"), grid)
        assert result.skipped == 25
        assert not result.samples
        assert not result.passed

    def test_second_order_step_convergence(self):
        # On an exactly-Weingarten surface the measured maximum is pure
        # truncation error of the central differences, so halving the step
        # shrinks it about fourfold.
        surf = gallery("paraboloid", a=1)
        grid = grid_points((-1, 1, -1, 1), 9)
        coarse = numeric_weingarten_test(surf.f, surf.g, grid, step=1e-2).max_abs
        fine = numeric_weingarten_test(surf.f, surf.g, grid, step=5e-3).max_abs
        assert 2.5 < coarse / fine < 6.0


class TestLWFit:
    def test_minimal_surface_fit(self):
        surf = gallery("scherk", a=1)
        samples = [
            eval_curvatures(surf.f, surf.g, p)
            for p in grid_points((-1.4, 1.4, -1.4, 1.4), 21)
        ]
        fit = lw_fit(samples)
        assert abs(fit.b) < 1e-6 and abs(fit.c) < 1e-6
        assert abs(fit.a) == pytest.approx(1.0, abs=1e-9)
        assert fit.residual_rms < 1e-9

    def test_cylinder_fit(self):
        surf = gallery("cylinder", f="u^3")
        samples = [
            eval_curvatures(surf.f, surf.g, p) for p in grid_points((-1, 1, -1, 1), 21)
        ]
        fit = lw_fit(samples)
        assert abs(fit.a) < 1e-6 and abs(fit.c) < 1e-6
        assert abs(fit.b) == pytest.approx(1.0, abs=1e-9)

    def test_paraboloid_has_no_linear_relation(self):
        surf = gallery("paraboloid", a=1)
        samples = [
            eval_curvatures(surf.f, surf.g, p) for p in grid_points((-1, 1, -1, 1), 21)
        ]
        assert lw_fit(samples).residual_rms > 1e-3

    def test_needs_three_samples(self):
        surf = gallery("paraboloid", a=1)
        samples = [eval_curvatures(surf.f, surf.g, (0.1, 0.2))] * 2
        with pytest.raises(ValueError):
            lw_fit(samples)

    def test_unit_normalization_and_discriminant(self):
        surf = gallery("scherk", a=1)
        samples = [
            eval_curvatures(surf.f, surf.g, p) for p in grid_points((-1, 1, -1, 1), 9)
        ]
        fit = lw_fit(samples)
        assert fit.a**2 + fit.b**2 + fit.c**2 == pytest.approx(1.0, rel=1e-12)
        assert fit.discriminant == pytest.approx(fit.a**2 + fit.b * fit.c)


class TestKiiOracle:
    def test_paraboloid_origin(self):
        surf = gallery("paraboloid", a=1)
        assert kii_oracle(surf.f, surf.g, (0.0, 0.0)) == pytest.approx(2.0, rel=1e-4)

    def test_paraboloid_one_one(self):
        surf = gallery("paraboloid", a=1)
        assert kii_oracle(surf.f, surf.g, (1.0, 1.0)) == pytest.approx(2 / 27, rel=1e-4)

    def test_cylinder_degenerate(self):
        surf = gallery("cylinder", f="u^3")
        assert kii_oracle(surf.f, surf.g, (0.5, 0.5)) is None

    def test_independent_formulas_agree(self):
        # Determinant route vs the divergence form of the diagonal-metric
        # curvature; both are finite-difference and independent of the
        # closed-form numerator.
        surf = gallery("paraboloid", a=1)
        for point in [(0.0, 0.0), (0.7, -0.4), (1.0, 1.0)]:
            det_route = kii_oracle(surf.f, surf.g, point)
            div_route = kii_orthogonal(surf.f, surf.g, point)
            assert det_route == pytest.approx(div_route, rel=1e-3)

    def test_zero_set_agreement_on_blair(self):
        surf = gallery("blair", c=1)
        for point in grid_points((0.5, 2.0, 0.5, 2.0), 5):
            closed = eval_curvatures(surf.f, surf.g, point).K_II
            oracle = kii_oracle(surf.f, surf.g, point)
            assert abs(closed) < 1e-6
            assert abs(oracle) < 1e-6

    def test_ratio_constant_on_fixed_surface(self):
        surf = gallery("paraboloid", a=F(1, 2))
        ratios = []
        for point in grid_points((-0.8, 0.8, -0.8, 0.8), 5):
            closed = eval_curvatures(surf.f, surf.g, point).K_II
            ratios.append(closed / kii_oracle(surf.f, surf.g, point))
        center = sum(ratios) / len(ratios)
        assert all(abs(r - center) / abs(center) < 1e-4 for r in ratios)
