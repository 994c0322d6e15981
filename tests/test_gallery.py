"""Catalogue surfaces carry the property they advertise."""

import math
from fractions import Fraction

import pytest

from transurf.expr import ast_eval, to_text
from transurf.gallery import GALLERY_NAMES, gallery
from transurf.numeric import eval_curvatures, grid_points


class TestConstruction:
    def test_scherk_unit(self):
        surf = gallery("scherk", a=1)
        assert to_text(surf.f) == "log(abs(cos(u)))"
        assert to_text(surf.g) == "(-log(abs(cos(v))))"
        assert surf.expected == "H_zero"

    def test_cmc_half(self):
        surf = gallery("cmc", h0=Fraction(1, 2), a=1)
        # f = sqrt(2) * sqrt(1 - u^2), g = v
        assert ast_eval(surf.f, 0.0, 0.0) == pytest.approx(math.sqrt(2))
        assert ast_eval(surf.g, 0.0, 3.0) == pytest.approx(3.0)
        assert surf.expected_value == 0.5

    def test_blair_unit(self):
        surf = gallery("blair", c=1)
        assert ast_eval(surf.f, 8.0, 0.0) + ast_eval(surf.g, 0.0, 1.0) == pytest.approx(
            8 ** (4 / 3) - 1.0
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gallery("helicoid")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gallery("scherk", a=0)
        with pytest.raises(ValueError):
            gallery("cmc", h0=0)
        with pytest.raises(ValueError):
            gallery("paraboloid", a=-1)
        with pytest.raises(ValueError):
            gallery("blair", c=0)

    def test_all_names_construct(self):
        for name in GALLERY_NAMES:
            surf = gallery(name)
            assert surf.name == name


class TestAdvertisedProperties:
    def test_scherk_scaled(self):
        surf = gallery("scherk", a=2)
        for point in grid_points(surf.default_rect, 9):
            assert abs(eval_curvatures(surf.f, surf.g, point).H) < 1e-9

    def test_cmc_scaled(self):
        surf = gallery("cmc", h0=Fraction(1, 4), a=2)
        for point in grid_points(surf.default_rect, 9):
            sample = eval_curvatures(surf.f, surf.g, point)
            assert abs(sample.H) == pytest.approx(0.25, abs=1e-9)

    def test_cmc_domain_shrinks_to_interior(self):
        surf = gallery("cmc", h0=Fraction(1, 2), a=1)
        umin, umax, _, _ = surf.default_rect
        assert umax == pytest.approx(0.9)  # 90% of the open domain |u| < 1
        assert umin == -umax

    def test_scherk_rational_scale(self):
        surf = gallery("scherk", a=Fraction(3, 4))
        assert abs(eval_curvatures(surf.f, surf.g, (0.3, 0.5)).H) < 1e-12
        for point in grid_points(surf.default_rect, 7):
            assert abs(eval_curvatures(surf.f, surf.g, point).H) < 1e-9

    def test_paraboloid_negative_vertex(self):
        surf = gallery("paraboloid", a=2, u0=Fraction(-1, 2), v0=Fraction(3, 4))
        assert ast_eval(surf.f, -0.5, 0.0) == 0.0
        assert ast_eval(surf.g, 0.0, 0.75) == 0.0
        assert ast_eval(surf.f, 0.5, 0.0) == pytest.approx(2.0)

    def test_blair_negative_scale(self):
        surf = gallery("blair", c=-2)
        assert ast_eval(surf.g, 0.0, 1.0) == pytest.approx(2.0)

    def test_cylinder_flat(self):
        surf = gallery("cylinder", f="u^2", slope=3)
        for point in grid_points(surf.default_rect, 5):
            assert eval_curvatures(surf.f, surf.g, point).K == 0.0
