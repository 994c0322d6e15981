"""Named translation surfaces with known curvature properties.

Each entry returns the generator expressions together with the property the
surface is expected to satisfy, so verification runs and tests can iterate
over the catalogue:

* ``scherk(a)``      -- minimal (H == 0); z = (1/a) log|cos(a u) / cos(a v)|
* ``cmc(h0, a)``     -- constant mean curvature |H| == h0
* ``blair(c)``       -- vanishing second Gaussian curvature on u, v > 0
* ``paraboloid(a, u0, v0)`` -- the exact nonlinear relation between H and K
* ``cylinder(f_text, slope)`` -- flat (K == 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .expr import Expr, parse_expr


@dataclass(frozen=True)
class GallerySurface:
    name: str
    f: Expr
    g: Expr
    expected: str   # one of: H_zero, abs_H_const, KII_zero, paraboloid_relation, K_zero
    expected_value: float | None
    params: dict
    default_rect: tuple[float, float, float, float]


def gallery(name: str, **params) -> GallerySurface:
    """Construct a named surface; raises ValueError for unknown names or
    parameters outside the surface's domain of definition.

    Parameters are pasted into the source text in parentheses, so a
    rational or negative value keeps its meaning."""
    if name == "scherk":
        a = params.get("a", 1)
        if a == 0:
            raise ValueError("scherk needs a != 0")
        f = parse_expr(f"log(abs(cos(({a})*u)))/({a})" if a != 1 else "log(abs(cos(u)))")
        g = parse_expr(f"-log(abs(cos(({a})*v)))/({a})" if a != 1 else "-log(abs(cos(v)))")
        # Keep clear of the poles of cos(a x) at +-pi/(2a).
        half = 0.9 * math.pi / (2 * abs(a))
        return GallerySurface(
            name, f, g, "H_zero", None, {"a": a}, (-half, half, -half, half)
        )

    if name == "cmc":
        h0 = params.get("h0", Fraction(1, 2))
        a = params.get("a", 1)
        if h0 == 0:
            raise ValueError("cmc needs a nonzero target mean curvature")
        h0f = Fraction(h0)
        af = Fraction(a)
        scale_sq = (1 + af * af) / (4 * h0f * h0f)  # (sqrt(1+a^2) / 2h0)^2
        f = parse_expr(f"sqrt({scale_sq})*sqrt(1 - {4 * h0f * h0f}*u^2)")
        g = parse_expr(f"{af}*v")
        # Square root defined for |2 h0 u| < 1; keep to 90% of the open domain.
        half_u = 0.9 / (2 * abs(float(h0f)))
        return GallerySurface(
            name, f, g, "abs_H_const", abs(float(h0f)),
            {"h0": h0, "a": a}, (-half_u, half_u, -1.0, 1.0),
        )

    if name == "blair":
        c = params.get("c", 1)
        if c == 0:
            raise ValueError("blair needs c != 0")
        f = parse_expr(f"({c})*u^(4/3)" if c != 1 else "u^(4/3)")
        g = parse_expr(f"-({c})*v^(4/3)" if c != 1 else "-v^(4/3)")
        return GallerySurface(name, f, g, "KII_zero", None, {"c": c}, (0.5, 2.0, 0.5, 2.0))

    if name == "paraboloid":
        a = Fraction(params.get("a", 1))
        u0 = Fraction(params.get("u0", 0))
        v0 = Fraction(params.get("v0", 0))
        if a <= 0:
            raise ValueError("paraboloid needs a > 0")
        f = parse_expr(f"({a})*(u - ({u0}))^2" if u0 else f"({a})*u^2")
        g = parse_expr(f"({a})*(v - ({v0}))^2" if v0 else f"({a})*v^2")
        return GallerySurface(
            name, f, g, "paraboloid_relation", float(a),
            {"a": a, "u0": u0, "v0": v0}, (-1.0, 1.0, -1.0, 1.0),
        )

    if name == "cylinder":
        f_text = params.get("f", "u^3")
        slope = Fraction(params.get("slope", 0))
        f = parse_expr(f_text)
        g = parse_expr(f"{slope}*v" if slope else "0")
        return GallerySurface(
            name, f, g, "K_zero", None, {"f": f_text, "slope": slope},
            (-1.0, 1.0, -1.0, 1.0),
        )

    raise ValueError(f"unknown gallery surface {name!r}")


GALLERY_NAMES = ("scherk", "cmc", "blair", "paraboloid", "cylinder")
