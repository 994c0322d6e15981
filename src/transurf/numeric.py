"""Floating-point curvature work on translation surfaces z = f(u) + g(v).

Everything here takes expression trees for f and g, differentiates them
symbolically, and evaluates in double precision: pointwise curvature
samples, a finite-difference test of the Weingarten condition, the
least-squares search for a linear curvature relation, and a
finite-difference evaluation of the second Gaussian curvature that is
independent of the closed-form numerator used on the exact side.

Sign convention: the normal is taken upward, which makes the mean curvature
of an upward paraboloid positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    SECOND_GAUSSIAN_NUMERATOR_TERMS,
    PolyGenerators,
    expand_condition_terms,
    monge_numerators,
)
from .expr import DomainError, Expr, ast_diff, ast_eval


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple[float, float]
    H: float
    K: float
    K_II: float | None  # None when the second fundamental form is degenerate
    delta: float
    method: str  # "monge_formula" or "symbolic_eval"


@dataclass
class WeingartenTestResult:
    passed: bool
    max_abs: float                      # largest |dH/du dK/dv - dH/dv dK/du|
    argmax: tuple[float, float] | None
    scale: float                        # largest |grad H| * |grad K| over the grid
    tol: float
    step: float
    skipped: int = 0
    samples: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class LWFit:
    a: float
    b: float
    c: float
    residual_rms: float
    discriminant: float  # a^2 + b*c; sign separates the elliptic/hyperbolic cases


# Central-difference step and degeneracy floor of the K_II oracles.
ORACLE_STEP = 1e-3
DEGENERATE_TOL = 1e-12


def _derivative_trees(f: Expr, g: Expr) -> tuple[Expr, Expr, Expr, Expr]:
    """(f', g', f'', g'') as expression trees."""
    fp = ast_diff(f, "u")
    gp = ast_diff(g, "v")
    return fp, gp, ast_diff(fp, "u"), ast_diff(gp, "v")


def _eval_derivatives(trees, u: float, v: float) -> tuple[float, float, float, float]:
    """(f', g', f'', g'') at one point, evaluated in that order, so the first
    singular derivative is the one whose DomainError is raised."""
    fp, gp, fpp, gpp = trees
    return ast_eval(fp, u, v), ast_eval(gp, u, v), ast_eval(fpp, u, v), ast_eval(gpp, u, v)


def eval_curvatures(f: Expr, g: Expr, point: tuple[float, float]) -> CurvatureSample:
    """H, K and the second Gaussian curvature at one parameter point.

    Raises DomainError at singular points (naming the offending
    sub-expression); K_II is flagged undefined where f'' * g'' = 0.
    """
    u, v = point
    trees = _derivative_trees(f, g)
    al, be, alp, bep = _eval_derivatives(trees, u, v)
    delta, n_h, n_k = monge_numerators(al, be, alp, bep)

    kii: float | None = None
    if n_k != 0.0:
        alpp = ast_eval(ast_diff(trees[2], "u"), u, v)
        bepp = ast_eval(ast_diff(trees[3], "v"), u, v)
        num = expand_condition_terms(SECOND_GAUSSIAN_NUMERATOR_TERMS, al, be, alp, bep, alpp, bepp)
        kii = num / (4.0 * delta**1.5)
    h, k = n_h / delta**1.5, n_k / delta**2
    return CurvatureSample(point=(u, v), H=h, K=k, K_II=kii, delta=delta, method="monge_formula")


def eval_curvatures_symbolic(gen: PolyGenerators, point: tuple[float, float]) -> CurvatureSample:
    """The same quantities evaluated through the exact symbolic objects,
    which ``gen`` builds once and keeps for every later point."""
    u, v = point
    h = gen.mean_curvature.evalf(u, v)
    k = gen.gauss_curvature.evalf(u, v)
    delta = gen.delta().evalf(u, v)
    kii = None
    if gen.monge[2].evalf(u, v) != 0.0:  # alpha' * beta'
        kii = gen.second_gaussian_numerator.evalf(u, v) / (4.0 * delta**1.5)
    return CurvatureSample(point=(u, v), H=h, K=k, K_II=kii, delta=delta, method="symbolic_eval")


def grid_points(rect: tuple[float, float, float, float], n: int) -> list[tuple[float, float]]:
    """n x n points covering [umin, umax] x [vmin, vmax] inclusively."""
    umin, umax, vmin, vmax = rect
    us = np.linspace(umin, umax, n)
    vs = np.linspace(vmin, vmax, n)
    return [(float(u), float(v)) for u in us for v in vs]


def numeric_weingarten_test(
    f: Expr,
    g: Expr,
    grid: list[tuple[float, float]],
    tol: float = 1e-6,
    step: float = 1e-5,
) -> WeingartenTestResult:
    """Finite-difference test of dH/du dK/dv - dH/dv dK/du = 0 on a grid.

    Partials of the H and K fields use central differences of the given
    step.  The verdict is max |jacobian| < tol * max(1, S) where S is the
    largest gradient product |grad H| |grad K| seen on the grid: surfaces
    with order-one curvature gradients are judged absolutely, while the
    scale factor keeps roundoff on strongly curved surfaces from tripping
    the test.  Singular grid points are skipped and counted, not failed;
    a grid on which every point is skipped does not pass.
    """
    trees = _derivative_trees(f, g)

    def fields(u: float, v: float) -> tuple[float, float]:
        delta, n_h, n_k = monge_numerators(*_eval_derivatives(trees, u, v))
        return n_h / delta**1.5, n_k / delta**2

    result = WeingartenTestResult(
        passed=False, max_abs=0.0, argmax=None, scale=0.0, tol=tol, step=step
    )
    h = step
    for (u, v) in grid:
        try:
            h_up, k_up = fields(u + h, v)
            h_um, k_um = fields(u - h, v)
            h_vp, k_vp = fields(u, v + h)
            h_vm, k_vm = fields(u, v - h)
        except DomainError:
            result.skipped += 1
            continue
        h_u = (h_up - h_um) / (2 * h)
        h_v = (h_vp - h_vm) / (2 * h)
        k_u = (k_up - k_um) / (2 * h)
        k_v = (k_vp - k_vm) / (2 * h)
        jac = h_u * k_v - h_v * k_u
        grad_product = math.hypot(h_u, h_v) * math.hypot(k_u, k_v)
        result.scale = max(result.scale, grad_product)
        result.samples.append((u, v, jac))
        if abs(jac) > result.max_abs:
            result.max_abs = abs(jac)
            result.argmax = (u, v)
    result.passed = bool(result.samples) and result.max_abs < tol * max(1.0, result.scale)
    return result


def lw_fit(samples: list[CurvatureSample]) -> LWFit:
    """Best-fit constants for 2aH + bK = c over the samples.

    Solves for the smallest singular direction of the matrix with rows
    (2H_i, K_i, -1); the unit vector (a, b, c) minimizes the RMS residual.
    A tiny residual is evidence of a linear curvature relation.
    """
    if len(samples) < 3:
        raise ValueError("a linear-relation fit needs at least 3 samples")
    rows = np.array([[2.0 * s.H, s.K, -1.0] for s in samples])
    _, singular_values, vt = np.linalg.svd(rows, full_matrices=False)
    direction = vt[-1]
    # Fix the overall sign so reports are deterministic.
    lead = np.argmax(np.abs(direction))
    if direction[lead] < 0:
        direction = -direction
    residual_rms = float(singular_values[-1]) / math.sqrt(len(samples))
    a, b, c = (float(x) for x in direction)
    return LWFit(a=a, b=b, c=c, residual_rms=residual_rms, discriminant=a * a + b * c)


def _second_form_components(f: Expr, g: Expr):
    trees = _derivative_trees(f, g)

    def components(u: float, v: float) -> tuple[float, float]:
        al, be, alp, bep = _eval_derivatives(trees, u, v)
        root = math.sqrt(1.0 + al * al + be * be)
        return alp / root, bep / root

    return components


def kii_oracle(f: Expr, g: Expr, point: tuple[float, float]) -> float | None:
    """Second Gaussian curvature by the intrinsic determinant formula.

    Applies the classical curvature determinant of a metric to the second
    fundamental form components e = f''/sqrt(D), m = 0, g = g''/sqrt(D),
    taking the required partials by central differences of step
    ``ORACLE_STEP``.  This never touches the closed-form numerator, so it is
    an independent check of its zero set.  Returns None when the form is
    degenerate on the stencil.
    """
    u, v = point
    h = ORACLE_STEP
    comp = _second_form_components(f, g)
    try:
        e0, g0 = comp(u, v)
        e_up, g_up = comp(u + h, v)
        e_um, g_um = comp(u - h, v)
        e_vp, g_vp = comp(u, v + h)
        e_vm, g_vm = comp(u, v - h)
    except DomainError:
        return None
    for ee, gg in ((e0, g0), (e_up, g_up), (e_um, g_um), (e_vp, g_vp), (e_vm, g_vm)):
        if abs(ee * gg) < DEGENERATE_TOL:
            return None

    e_u = (e_up - e_um) / (2 * h)
    e_v = (e_vp - e_vm) / (2 * h)
    e_vv = (e_vp - 2 * e0 + e_vm) / (h * h)
    g_u = (g_up - g_um) / (2 * h)
    g_v = (g_vp - g_vm) / (2 * h)
    g_uu = (g_up - 2 * g0 + g_um) / (h * h)

    # Determinant formula with the mixed component identically zero.
    m1 = np.array(
        [
            [-0.5 * e_vv - 0.5 * g_uu, 0.5 * e_u, -0.5 * e_v],
            [-0.5 * g_u, e0, 0.0],
            [0.5 * g_v, 0.0, g0],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * e_v, 0.5 * g_u],
            [0.5 * e_v, e0, 0.0],
            [0.5 * g_u, 0.0, g0],
        ]
    )
    denom = (e0 * g0) ** 2
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / denom)


def kii_orthogonal(f: Expr, g: Expr, point: tuple[float, float]) -> float | None:
    """Second check of the oracle: curvature of the diagonal form e du^2 + g dv^2
    via K = -(1 / 2 sqrt(eg)) * [d/du (g_u / sqrt(eg)) + d/dv (e_v / sqrt(eg))].

    Only defined where e * g > 0 (definite form); nested central differences.
    """
    u, v = point
    h = ORACLE_STEP
    comp = _second_form_components(f, g)

    def sqrt_eg(uu: float, vv: float) -> float:
        e, gg = comp(uu, vv)
        prod = e * gg
        if prod <= 0:
            raise DomainError("second fundamental form not definite")
        return math.sqrt(prod)

    def phi_u(uu: float, vv: float) -> float:
        gu = (comp(uu + h, vv)[1] - comp(uu - h, vv)[1]) / (2 * h)
        return gu / sqrt_eg(uu, vv)

    def phi_v(uu: float, vv: float) -> float:
        ev = (comp(uu, vv + h)[0] - comp(uu, vv - h)[0]) / (2 * h)
        return ev / sqrt_eg(uu, vv)

    try:
        div = (phi_u(u + h, v) - phi_u(u - h, v)) / (2 * h) + (
            phi_v(u, v + h) - phi_v(u, v - h)
        ) / (2 * h)
        return -div / (2 * sqrt_eg(u, v))
    except DomainError:
        return None
