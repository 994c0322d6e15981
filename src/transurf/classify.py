"""Decision procedures for polynomial translation surfaces.

Classifies a surface with polynomial generators as flat (cylinder or
plane), a paraboloid of revolution, or not Weingarten; verifies the exact
nonlinear curvature relation of the paraboloid; and decides the homogeneous
linear-relation question 2aH + bK = 0 symbolically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .curvature import PolyGenerators, jacobian_direct, kii_numerator, mean_curvature_expr
from .poly import Poly2, Scalar, proportional_ratio


class SurfaceClass(enum.Enum):
    CYLINDER_OR_PLANE = "cylinder_or_plane"
    PARABOLOID_OF_REVOLUTION = "paraboloid_of_revolution"
    NOT_WEINGARTEN = "not_weingarten"


@dataclass(frozen=True)
class Classification:
    kind: SurfaceClass
    # For the paraboloid: (a, u0, v0) with a > 0 after orientation
    # normalization, describing z = a((u-u0)^2 + (v-v0)^2) up to congruence.
    params: tuple[Fraction, Fraction, Fraction] | None = None
    # For a non-Weingarten surface: one nonzero monomial (coeff, i, j) of the
    # condition polynomial; it is nonzero at any point with u, v != 0.
    witness: tuple[Fraction, int, int] | None = None
    # The Weingarten condition polynomial the decision was made on.
    condition: Poly2 | None = field(default=None, compare=False, repr=False)


class LWOutcome(enum.Enum):
    FLAT_FAMILY = "flat"          # K == 0; any (a=0, b != 0) works
    MINIMAL_FAMILY = "minimal"    # H == 0; any (a != 0, b=0) works
    NO_RELATION = "no_relation"   # no constant pair satisfies 2aH + bK = 0


@dataclass(frozen=True)
class KiiClassification:
    vanishes: bool
    witness: tuple[Fraction, int, int] | None = None


def _pick_witness(p: Poly2) -> tuple[Fraction, int, int]:
    key = max(p.terms, key=lambda k: (k[0] + k[1], k[0], k[1]))
    return (p.terms[key], key[0], key[1])


def classify_pt(f_prime: Poly2, g_prime: Poly2) -> Classification:
    """Classify the translation surface with generator derivatives (f', g').

    The decision runs entirely on the exact condition polynomial:

    * condition nonzero       -> not Weingarten (with a witness monomial);
    * some generator constant -> cylinder or plane (flat);
    * both generators linear  -> paraboloid of revolution with recovered
      vertex and scale (equal slopes are forced by the condition).
    """
    gen = PolyGenerators(f_prime, g_prime)
    condition = jacobian_direct(gen)
    if not condition.is_zero:
        return Classification(
            SurfaceClass.NOT_WEINGARTEN, witness=_pick_witness(condition), condition=condition
        )

    alpha_p = gen.alpha.diff("u")
    beta_p = gen.beta.diff("v")
    if alpha_p.is_zero or beta_p.is_zero:
        return Classification(SurfaceClass.CYLINDER_OR_PLANE, condition=condition)

    # Remaining case: degree-1 generators with equal slopes.
    if gen.m != 1 or gen.n != 1:
        raise RuntimeError("vanishing condition with nonlinear generators")
    slope_u = gen.alpha.coefficient(1, 0)
    slope_v = gen.beta.coefficient(0, 1)
    if slope_u != slope_v:
        raise RuntimeError("vanishing condition with unequal slopes")
    b_u = gen.alpha.coefficient(0, 0)
    b_v = gen.beta.coefficient(0, 0)
    # f = (slope/2)(u + b_u/slope)^2 + const; normalize orientation so the
    # reported scale is positive (a reflection of z is a congruence).
    a = abs(slope_u) / 2
    u0 = -b_u / slope_u
    v0 = -b_v / slope_v
    return Classification(
        SurfaceClass.PARABOLOID_OF_REVOLUTION, params=(a, u0, v0), condition=condition
    )


def relation1_residual(
    a: Scalar,
    point: tuple[Scalar, Scalar],
    u0: Scalar = 0,
    v0: Scalar = 0,
) -> Fraction:
    """Exact residual 8 a H^2 - sqrt(K) (2a + sqrt(K))^2 on the paraboloid.

    For z = a((u-u0)^2 + (v-v0)^2) with a > 0 both H^2 and
    sqrt(K) = 2a / D are rational at rational points, so the residual is an
    exact rational number; it is identically zero.
    """
    a = Fraction(a)
    if a <= 0:
        raise ValueError("the paraboloid relation needs a > 0")
    u0, v0 = Fraction(u0), Fraction(v0)
    alpha = Poly2({(1, 0): 2 * a, (0, 0): -2 * a * u0})
    beta = Poly2({(0, 1): 2 * a, (0, 0): -2 * a * v0})
    gen = PolyGenerators(alpha, beta)
    pu, pv = Fraction(point[0]), Fraction(point[1])

    h = mean_curvature_expr(gen)
    h_squared = (h * h).eval_exact(pu, pv)
    delta = gen.delta().eval(pu, pv)
    sqrt_k = 2 * a / delta
    return 8 * a * h_squared - sqrt_k * (2 * a + sqrt_k) ** 2


def lw0_symbolic(gen: PolyGenerators) -> LWOutcome:
    """Decide whether 2aH + bK = 0 holds for some constants (a, b) != (0, 0).

    Degenerate generators give the flat family.  Otherwise a relation with
    b != 0 would force the polynomials N_H^2 * D and N_K^2 to be
    proportional with a nonnegative ratio (square both sides of
    2a N_H sqrt(D) = -b N_K); the proportionality test is exact and fails
    for every nondegenerate polynomial pair.
    """
    delta, n_h, n_k = gen.monge
    if n_k.is_zero:
        return LWOutcome.FLAT_FAMILY
    if n_h.is_zero:
        # Impossible for nondegenerate polynomial generators (the minimal
        # surface equation has no polynomial solutions), kept for totality.
        return LWOutcome.MINIMAL_FAMILY
    lhs = n_h * n_h * delta
    rhs = n_k * n_k
    ratio = proportional_ratio(lhs, rhs)
    if ratio is None or ratio < 0:
        return LWOutcome.NO_RELATION
    raise RuntimeError(
        "nondegenerate polynomial generators admit a homogeneous linear "
        "curvature relation; this contradicts the parity argument"
    )


def classify_kii(gen: PolyGenerators) -> KiiClassification:
    """Vanishing test for the second Gaussian curvature numerator."""
    num = kii_numerator(gen)
    if num.is_zero:
        return KiiClassification(vanishes=True)
    return KiiClassification(vanishes=False, witness=_pick_witness(num))
