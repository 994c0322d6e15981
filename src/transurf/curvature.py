"""Symbolic curvature objects for translation surfaces z = f(u) + g(v).

The surface is described by its generator derivatives alpha = f' (a
polynomial in u alone) and beta = g' (a polynomial in v alone).  With
D = 1 + alpha^2 + beta^2 the classical Monge-patch formulas give

    H = ((1 + beta^2) alpha' + (1 + alpha^2) beta') / (2 D^(3/2))
    K = alpha' beta' / D^2

:func:`monge_numerators` writes them once, for exact and floating-point values.

Two independent constructions of the Weingarten condition are provided and
cross-checked against each other:

* :func:`jacobian_direct` expands a fixed 22-term polynomial identity in
  alpha, beta and their derivatives (the closed form of the condition);
* :func:`jacobian_derived` computes dH/du * dK/dv - dH/dv * dK/du inside
  the radical algebra and clears the radical.

The same fixed term tables drive exact polynomial expansion, floating-point
evaluation and formal power-law substitution, so an entry error in either
table would be caught by any one of the three consumers.

A :class:`PolyGenerators` value builds its derivatives, D, the H and K
expressions and the second-curvature numerator once, on first use, and
keeps them for every later query about the same surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .poly import Poly2, _cleared
from .radical import RadExpr

# Each entry: (integer coefficient, exponents of alpha, beta, alpha', beta',
# alpha'', beta'').  A condition value is the sum of the expanded entries.

# Closed form of dH/du dK/dv - dH/dv dK/du = 0 after clearing the radical.
JACOBIAN_CONDITION_TERMS: tuple[tuple[int, int, int, int, int, int, int], ...] = (
    (8, 1, 1, 3, 2, 0, 0),
    (-8, 1, 1, 2, 3, 0, 0),
    (-3, 0, 1, 1, 2, 1, 0),
    (3, 1, 0, 2, 1, 0, 1),
    (-2, 2, 1, 1, 2, 1, 0),
    (2, 1, 2, 2, 1, 0, 1),
    (-3, 0, 3, 1, 2, 1, 0),
    (3, 3, 0, 2, 1, 0, 1),
    (-3, 1, 0, 3, 0, 0, 1),
    (3, 0, 1, 0, 3, 1, 0),
    (3, 2, 1, 0, 3, 1, 0),
    (-3, 1, 2, 3, 0, 0, 1),
    (1, 0, 0, 1, 0, 1, 1),
    (-1, 0, 0, 0, 1, 1, 1),
    (1, 2, 0, 1, 0, 1, 1),
    (-1, 0, 2, 0, 1, 1, 1),
    (2, 0, 2, 1, 0, 1, 1),
    (-2, 2, 0, 0, 1, 1, 1),
    (1, 2, 2, 1, 0, 1, 1),
    (-1, 2, 2, 0, 1, 1, 1),
    (-1, 4, 0, 0, 1, 1, 1),
    (1, 0, 4, 1, 0, 1, 1),
)

# Numerator of the second Gaussian curvature: K_II = num / (4 D^(3/2)).
SECOND_GAUSSIAN_NUMERATOR_TERMS: tuple[tuple[int, int, int, int, int, int, int], ...] = (
    (-2, 2, 0, 2, 1, 0, 0),
    (-2, 0, 2, 1, 2, 0, 0),
    (2, 2, 0, 1, 2, 0, 0),
    (2, 0, 2, 2, 1, 0, 0),
    (2, 0, 0, 1, 2, 0, 0),
    (2, 0, 0, 2, 1, 0, 0),
    (1, 0, 1, 1, 0, 0, 1),
    (1, 1, 0, 0, 1, 1, 0),
    (1, 2, 1, 1, 0, 0, 1),
    (1, 1, 2, 0, 1, 1, 0),
    (1, 0, 3, 1, 0, 0, 1),
    (1, 3, 0, 0, 1, 1, 0),
)


def monge_numerators(al, be, alp, bep):
    """``(D, N_H, N_K)`` with H = N_H / D^(3/2) and K = N_K / D^2.

    Works over any ring with +, * and division by 2: exact Poly2 values or
    floats at one point.
    """
    delta = 1 + al * al + be * be
    n_h = ((1 + be * be) * alp + (1 + al * al) * bep) / 2
    return delta, n_h, alp * bep


def expand_condition_terms(table, al, be, alp, bep, alpp, bepp):
    """Sum a term table over any ring supporting +, * and integer powers.

    Used with Poly2 values (exact expansion), floats (pointwise evaluation)
    and formal power-law terms (exponent-lattice analysis).
    """
    total = None
    for c, e_al, e_be, e_alp, e_bep, e_alpp, e_bepp in table:
        term = c * al**e_al * be**e_be * alp**e_alp * bep**e_bep * alpp**e_alpp * bepp**e_bepp
        total = term if total is None else total + term
    return total


def _umul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient lists, low degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class _ClearedGenerator:
    """One generator derivative p in one variable, cleared to integers.

    ``bases`` holds the integer coefficient lists of p, p' and p'', each equal
    to the true polynomial times ``den``; products of their powers are kept
    as they are computed, so both term tables share them.
    """

    def __init__(self, p: Poly2, axis: int):
        den, nums = _cleared(p)
        coeffs = [0] * (p.degree() + 1)
        for key, n in nums.items():
            coeffs[key[axis]] = n
        first = [k * c for k, c in enumerate(coeffs)][1:]
        second = [k * c for k, c in enumerate(first)][1:]
        self.den = den
        self.bases = (coeffs, first, second)
        self._products: dict[tuple[int, int, int], list[int]] = {(0, 0, 0): [1]}

    def product(self, exps: tuple[int, int, int]) -> list[int]:
        """den^sum(exps) * p^e0 * p'^e1 * p''^e2 as an integer coefficient list."""
        got = self._products.get(exps)
        if got is None:
            k = next(k for k, e in enumerate(exps) if e)
            fewer = tuple(e - (i == k) for i, e in enumerate(exps))
            got = _umul(self.product(fewer), self.bases[k])
            self._products[exps] = got
        return got


def _expand_separable(table, gen: PolyGenerators) -> Poly2:
    """Exact sum of a term table; equal to ``expand_condition_terms`` over Poly2.

    Every entry is c * A(u) * B(v) with A a product of powers of alpha,
    alpha', alpha'' and B a product of powers of beta, beta', beta''.  Entries are grouped by
    their u-exponents, each group's v-parts are summed as integer lists, and
    each group contributes one outer product.  Every entry is brought to the
    table's largest power of the two denominators, so the whole sum is formed
    in integers and divided once per coefficient at the end.
    """
    fu, fv = gen._cleared_generators
    ku = max(e[1] + e[3] + e[5] for e in table)
    kv = max(e[2] + e[4] + e[6] for e in table)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for c, e_al, e_be, e_alp, e_bep, e_alpp, e_bepp in table:
        v_exps = (e_be, e_bep, e_bepp)
        scale = c * fv.den ** (kv - sum(v_exps))
        v_part = fv.product(v_exps)
        acc = groups.setdefault((e_al, e_alp, e_alpp), [])
        if len(acc) < len(v_part):
            acc.extend([0] * (len(v_part) - len(acc)))
        for j, b in enumerate(v_part):
            acc[j] += scale * b
    out: dict[tuple[int, int], int] = {}
    for u_exps, v_sum in groups.items():
        u_scale = fu.den ** (ku - sum(u_exps))
        v_terms = [(j, b) for j, b in enumerate(v_sum) if b]
        for i, a in enumerate(fu.product(u_exps)):
            if a:
                a *= u_scale
                for j, b in v_terms:
                    out[(i, j)] = out.get((i, j), 0) + a * b
    den = fu.den**ku * fv.den**kv
    return Poly2({key: Fraction(n, den) for key, n in out.items() if n})


@dataclass(frozen=True)
class PolyGenerators:
    """Generator derivatives alpha = f'(u) and beta = g'(v), exact polynomials.

    The curvature objects of the surface are built on first use and kept on
    the instance.
    """

    alpha: Poly2
    beta: Poly2

    def __post_init__(self):
        if self.alpha.depends_on("v"):
            raise ValueError("alpha must be a polynomial in u only")
        if self.beta.depends_on("u"):
            raise ValueError("beta must be a polynomial in v only")

    @classmethod
    def from_coeffs(cls, alpha_coeffs, beta_coeffs) -> PolyGenerators:
        return cls(Poly2.from_u_coeffs(alpha_coeffs), Poly2.from_v_coeffs(beta_coeffs))

    @property
    def m(self) -> int:
        """Degree of alpha (-1 for the zero polynomial)."""
        return self.alpha.degree("u")

    @property
    def n(self) -> int:
        return self.beta.degree("v")

    def delta(self) -> Poly2:
        """The squared-norm polynomial 1 + alpha^2 + beta^2, always >= 1."""
        return self.monge[0]

    def derivatives(self) -> tuple[Poly2, Poly2, Poly2, Poly2, Poly2, Poly2]:
        """(alpha, beta, alpha', beta', alpha'', beta'')."""
        return self._derivatives

    @cached_property
    def _derivatives(self) -> tuple[Poly2, Poly2, Poly2, Poly2, Poly2, Poly2]:
        al, be = self.alpha, self.beta
        alp, bep = al.diff("u"), be.diff("v")
        return al, be, alp, bep, alp.diff("u"), bep.diff("v")

    @cached_property
    def monge(self) -> tuple[Poly2, Poly2, Poly2]:
        """``(D, N_H, N_K)`` of :func:`monge_numerators`."""
        al, be, alp, bep, _, _ = self._derivatives
        return monge_numerators(al, be, alp, bep)

    @cached_property
    def _cleared_generators(self) -> tuple[_ClearedGenerator, _ClearedGenerator]:
        return _ClearedGenerator(self.alpha, 0), _ClearedGenerator(self.beta, 1)

    @cached_property
    def mean_curvature(self) -> RadExpr:
        delta, n_h, _ = self.monge
        return RadExpr(delta, {-3: n_h})

    @cached_property
    def gauss_curvature(self) -> RadExpr:
        delta, _, n_k = self.monge
        return RadExpr(delta, {-4: n_k})

    @cached_property
    def second_gaussian_numerator(self) -> Poly2:
        """Numerator of K_II (denominator 4 D^(3/2))."""
        return _expand_separable(SECOND_GAUSSIAN_NUMERATOR_TERMS, self)


def mean_curvature_expr(gen: PolyGenerators) -> RadExpr:
    return gen.mean_curvature


def gauss_curvature_expr(gen: PolyGenerators) -> RadExpr:
    return gen.gauss_curvature


def jacobian_direct(gen: PolyGenerators) -> Poly2:
    """Closed-form Weingarten condition polynomial, expanded exactly.

    The surface is Weingarten iff the result is identically zero.
    """
    return _expand_separable(JACOBIAN_CONDITION_TERMS, gen)


def jacobian_derived(gen: PolyGenerators) -> tuple[Poly2, Poly2]:
    """Weingarten condition computed from H and K inside the radical algebra.

    Returns the pair (n_even, n_odd) of the value
    dH/du * dK/dv - dH/dv * dK/du cleared against the fixed denominator
    D^6, i.e. the Jacobian equals (n_even + n_odd * sqrt(D)) / D^6.  The
    surface satisfies the Weingarten condition iff both components vanish
    identically.  Clearing to a fixed power keeps the relation to
    :func:`jacobian_direct` uniform across surfaces.
    """
    h = mean_curvature_expr(gen)
    k = gauss_curvature_expr(gen)
    jac = h.diff("u") * k.diff("v") - h.diff("v") * k.diff("u")
    n_even, n_odd, k_min = jac.as_cleared_numerator()
    if n_even.is_zero and n_odd.is_zero:
        return n_even, n_odd
    shift = k_min + 6
    if shift < 0:
        raise RuntimeError("unexpected radical structure in the curvature Jacobian")
    d_pow = gen.delta() ** shift
    return n_even * d_pow, n_odd * d_pow


def kii_numerator(gen: PolyGenerators) -> Poly2:
    """Numerator polynomial of the second Gaussian curvature (denominator 4 D^(3/2))."""
    return gen.second_gaussian_numerator


def jacobian_linear_beta(alpha: Poly2, a: Fraction | int, b: Fraction | int) -> Poly2:
    """Weingarten condition specialized to beta = a*v + b, a != 0.

    Seven-term reduction of the closed form.  Note: the fourth coefficient
    is -2a^2, not -2a; the -2a variant fails the cross-check against both
    the closed form and the derived Jacobian for a != 1.
    """
    if a == 0:
        raise ValueError("linear beta needs a nonzero slope")
    al = alpha
    alp = al.diff("u")
    alpp = alp.diff("u")
    be = Poly2({(0, 1): a, (0, 0): b})
    a = Fraction(a)
    return (
        8 * a**2 * al * be * alp**3
        - 8 * a**3 * al * be * alp**2
        - 3 * a**2 * be * alp * alpp
        - 2 * a**2 * al**2 * be * alp * alpp
        - 3 * a**2 * be**3 * alp * alpp
        + 3 * a**3 * be * alpp
        + 3 * a**3 * al**2 * be * alpp
    )
