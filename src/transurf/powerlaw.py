"""Exponent-lattice analysis for power-law generators alpha = a*u^p, beta = b*v^q.

For rational exponents p, q the two vanishing conditions (the Weingarten
condition and the second-Gaussian-curvature numerator) become finite sums of
monomials a^i b^j u^(e_u) v^(e_v) whose exponents are affine in p and q.
The whole argument hinges on which exponent pairs coincide for a given
(p, q), so exponents are kept as exact rationals and collisions are detected
by exact equality.

Two coefficient tables are carried for each condition: the fixed hand-entered
table below and an independent rederivation by formal power-rule
substitution into the closed-form condition polynomials (u^p differentiates
to p*u^(p-1)); :func:`power_tables_consistent` checks them against each
other term by term.

Normalization note: the tabulated vanishing-K_II table has the common factor
a*b*p*q*u^(p-2)*v^(q-2) removed, so it does not represent the condition when
p*q = 0; degenerate exponents make a generator constant, the surface a
cylinder, and both conditions identically satisfied, which is why
:func:`scan_exponents` routes the p = 0 and q = 0 axes directly to the
"any coefficients" outcome.  Power-law surfaces live on the open first
quadrant u, v > 0.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

from .curvature import (
    JACOBIAN_CONDITION_TERMS,
    SECOND_GAUSSIAN_NUMERATOR_TERMS,
    expand_condition_terms,
)
from .poly import Poly2, Scalar, accumulate

Condition = Literal["jacobian", "second_gaussian"]

_CONDITION_TABLES = {
    "jacobian": JACOBIAN_CONDITION_TERMS,
    "second_gaussian": SECOND_GAUSSIAN_NUMERATOR_TERMS,
}

_P = Poly2.var_u()  # the two Poly2 slots double as the formal symbols p, q
_Q = Poly2.var_v()


@dataclass(frozen=True)
class PowerGenerators:
    """alpha = a * u^p and beta = b * v^q with nonzero rational a, b."""

    a: Fraction
    b: Fraction
    p: Fraction
    q: Fraction

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise ValueError("power-law coefficients must be nonzero")


class ConstraintKind(enum.Enum):
    ANY_AB = "any_ab"                      # no constraint on the coefficients
    REQUIRES_EQUAL = "requires_equal"      # holds exactly on the family a = b
    REQUIRES_OPPOSITE = "requires_opposite"  # holds exactly on a = -b
    ONLY_TRIVIAL = "only_trivial"          # no nonzero (a, b) satisfies it
    UNSOLVED = "unsolved"                  # outside the supported shapes


@dataclass(frozen=True)
class ConstraintResult:
    kind: ConstraintKind
    residuals: tuple[Poly2, ...] = ()

    def __repr__(self):
        if self.kind is ConstraintKind.UNSOLVED:
            inner = ", ".join(p.to_str(("a", "b")) for p in self.residuals)
            return f"ConstraintResult(UNSOLVED: {inner})"
        return f"ConstraintResult({self.kind.name})"


@dataclass
class TermTable:
    """Condition terms grouped by exact exponent pair.

    ``entries`` maps (e_u, e_v) to the summed coefficient, a polynomial in
    (a, b).  Pairs that received at least one tabulated term are kept even
    when the collision sum cancels to zero, so the collision structure
    itself stays observable; the condition holds for given nonzero (a, b)
    iff every entry evaluates to zero.
    """

    condition: str
    p: Fraction
    q: Fraction
    entries: dict[tuple[Fraction, Fraction], Poly2] = field(default_factory=dict)

    def nonzero_entries(self) -> dict[tuple[Fraction, Fraction], Poly2]:
        return {key: poly for key, poly in self.entries.items() if not poly.is_zero}

    def is_trivially_satisfied(self) -> bool:
        return not self.nonzero_entries()


# Hand-entered term tables.  Entry layout:
#   (a_pow, b_pow, coefficient polynomial in (p, q),
#    u exponent as slope*p + shift, v exponent as slope*q + shift)
_PowEntry = tuple[int, int, Poly2, int, int, int, int]

_JACOBIAN_POWER_TABLE: tuple[_PowEntry, ...] = (
    (1, 2, _P * _Q * (-_Q + _Q**2 + _P * _Q - _P * _Q**2), 1, 1, 2, 0),
    (3, 2, _P * _Q * (-2 * _Q - _P * _Q + 2 * _Q**2 + _P * _Q**2), 3, 1, 2, 0),
    (5, 2, _P * _Q * (-_Q - 2 * _P * _Q + _Q**2 + 2 * _P * _Q**2), 5, 1, 2, 0),
    (1, 4, _P * _Q * (-_Q + _P * _Q - 2 * _Q**2 + 2 * _P * _Q**2), 1, 1, 4, 0),
    (3, 4, _P * _Q * (-_Q - _P * _Q - 2 * _Q**2 - 4 * _P * _Q**2), 3, 1, 4, 0),
    (2, 1, _P * _Q * (_P - _P**2 - _P * _Q + _P**2 * _Q), 2, 0, 1, 1),
    (2, 3, _P * _Q * (2 * _P - 2 * _P**2 + _P * _Q - _P**2 * _Q), 2, 0, 3, 1),
    (2, 5, _P * _Q * (_P - _P**2 + 2 * _P * _Q - 2 * _P**2 * _Q), 2, 0, 5, 1),
    (4, 1, _P * _Q * (_P + 2 * _P**2 - _P * _Q - 2 * _P**2 * _Q), 4, 0, 1, 1),
    (4, 3, _P * _Q * (_P + 2 * _P**2 + _P * _Q + 4 * _P**2 * _Q), 4, 0, 3, 1),
)

_KII_POWER_TABLE: tuple[_PowEntry, ...] = (
    (1, 0, 3 * _P - 1, 1, 0, 0, 1),
    (2, 1, 3 * _Q - 1, 2, 1, 1, 0),
    (3, 0, -_P - 1, 3, 0, 0, 1),
    (0, 1, 3 * _Q - 1, 0, 1, 1, 0),
    (1, 2, 3 * _P - 1, 1, 0, 2, 1),
    (0, 3, -_Q - 1, 0, 1, 3, 0),
)

_TABULATED = {"jacobian": _JACOBIAN_POWER_TABLE, "second_gaussian": _KII_POWER_TABLE}


def collect_terms(condition: Condition, p: Scalar, q: Scalar) -> TermTable:
    """Place each tabulated term of the chosen condition at its exact exponent
    pair for the given exponents, summing collisions."""
    p, q = Fraction(p), Fraction(q)
    table = TermTable(condition=condition, p=p, q=q)
    for a_pow, b_pow, coeff_pq, us, ush, vs, vsh in _TABULATED[condition]:
        scalar = coeff_pq.eval(p, q)
        key = (us * p + ush, vs * q + vsh)
        term = Poly2.monomial(scalar, a_pow, b_pow)
        table.entries[key] = table.entries.get(key, Poly2.zero()) + term
    return table


# -- exact coefficient-constraint analysis -----------------------------------


def _line_profile(poly: Poly2) -> dict:
    """Describe the nonzero-real solution set of one coefficient polynomial.

    Supported shapes: monomials (empty set) and binomials, whose solution
    set over (R \\ {0})^2 is computed exactly from a^m b^n = r form.
    Anything else is 'unknown' and can only contribute an UNSOLVED verdict.
    """
    terms = list(poly.terms.items())
    if len(terms) == 1:
        return {"empty": True, "lines": set(), "exact": True}
    if len(terms) == 2:
        (d1, e1), c1 = terms[0]
        (d2, e2), c2 = terms[1]
        m, n = d1 - d2, e1 - e2
        r = -c2 / c1  # a^m b^n = r on the zero set
        if m % 2 == 0 and n % 2 == 0 and r < 0:
            return {"empty": True, "lines": set(), "exact": True}
        if m == -n and m != 0:
            if r == 1:
                lines = {"equal", "opposite"} if m % 2 == 0 else {"equal"}
                return {"empty": False, "lines": lines, "exact": True}
            if r == -1:
                if m % 2 == 0:
                    return {"empty": True, "lines": set(), "exact": True}
                return {"empty": False, "lines": {"opposite"}, "exact": True}
        # Nonempty set that is not one of the two named lines.
        return {"empty": False, "lines": set(), "exact": False}
    return {"empty": False, "lines": set(), "exact": False}


def solve_coefficient_constraints(table: TermTable) -> ConstraintResult:
    """Decide which nonzero (a, b) satisfy every summed coefficient.

    The coefficients that arise from the two conditions are monomials or
    binomials in (a, b); their exact solution sets are intersected.  Shapes
    outside that family are reported UNSOLVED with the residual polynomials
    rather than guessed.
    """
    nonzero = list(table.nonzero_entries().values())
    if not nonzero:
        return ConstraintResult(ConstraintKind.ANY_AB)

    profiles = [_line_profile(p) for p in nonzero]
    if any(prof["empty"] for prof in profiles):
        return ConstraintResult(ConstraintKind.ONLY_TRIVIAL)

    exact = [prof for prof in profiles if prof["exact"]]
    if exact:
        allowed = {"equal", "opposite"}
        for prof in exact:
            allowed &= prof["lines"]
        if not allowed:
            # The exactly-known constraints already have no common family.
            return ConstraintResult(ConstraintKind.ONLY_TRIVIAL)
        if len(allowed) == 1 and len(exact) == len(profiles):
            line = allowed.pop()
            if line == "equal":
                return ConstraintResult(ConstraintKind.REQUIRES_EQUAL)
            return ConstraintResult(ConstraintKind.REQUIRES_OPPOSITE)
    return ConstraintResult(ConstraintKind.UNSOLVED, residuals=tuple(nonzero))


def scan_exponents(
    condition: Condition,
    p_range: list[Fraction],
    q_range: list[Fraction],
) -> list[tuple[Fraction, Fraction, ConstraintResult]]:
    """All (p, q) pairs from the given ranges whose condition is satisfiable
    by some nonzero (a, b), with the coefficient constraint, sorted.

    A zero exponent makes the corresponding generator constant and the
    surface a cylinder, for which both conditions vanish identically; those
    axes bypass the tabulated forms (see the module note on normalization).
    """
    results = []
    for p, q in itertools.product(p_range, q_range):
        p, q = Fraction(p), Fraction(q)
        if p == 0 or q == 0:
            results.append((p, q, ConstraintResult(ConstraintKind.ANY_AB)))
            continue
        outcome = solve_coefficient_constraints(collect_terms(condition, p, q))
        if outcome.kind is not ConstraintKind.ONLY_TRIVIAL:
            results.append((p, q, outcome))
    results.sort(key=lambda item: (item[0], item[1]))
    return results


# -- independent rederivation of the stored tables -----------------------------


class _PowerSum:
    """Formal sums c(p,q) * a^i b^j u^(s_u p + t_u) v^(s_v q + t_v).

    Minimal ring wrapper so the closed-form condition tables can be expanded
    with symbolic exponents; coefficients are Poly2 values in (p, q).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int, int, int], Poly2]):
        self.terms = {key: c for key, c in terms.items() if not c.is_zero}

    def __add__(self, other: _PowerSum) -> _PowerSum:
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(out, key, coeff)
        return _PowerSum(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return _PowerSum({k: c * other for k, c in self.terms.items()})
        out: dict[tuple[int, int, int, int, int, int], Poly2] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                accumulate(out, tuple(x + y for x, y in zip(k1, k2)), c1 * c2)
        return _PowerSum(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> _PowerSum:
        result = _PowerSum({(0, 0, 0, 0, 0, 0): Poly2.const(1)})
        for _ in range(n):
            result = result * self
        return result


def _power_generator_symbols() -> tuple[_PowerSum, ...]:
    """(alpha, beta, alpha', beta', alpha'', beta'') for alpha = a u^p,
    beta = b v^q under the formal power rule."""
    one = Poly2.const(1)

    def term(a_pow, b_pow, coeff, us, ush, vs, vsh):
        return _PowerSum({(a_pow, b_pow, us, ush, vs, vsh): coeff})

    al = term(1, 0, one, 1, 0, 0, 0)
    alp = term(1, 0, _P, 1, -1, 0, 0)
    alpp = term(1, 0, _P * _P - _P, 1, -2, 0, 0)
    be = term(0, 1, one, 0, 0, 1, 0)
    bep = term(0, 1, _Q, 0, 0, 1, -1)
    bepp = term(0, 1, _Q * _Q - _Q, 0, 0, 1, -2)
    return al, be, alp, bep, alpp, bepp


def _derived_power_table(condition: Condition) -> dict:
    return expand_condition_terms(_CONDITION_TABLES[condition], *_power_generator_symbols()).terms


def _tabulated_as_power_sum(condition: Condition) -> dict:
    """The stored table, un-normalized back to the raw condition:

    * the Weingarten table was shifted by u^-3 v^-3;
    * the K_II table additionally had the factor a b p q removed.
    """
    out: dict[tuple[int, int, int, int, int, int], Poly2] = {}
    for a_pow, b_pow, coeff, us, ush, vs, vsh in _TABULATED[condition]:
        if condition == "jacobian":
            key = (a_pow, b_pow, us, ush - 3, vs, vsh - 3)
        else:
            key = (a_pow + 1, b_pow + 1, us + 1, ush - 2, vs + 1, vsh - 2)
            coeff = coeff * _P * _Q
        accumulate(out, key, coeff)
    return out


def power_tables_consistent(condition: Condition) -> bool:
    """Exact term-by-term agreement of the stored table with the brute-force
    rederivation from the closed-form condition polynomials."""
    return _derived_power_table(condition) == _tabulated_as_power_sum(condition)


def condition_value(gen: PowerGenerators, condition: Condition, u: float, v: float) -> float:
    """Floating-point value of the raw (un-normalized) condition at a point
    with u, v > 0, for numeric spot checks of satisfying (p, q, a, b)."""
    if u <= 0 or v <= 0:
        raise ValueError("power-law surfaces are evaluated on u, v > 0")
    a, b = float(gen.a), float(gen.b)
    p, q = float(gen.p), float(gen.q)
    al = a * u**p
    alp = a * p * u ** (p - 1)
    alpp = a * p * (p - 1) * u ** (p - 2)
    be = b * v**q
    bep = b * q * v ** (q - 1)
    bepp = b * q * (q - 1) * v ** (q - 2)
    return expand_condition_terms(_CONDITION_TABLES[condition], al, be, alp, bep, alpp, bepp)
