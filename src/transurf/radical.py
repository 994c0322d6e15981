"""Polynomial combinations of half-integer powers of one base polynomial.

A value is a finite sum ``sum_k  p_k * D^(k/2)`` where every ``p_k`` is an
exact :class:`~transurf.poly.Poly2` and D is the shared base polynomial
``1 + alpha^2 + beta^2`` of one fixed surface, so D >= 1 everywhere and the
positive square root is unambiguous.  Exponents are stored doubled (the
integer k) so exponent arithmetic never leaves the integers.

This algebra is closed under ring operations and partial differentiation,
which is exactly what is needed to manipulate the mean and Gaussian
curvature of a translation surface without ever leaving exact arithmetic.
Zero testing goes through :meth:`RadExpr.as_cleared_numerator`: after
clearing to a common power, a value is zero iff both the integer-power and
the half-power components vanish identically, because sqrt(D) is not a
rational function for the nondegenerate bases used here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .poly import Poly2, Scalar, accumulate

Coefficient = Union[int, Fraction, Poly2]


class DeltaMismatchError(ValueError):
    """Raised when combining values that live over different base polynomials."""


class RadExpr:
    __slots__ = ("delta", "terms")

    def __init__(self, delta: Poly2, terms: Mapping[int, Coefficient] | None = None):
        clean: dict[int, Poly2] = {}
        if terms:
            for exp2, coeff in terms.items():
                poly = coeff if isinstance(coeff, Poly2) else Poly2.const(coeff)
                if not poly.is_zero:
                    clean[int(exp2)] = poly
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RadExpr is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, delta: Poly2) -> RadExpr:
        return cls(delta)

    @classmethod
    def from_poly(cls, delta: Poly2, p: Poly2 | Scalar) -> RadExpr:
        return cls(delta, {0: p if isinstance(p, Poly2) else Poly2.const(p)})

    @classmethod
    def power(cls, delta: Poly2, exp2: int) -> RadExpr:
        """The value D^(exp2/2)."""
        return cls(delta, {exp2: Poly2.const(1)})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: RadExpr) -> None:
        if self.delta != other.delta:
            raise DeltaMismatchError(
                "cannot combine radical expressions from incompatible surfaces"
            )

    def __add__(self, other: RadExpr | Coefficient) -> RadExpr:
        if not isinstance(other, RadExpr):
            other = RadExpr.from_poly(self.delta, other)
        self._check(other)
        out = dict(self.terms)
        for exp2, poly in other.terms.items():
            accumulate(out, exp2, poly)
        return RadExpr(self.delta, out)

    __radd__ = __add__

    def __neg__(self) -> RadExpr:
        return RadExpr(self.delta, {e: -p for e, p in self.terms.items()})

    def __sub__(self, other: RadExpr | Coefficient) -> RadExpr:
        if not isinstance(other, RadExpr):
            other = RadExpr.from_poly(self.delta, other)
        return self + (-other)

    def __mul__(self, other: RadExpr | Coefficient) -> RadExpr:
        if not isinstance(other, RadExpr):
            poly = other if isinstance(other, Poly2) else Poly2.const(other)
            return RadExpr(self.delta, {e: p * poly for e, p in self.terms.items()})
        self._check(other)
        out: dict[int, Poly2] = {}
        for e1, p1 in self.terms.items():
            for e2, p2 in other.terms.items():
                accumulate(out, e1 + e2, p1 * p2)
        return RadExpr(self.delta, out)

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------

    def diff(self, var: str) -> RadExpr:
        """Partial derivative; uses d(D^s)/dx = s * D^(s-1) * dD/dx."""
        d_delta = self.delta.diff(var)
        out: dict[int, Poly2] = {}
        for exp2, poly in self.terms.items():
            accumulate(out, exp2, poly.diff(var))
            accumulate(out, exp2 - 2, poly * d_delta * Fraction(exp2, 2))
        return RadExpr(self.delta, out)

    # -- normal form and zero test -------------------------------------------

    def as_cleared_numerator(self) -> tuple[Poly2, Poly2, int]:
        """Write the value as ``(n_even + n_odd * sqrt(D)) * D^k_min``.

        ``k_min`` is an integer chosen so that both components are plain
        polynomials.  The value is identically zero iff both components are
        identically zero: D >= 1 everywhere and sqrt(D) is irrational over
        the polynomial ring whenever D is not a perfect square, so the two
        parity components cannot cancel each other.
        """
        if not self.terms:
            return Poly2.zero(), Poly2.zero(), 0
        low = min(self.terms)
        base2 = low if low % 2 == 0 else low - 1
        n_even = Poly2.zero()
        n_odd = Poly2.zero()
        for exp2, poly in self.terms.items():
            shift = exp2 - base2
            if shift % 2 == 0:
                n_even = n_even + poly * self.delta ** (shift // 2)
            else:
                n_odd = n_odd + poly * self.delta ** ((shift - 1) // 2)
        return n_even, n_odd, base2 // 2

    @property
    def is_zero(self) -> bool:
        if not self.terms:
            return True
        n_even, n_odd, _ = self.as_cleared_numerator()
        return n_even.is_zero and n_odd.is_zero

    # -- evaluation ------------------------------------------------------------

    def evalf(self, u: float, v: float) -> float:
        """Floating-point value using the real positive square root of D."""
        d = self.delta.evalf(u, v)
        if d <= 0:
            raise ValueError(f"base polynomial not positive at ({u}, {v})")
        root = d**0.5
        total = 0.0
        for exp2, poly in self.terms.items():
            total += poly.evalf(u, v) * root ** float(exp2)
        return total

    def eval_exact(self, u: Scalar, v: Scalar) -> Fraction:
        """Exact rational value; requires every stored exponent to be an integer power."""
        total = Fraction(0)
        d = self.delta.eval(u, v)
        for exp2, poly in self.terms.items():
            if exp2 % 2 != 0:
                raise ValueError("exact evaluation needs integer powers of the base only")
            total += poly.eval(u, v) * d ** (exp2 // 2)
        return total

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadExpr):
            return NotImplemented
        if self.delta != other.delta:
            return False
        return (self - other).is_zero

    __hash__ = None  # mathematical equality is not hash-compatible

    def __repr__(self) -> str:
        if not self.terms:
            return "RadExpr(0)"
        parts = [
            f"({poly}) * D^({Fraction(exp2, 2)})" if exp2 else f"({poly})"
            for exp2, poly in sorted(self.terms.items(), reverse=True)
        ]
        return "RadExpr(" + " + ".join(parts) + ")"
