"""Exact sparse bivariate polynomials over the rationals.

A polynomial in the two surface parameters u and v is stored as a map from
exponent pairs ``(i, j)`` to nonzero ``Fraction`` coefficients; the empty map
is the zero polynomial.  The representation is canonical (no zero
coefficients are ever stored), so structural equality is mathematical
equality and "is this identically zero" is a trivial check.  All arithmetic
is exact -- coefficients are arbitrary-precision rationals and nothing is
ever rounded.

Values are immutable once constructed and safe to share freely.  Products
and floating-point evaluation work on a private integer form of the
coefficients (all numerators over one common denominator), built once per
polynomial the first time it is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

_VAR_INDEX = {"u": 0, "v": 1}


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class Poly2:
    """Bivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms", "_int_form")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), coeff in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair {(i, j)}")
                c = _coerce(coeff)
                if c != 0:
                    clean[(i, j)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly2:
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> Poly2:
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, coeff: Scalar, i: int, j: int) -> Poly2:
        return cls({(i, j): coeff})

    @classmethod
    def var_u(cls) -> Poly2:
        return cls({(1, 0): 1})

    @classmethod
    def var_v(cls) -> Poly2:
        return cls({(0, 1): 1})

    @classmethod
    def from_u_coeffs(cls, coeffs: Iterable[Scalar]) -> Poly2:
        """Univariate polynomial in u from its coefficient list, low degree first."""
        return cls({(k, 0): c for k, c in enumerate(coeffs)})

    @classmethod
    def from_v_coeffs(cls, coeffs: Iterable[Scalar]) -> Poly2:
        """Univariate polynomial in v from its coefficient list, low degree first."""
        return cls({(0, k): c for k, c in enumerate(coeffs)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Poly2 | Scalar) -> Poly2:
        if not isinstance(other, Poly2):
            other = Poly2.const(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            old = out.get(key)
            if old is None:
                out[key] = coeff
                continue
            new = old + coeff
            if new:
                out[key] = new
            else:
                del out[key]
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> Poly2:
        return _raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: Poly2 | Scalar) -> Poly2:
        if not isinstance(other, Poly2):
            other = Poly2.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Poly2:
        return Poly2.const(other) - self

    def __mul__(self, other: Poly2 | Scalar) -> Poly2:
        if not isinstance(other, Poly2):
            c = _coerce(other)
            if c == 0:
                return Poly2.zero()
            return _raw({key: coeff * c for key, coeff in self.terms.items()})
        d1, n1 = _cleared(self)
        d2, n2 = _cleared(other)
        # Pack (i, j) as i * width + j so the inner loop adds ints, not tuples.
        width = max(j for _, j in n1) + max(j for _, j in n2) + 1 if n1 and n2 else 1
        packed2 = [(i * width + j, c) for (i, j), c in n2.items()]
        out: dict[int, int] = {}
        get = out.get
        for (i1, j1), c1 in n1.items():
            k1 = i1 * width + j1
            for k2, c2 in packed2:
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        den = d1 * d2
        return _raw({divmod(key, width): Fraction(n, den) for key, n in out.items() if n})

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> Poly2:
        c = _coerce(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, n: int) -> Poly2:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly2.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def diff(self, var: str) -> Poly2:
        """Formal partial derivative with respect to 'u' or 'v'."""
        axis = _VAR_INDEX[var]
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), coeff in self.terms.items():
            e = (i, j)[axis]
            if e == 0:
                continue
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            out[key] = out.get(key, Fraction(0)) + coeff * e
        return _raw({k: c for k, c in out.items() if c})

    def eval(self, u: Scalar, v: Scalar) -> Fraction:
        """Exact rational value at a rational point."""
        uu, vv = _coerce(u), _coerce(v)
        total = Fraction(0)
        for (i, j), coeff in self.terms.items():
            total += coeff * uu**i * vv**j
        return total

    def evalf(self, u: float, v: float) -> float:
        """Value at a point, rounded once.

        A finite float is a dyadic rational, so the sum is formed exactly in
        integers and only the final quotient is rounded; cancellation between
        large terms costs no precision.  Non-finite inputs are summed in
        floating point.
        """
        if not (math.isfinite(u) and math.isfinite(v)):
            total = 0.0
            for (i, j), coeff in self.terms.items():
                total += float(coeff) * u**i * v**j
            return total
        if not self.terms:
            return 0.0
        den, nums = _cleared(self)
        uq, vq = Fraction(u), Fraction(v)
        ua, ub = uq.numerator, uq.denominator
        va, vb = vq.numerator, vq.denominator
        du = max(i for i, _ in nums)
        dv = max(j for _, j in nums)
        # u^i v^j = ua^i ub^(du-i) va^j vb^(dv-j) / (ub^du vb^dv)
        u_pows = {i: ua**i * ub ** (du - i) for i in {i for i, _ in nums}}
        v_pows = {j: va**j * vb ** (dv - j) for j in {j for _, j in nums}}
        rows: dict[int, int] = {}
        for (i, j), n in nums.items():
            rows[i] = rows.get(i, 0) + n * v_pows[j]
        total = sum(u_pows[i] * row for i, row in rows.items())
        try:
            return total / (den * ub**du * vb**dv)
        except OverflowError:
            return math.inf if total > 0 else -math.inf

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(i + j for i, j in self.terms)
        axis = _VAR_INDEX[var]
        return max(key[axis] for key in self.terms)

    def depends_on(self, var: str) -> bool:
        axis = _VAR_INDEX[var]
        return any(key[axis] > 0 for key in self.terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly2({self.to_str()})"

    def to_str(self, names: tuple[str, str] = ("u", "v")) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True):
            coeff = self.terms[(i, j)]
            factors = []
            for name, e in zip(names, (i, j)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        text = parts[0]
        for part in parts[1:]:
            text += " - " + part[1:] if part.startswith("-") else " + " + part
        return text


def _raw(terms: dict[tuple[int, int], Fraction]) -> Poly2:
    """Build a Poly2 from an already-canonical term map without re-checking."""
    p = object.__new__(Poly2)
    object.__setattr__(p, "terms", terms)
    return p


def _cleared(p: Poly2) -> tuple[int, dict[tuple[int, int], int]]:
    """``(d, nums)`` with ``p.terms[key] == nums[key] / d``, where d is the
    least common denominator; computed once and kept on the polynomial."""
    try:
        return p._int_form
    except AttributeError:
        pass
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    cleared = (den, {key: c.numerator * (den // c.denominator) for key, c in p.terms.items()})
    object.__setattr__(p, "_int_form", cleared)
    return cleared


def accumulate(out: dict, key, poly: Poly2) -> None:
    """Add ``poly`` into ``out[key]``; a slot that cancels to zero is dropped,
    so ``out`` never holds a zero polynomial."""
    merged = out[key] + poly if key in out else poly
    if merged.is_zero:
        out.pop(key, None)
    else:
        out[key] = merged


def proportional_ratio(p: Poly2, q: Poly2) -> Fraction | None:
    """Return the constant r with p == r * q, or None if no such constant exists.

    Both inputs must be nonzero; the comparison is exact.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("proportionality is only defined for nonzero polynomials")
    if set(p.terms) != set(q.terms):
        return None
    items = iter(p.terms.items())
    key, coeff = next(items)
    ratio = coeff / q.terms[key]
    for key, coeff in items:
        if coeff != ratio * q.terms[key]:
            return None
    return ratio


def antiderivative(p: Poly2, var: str) -> Poly2:
    """Exact antiderivative in one variable with zero constant of integration."""
    axis = _VAR_INDEX[var]
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), coeff in p.terms.items():
        e = (i, j)[axis]
        key = (i + 1, j) if axis == 0 else (i, j + 1)
        out[key] = coeff / (e + 1)
    return _raw(out)
