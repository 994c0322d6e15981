"""Shared hypothesis strategies for the exact-algebra tests.

Random polynomials are kept small on purpose (degrees <= 4, coefficients in
[-3, 3], few terms): the condition expansions grow quickly and the point of
the property tests is exactness, not stress.
"""

from fractions import Fraction

from hypothesis import strategies as st

from transurf.poly import Poly2

fractions_small = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=2),
)

exponent_pairs = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
)

poly2s = st.dictionaries(exponent_pairs, fractions_small, max_size=6).map(Poly2)


def univariate(var: str, max_degree: int = 4):
    """Strategy for a univariate Poly2 in 'u' or 'v'."""
    builder = Poly2.from_u_coeffs if var == "u" else Poly2.from_v_coeffs
    return st.lists(fractions_small, min_size=1, max_size=max_degree + 1).map(builder)


# Generator coefficients for the exact-kernel properties: zero allowed,
# denominators up to 5, and lists from empty (the zero generator) up to
# degree 6.
fractions_wide = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=5),
)


def generator(var: str, max_degree: int = 6):
    """Strategy for a generator derivative in 'u' or 'v', possibly zero or constant."""
    from_coeffs = Poly2.from_u_coeffs if var == "u" else Poly2.from_v_coeffs
    return st.lists(fractions_wide, max_size=max_degree + 1).map(from_coeffs)
