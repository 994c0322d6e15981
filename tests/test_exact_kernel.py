"""The integer exact kernel against plain rational references.

Products, the separable expansion of the condition tables and point
evaluation all work on integer coefficient lists internally; each must agree
exactly with the straightforward computation over ``Fraction``.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions_wide, generator
from transurf.curvature import (
    JACOBIAN_CONDITION_TERMS,
    SECOND_GAUSSIAN_NUMERATOR_TERMS,
    PolyGenerators,
    expand_condition_terms,
    jacobian_direct,
    kii_numerator,
)
from transurf.numeric import eval_curvatures_symbolic
from transurf.poly import Poly2

exponent_pairs = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)
wide_poly2s = st.dictionaries(exponent_pairs, fractions_wide, max_size=12).map(Poly2)
finite_floats = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


def dict_product(p: Poly2, q: Poly2) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in q.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


class TestIntegerProduct:
    @given(wide_poly2s, wide_poly2s)
    def test_matches_fraction_dict_product(self, p, q):
        product = p * q
        assert product.terms == dict_product(p, q)
        assert all(isinstance(c, Fraction) and c for c in product.terms.values())

    def test_high_v_degree_does_not_alias(self):
        p = Poly2({(0, 40): 1, (1, 0): Fraction(1, 3)})
        assert (p * p).terms == dict_product(p, p)


class TestSeparableExpansion:
    @settings(max_examples=60, deadline=None)
    @given(generator("u"), generator("v"))
    def test_both_tables_match_reference(self, alpha, beta):
        gen = PolyGenerators(alpha, beta)
        derivs = gen.derivatives()
        assert jacobian_direct(gen) == expand_condition_terms(JACOBIAN_CONDITION_TERMS, *derivs)
        assert kii_numerator(gen) == expand_condition_terms(
            SECOND_GAUSSIAN_NUMERATOR_TERMS, *derivs
        )


class TestBuiltOnce:
    def test_curvature_objects_are_kept(self):
        gen = PolyGenerators.from_coeffs([1, Fraction(1, 2), 3], [Fraction(-2, 3), 1])
        assert gen.delta() is gen.delta()
        assert gen.derivatives() is gen.derivatives()
        assert kii_numerator(gen) is kii_numerator(gen)
        assert gen.mean_curvature is gen.mean_curvature

    def test_equal_generators_stay_equal(self):
        a = PolyGenerators.from_coeffs([1, 2], [3, 4])
        b = PolyGenerators.from_coeffs([1, 2], [3, 4])
        kii_numerator(a)
        assert a == b and hash(a) == hash(b)

    def test_symbolic_points_share_one_numerator(self, monkeypatch):
        import transurf.curvature as curvature

        gen = PolyGenerators.from_coeffs([1, 2, 3], [4, 5])
        calls = []
        original = curvature._expand_separable
        monkeypatch.setattr(
            curvature, "_expand_separable", lambda *a: calls.append(1) or original(*a)
        )
        for point in [(0.5, 0.25), (-1.0, 0.75), (1.5, -1.25)]:
            assert eval_curvatures_symbolic(gen, point).K_II is not None
        assert len(calls) == 1


class TestExactEvaluation:
    @given(wide_poly2s, finite_floats, finite_floats)
    def test_evalf_is_the_rounded_exact_value(self, p, u, v):
        assert p.evalf(u, v) == float(p.eval(Fraction(u), Fraction(v)))

    def test_cancellation_costs_no_precision(self):
        # (u - 1)^12 expanded has coefficients up to 924; near u = 1 the
        # terms cancel to about 1e-36.
        p = Poly2.from_u_coeffs([-1, 1]) ** 12
        u = 1 + 2.0**-10
        assert p.evalf(u, 0.0) == 2.0**-120

    def test_non_finite_inputs(self):
        assert Poly2.const(2).evalf(math.inf, 0.0) == 2.0
        assert Poly2.var_u().evalf(math.inf, 1.0) == math.inf
        assert math.isnan(Poly2.var_u().evalf(math.nan, 1.0))

    def test_overflow_rounds_to_infinity(self):
        p = Poly2.monomial(-1, 200, 0)
        assert p.evalf(1e3, 0.0) == -math.inf
        assert Poly2.zero().evalf(2.0, 3.0) == 0.0
