"""Named verification suites over the whole toolkit.

Each check reruns one of the reproducible results at pinned tolerances and
returns a deterministic report dict (fixed seed, seed echoed in the
report).  The CLI exposes them as ``verify <target>`` and the acceptance
tests call the same functions, so the command line and the test suite can
never drift apart.

Verify targets (opaque names, fixed interface):

* ``eq6``   -- the two Weingarten-condition constructions agree exactly on a
  random corpus, and symbolic vs numeric curvature evaluation agrees.
* ``thm1``  -- classification matches the degree case table on a corpus.
* ``eq1``   -- the paraboloid curvature relation has exact zero residual.
* ``thmA``  -- the minimal gallery surface has H == 0 numerically.
* ``thmC``  -- the constant-mean-curvature surface has |H| == h0.
* ``thm2``  -- linear-relation fits and the symbolic decision.
* ``thm3``  -- vanishing second Gaussian curvature iff flat, ratio diagnostic.
* ``blair`` -- the fractional-power surface has vanishing second curvature.
* ``eq15``  -- exponent scan of the second-curvature condition.
* ``eq17``  -- exponent scan of the Weingarten condition.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from .classify import (
    SurfaceClass,
    classify_kii,
    classify_pt,
    lw0_symbolic,
    LWOutcome,
    relation1_residual,
)
from .curvature import PolyGenerators, jacobian_derived, jacobian_direct, kii_numerator
from .expr import poly_to_expr
from .gallery import gallery
from .numeric import (
    eval_curvatures,
    eval_curvatures_symbolic,
    grid_points,
    kii_oracle,
    lw_fit,
    numeric_weingarten_test,
)
from .poly import Poly2, antiderivative, proportional_ratio
from .powerlaw import (
    ConstraintKind,
    PowerGenerators,
    condition_value,
    power_tables_consistent,
    scan_exponents,
)

DEFAULT_GRID = [Fraction(k, 3) for k in range(-3, 7)]


def _random_fraction(rng: random.Random) -> Fraction:
    # Rational coefficients in [-3, 3] with small denominators.
    return Fraction(rng.randint(-6, 6), rng.randint(1, 2))


def _random_generators(rng: random.Random, m: int, n: int) -> PolyGenerators:
    """Random generator pair with exact degrees m and n."""

    def coeffs(degree: int) -> list[Fraction]:
        cs = [_random_fraction(rng) for _ in range(degree + 1)]
        while cs[-1] == 0:
            cs[-1] = _random_fraction(rng)
        return cs

    return PolyGenerators(
        Poly2.from_u_coeffs(coeffs(m)), Poly2.from_v_coeffs(coeffs(n))
    )


# -- individual checks -----------------------------------------------------------


def check_oracle_equivalence(seed: int = 0, samples: int = 50) -> dict:
    """The derived Weingarten condition equals one global rational multiple of
    a fixed power of D times the closed form, across a random corpus; exact."""
    rng = random.Random(seed)
    ratio = None
    power = None
    checked = 0
    degenerate = 0
    for _ in range(samples):
        gen = _random_generators(rng, rng.randint(0, 4), rng.randint(0, 4))
        direct = jacobian_direct(gen)
        n_even, n_odd = jacobian_derived(gen)
        if not n_even.is_zero:
            return {"passed": False, "reason": "integer-power component nonzero"}
        if direct.is_zero or n_odd.is_zero:
            if direct.is_zero != n_odd.is_zero:
                return {"passed": False, "reason": "zero sets disagree"}
            degenerate += 1
            continue
        delta = gen.delta()
        if power is None:
            d_deg = delta.degree()
            power = (n_odd.degree() - direct.degree()) // d_deg if d_deg > 0 else 0
            ratio = proportional_ratio(n_odd, delta**power * direct)
            if ratio is None:
                return {"passed": False, "reason": "first sample not proportional"}
        if n_odd != ratio * delta**power * direct:
            return {"passed": False, "reason": "global relation broken", "seed": seed}
        checked += 1
    return {
        "passed": checked > 0,
        "seed": seed,
        "samples": samples,
        "nondegenerate": checked,
        "degenerate": degenerate,
        "ratio": str(ratio),
        "delta_power": power,
    }


def check_cross_evaluation(seed: int = 0, surfaces: int = 10, points: int = 100) -> dict:
    """Symbolic vs floating-point evaluation of H and K agree to 1e-10."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(surfaces):
        gen = _random_generators(rng, rng.randint(1, 4), rng.randint(1, 4))
        f = poly_to_expr(antiderivative(gen.alpha, "u"))
        g = poly_to_expr(antiderivative(gen.beta, "v"))
        for _ in range(points):
            pt = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            numeric = eval_curvatures(f, g, pt)
            symbolic = eval_curvatures_symbolic(gen, pt)
            for x, y in ((numeric.H, symbolic.H), (numeric.K, symbolic.K)):
                worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return {"passed": worst < 1e-10, "seed": seed, "max_relative_difference": worst}


def _corpus(seed: int):
    """Classification corpus: every degree pair in {0..4}^2, 20 draws each;
    half of the (1,1) draws are forced to equal slopes."""
    rng = random.Random(seed)
    for m in range(5):
        for n in range(5):
            for draw in range(20):
                gen = _random_generators(rng, m, n)
                if m == 1 and n == 1 and draw % 2 == 0:
                    slope = gen.alpha.coefficient(1, 0)
                    beta = Poly2(
                        {(0, 1): slope, (0, 0): gen.beta.coefficient(0, 0)}
                    )
                    gen = PolyGenerators(gen.alpha, beta)
                yield m, n, gen


def check_classification_corpus(seed: int = 0) -> dict:
    """classify_pt agrees with the degree case table on the whole corpus."""
    total = 0
    for m, n, gen in _corpus(seed):
        got = classify_pt(gen.alpha, gen.beta).kind
        if min(m, n) == 0:
            want = SurfaceClass.CYLINDER_OR_PLANE
        elif (
            m == 1
            and n == 1
            and gen.alpha.coefficient(1, 0) == gen.beta.coefficient(0, 1)
        ):
            want = SurfaceClass.PARABOLOID_OF_REVOLUTION
        else:
            want = SurfaceClass.NOT_WEINGARTEN
        if got is not want:
            return {
                "passed": False,
                "seed": seed,
                "m": m,
                "n": n,
                "got": got.value,
                "want": want.value,
            }
        total += 1
    return {"passed": True, "seed": seed, "cases": total}


def check_paraboloid_relation(seed: int = 0) -> dict:
    """Exact zero residual of 8aH^2 = sqrt(K)(2a + sqrt(K))^2 on random
    paraboloids, plus the worked value 800/729."""
    rng = random.Random(seed)
    # Worked value first: a = 1 at (1, 1) has both sides equal to 800/729.
    a = Fraction(1)
    delta = Fraction(9)
    sqrt_k = 2 * a / delta
    rhs = sqrt_k * (2 * a + sqrt_k) ** 2
    if rhs != Fraction(800, 729):
        return {"passed": False, "reason": "worked value mismatch"}
    if relation1_residual(1, (1, 1)) != 0:
        return {"passed": False, "reason": "worked residual nonzero"}

    checked = 0
    for _ in range(10):
        a = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        u0, v0 = _random_fraction(rng), _random_fraction(rng)
        for _ in range(100):
            point = (_random_fraction(rng), _random_fraction(rng))
            if relation1_residual(a, point, u0, v0) != 0:
                return {"passed": False, "seed": seed, "a": str(a), "point": str(point)}
            checked += 1
    return {"passed": True, "seed": seed, "residuals_checked": checked}


def check_minimal_surface(seed: int = 0) -> dict:
    """The log-cosine minimal surface: max |H| < 1e-9 on a 21 x 21 grid over
    [-1.4, 1.4]^2 and the finite-difference Weingarten test passes at 1e-6."""
    surf = gallery("scherk", a=1)
    grid = grid_points((-1.4, 1.4, -1.4, 1.4), 21)
    max_h = max(abs(eval_curvatures(surf.f, surf.g, p).H) for p in grid)
    wt = numeric_weingarten_test(surf.f, surf.g, grid, tol=1e-6)
    return {
        "passed": max_h < 1e-9 and wt.passed,
        "max_abs_H": max_h,
        "jacobian_max_abs": wt.max_abs,
        "jacobian_passed": wt.passed,
    }


def check_cmc_surface(seed: int = 0) -> dict:
    """|H| == 1/2 with spread below 1e-7 on the constant-H gallery surface."""
    surf = gallery("cmc", h0=Fraction(1, 2), a=1)
    grid = grid_points((-0.9, 0.9, -0.9, 0.9), 21)
    values = [abs(eval_curvatures(surf.f, surf.g, p).H) for p in grid]
    mean = float(np.mean(values))
    std = float(np.std(values))
    return {
        "passed": abs(mean - 0.5) < 1e-6 and std < 1e-7,
        "mean_abs_H": mean,
        "std_abs_H": std,
    }


def check_lw_fit_families(seed: int = 0) -> dict:
    """Least-squares linear-relation fits: minimal surface -> pure-H relation,
    cylinder -> pure-K relation, paraboloid -> no linear relation."""
    scherk = gallery("scherk", a=1)
    grid = grid_points((-1.4, 1.4, -1.4, 1.4), 21)
    fit_minimal = lw_fit([eval_curvatures(scherk.f, scherk.g, p) for p in grid])

    cyl = gallery("cylinder", f="u^3")
    grid2 = grid_points((-1.0, 1.0, -1.0, 1.0), 21)
    fit_flat = lw_fit([eval_curvatures(cyl.f, cyl.g, p) for p in grid2])

    par = gallery("paraboloid", a=1)
    fit_par = lw_fit([eval_curvatures(par.f, par.g, p) for p in grid2])

    ok_minimal = (
        abs(fit_minimal.b) < 1e-6
        and abs(fit_minimal.c) < 1e-6
        and abs(abs(fit_minimal.a) - 1) < 1e-6
    )
    ok_flat = (
        abs(fit_flat.a) < 1e-6
        and abs(fit_flat.c) < 1e-6
        and abs(abs(fit_flat.b) - 1) < 1e-6
    )
    ok_par = fit_par.residual_rms > 1e-3
    return {
        "passed": ok_minimal and ok_flat and ok_par,
        "minimal_fit": (fit_minimal.a, fit_minimal.b, fit_minimal.c, fit_minimal.residual_rms),
        "flat_fit": (fit_flat.a, fit_flat.b, fit_flat.c, fit_flat.residual_rms),
        "paraboloid_residual_rms": fit_par.residual_rms,
    }


def check_lw_symbolic(seed: int = 0, samples: int = 50) -> dict:
    """Symbolic decision of 2aH + bK = 0: flat family exactly for a constant
    generator, no relation for nondegenerate random pairs."""
    rng = random.Random(seed)
    u = Poly2.var_u()
    v = Poly2.var_v()
    flat_cases = [
        PolyGenerators(Poly2.const(3), Poly2.from_v_coeffs([0, 0, 0, 0, 0, 1])),
        PolyGenerators(u * u, Poly2.const(-2)),
        PolyGenerators(Poly2.const(1), Poly2.const(5)),
    ]
    for gen in flat_cases:
        if lw0_symbolic(gen) is not LWOutcome.FLAT_FAMILY:
            return {"passed": False, "reason": "flat case misclassified"}
    if lw0_symbolic(PolyGenerators(u, v)) is not LWOutcome.NO_RELATION:
        return {"passed": False, "reason": "paraboloid generators misclassified"}
    for _ in range(samples):
        gen = _random_generators(rng, rng.randint(1, 4), rng.randint(1, 4))
        if lw0_symbolic(gen) is not LWOutcome.NO_RELATION:
            return {"passed": False, "seed": seed, "alpha": str(gen.alpha)}
    return {"passed": True, "seed": seed, "nondegenerate_samples": samples}


def check_kii_classification(seed: int = 0) -> dict:
    """Vanishing second-curvature numerator exactly on the flat corpus
    members; the unit paraboloid numerator is the constant 32."""
    u = Poly2.var_u()
    v = Poly2.var_v()
    num = kii_numerator(PolyGenerators(2 * u, 2 * v))
    if num != Poly2.const(32):
        return {"passed": False, "reason": f"paraboloid numerator {num}"}
    for m, n, gen in _corpus(seed):
        vanishes = classify_kii(gen).vanishes
        flat = classify_pt(gen.alpha, gen.beta).kind is SurfaceClass.CYLINDER_OR_PLANE
        if vanishes != (min(m, n) == 0) or vanishes != flat:
            return {"passed": False, "seed": seed, "m": m, "n": n}
    return {"passed": True, "seed": seed, "paraboloid_numerator": "32"}


def _spot_check_scan(condition: str, results, rng: random.Random) -> float:
    """Largest |condition value| over satisfying (p, q, a, b) picks."""
    worst = 0.0
    for p, q, outcome in results:
        if outcome.kind is ConstraintKind.ANY_AB:
            a, b = Fraction(3, 2), Fraction(-5, 4)
        elif outcome.kind is ConstraintKind.REQUIRES_EQUAL:
            a = b = Fraction(7, 4)
        elif outcome.kind is ConstraintKind.REQUIRES_OPPOSITE:
            a, b = Fraction(7, 4), Fraction(-7, 4)
        else:
            continue
        gen = PowerGenerators(a, b, Fraction(p), Fraction(q))
        for _ in range(10):
            u, v = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            worst = max(worst, abs(condition_value(gen, condition, u, v)))
    return worst


def _check_power_scan(condition: str, special_pair, kind: ConstraintKind, seed: int) -> dict:
    """Exponent scan of one condition over DEFAULT_GRID^2: exactly the two
    axis families plus ``special_pair`` with coefficient constraint ``kind``."""
    if not power_tables_consistent(condition):
        return {"passed": False, "reason": "stored table fails rederivation"}
    results = scan_exponents(condition, DEFAULT_GRID, DEFAULT_GRID)
    expected = {
        (p, q): ConstraintKind.ANY_AB
        for p in DEFAULT_GRID
        for q in DEFAULT_GRID
        if p == 0 or q == 0
    }
    expected[special_pair] = kind
    got = {(p, q): outcome.kind for p, q, outcome in results}
    spot = _spot_check_scan(condition, results, random.Random(seed))
    return {
        "passed": got == expected and spot < 1e-9,
        "seed": seed,
        "pairs_found": len(results),
        "special_pairs": sorted(
            f"({p}, {q})" for (p, q), kind in got.items() if kind is not ConstraintKind.ANY_AB
        ),
        "spot_check_max": spot,
    }


def check_kii_power_scan(seed: int = 0) -> dict:
    """Second-curvature scan over {k/3: k=-3..6}^2: (1/3, 1/3) with opposite coefficients."""
    pair = (Fraction(1, 3), Fraction(1, 3))
    return _check_power_scan("second_gaussian", pair, ConstraintKind.REQUIRES_OPPOSITE, seed)


def check_jacobian_power_scan(seed: int = 0) -> dict:
    """Weingarten-condition scan: (1, 1) with equal coefficients."""
    pair = (Fraction(1), Fraction(1))
    return _check_power_scan("jacobian", pair, ConstraintKind.REQUIRES_EQUAL, seed)


def check_blair_numeric(seed: int = 0) -> dict:
    """The fractional-power surface has second Gaussian curvature below 1e-6
    across [0.5, 2]^2, on both the closed-form route and the independent
    finite-difference oracle."""
    surf = gallery("blair", c=1)
    grid = grid_points((0.5, 2.0, 0.5, 2.0), 21)
    closed_max = max(abs(eval_curvatures(surf.f, surf.g, p).K_II) for p in grid)
    coarse = grid_points((0.5, 2.0, 0.5, 2.0), 7)
    oracle_values = [kii_oracle(surf.f, surf.g, p) for p in coarse]
    if any(val is None for val in oracle_values):
        return {"passed": False, "reason": "oracle undefined on the grid"}
    oracle_max = max(abs(val) for val in oracle_values)
    return {
        "passed": closed_max < 1e-6 and oracle_max < 1e-6,
        "closed_form_max": closed_max,
        "oracle_max": oracle_max,
    }


def check_kii_ratio_constancy(seed: int = 0) -> dict:
    """On each paraboloid, the ratio of the closed-form second curvature to
    the finite-difference oracle is constant across sample points; the
    measured constants are reported, not asserted."""
    rng = random.Random(seed)
    constants = {}
    for a in (Fraction(1), Fraction(1, 2), Fraction(2)):
        surf = gallery("paraboloid", a=a)
        ratios = []
        for _ in range(20):
            pt = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            closed = eval_curvatures(surf.f, surf.g, pt).K_II
            oracle = kii_oracle(surf.f, surf.g, pt)
            if oracle is None or oracle == 0:
                return {"passed": False, "reason": "oracle undefined"}
            ratios.append(closed / oracle)
        center = sum(ratios) / len(ratios)
        spread = max(abs(r - center) / abs(center) for r in ratios)
        if spread > 1e-4:
            return {"passed": False, "a": str(a), "relative_spread": spread}
        constants[str(a)] = center
    return {"passed": True, "seed": seed, "measured_ratios": constants}


CHECKS = {
    "oracle_equivalence": check_oracle_equivalence,
    "cross_evaluation": check_cross_evaluation,
    "classification_corpus": check_classification_corpus,
    "paraboloid_relation": check_paraboloid_relation,
    "minimal_surface": check_minimal_surface,
    "cmc_surface": check_cmc_surface,
    "lw_fit_families": check_lw_fit_families,
    "lw_symbolic": check_lw_symbolic,
    "kii_classification": check_kii_classification,
    "kii_power_scan": check_kii_power_scan,
    "jacobian_power_scan": check_jacobian_power_scan,
    "blair_numeric": check_blair_numeric,
    "kii_ratio_constancy": check_kii_ratio_constancy,
}

TARGETS = {
    "thm1": ("classification_corpus",),
    "thm2": ("lw_fit_families", "lw_symbolic"),
    "thm3": ("kii_classification", "kii_ratio_constancy"),
    "thmA": ("minimal_surface",),
    "thmC": ("cmc_surface",),
    "blair": ("blair_numeric",),
    "eq1": ("paraboloid_relation",),
    "eq6": ("oracle_equivalence", "cross_evaluation"),
    "eq15": ("kii_power_scan",),
    "eq17": ("jacobian_power_scan",),
}


def run_target(target: str, seed: int = 0, timings: bool = False) -> dict:
    """Run one verify target; returns {target, passed, checks: {...}}."""
    if target not in TARGETS:
        raise ValueError(f"unknown verify target {target!r}; known: {sorted(TARGETS)}")
    report: dict = {"target": target, "seed": seed, "checks": {}}
    passed = True
    for name in TARGETS[target]:
        start = time.perf_counter()
        result = CHECKS[name](seed)
        elapsed = time.perf_counter() - start
        if timings:
            result["elapsed_s"] = round(elapsed, 3)
        report["checks"][name] = result
        passed = passed and result["passed"]
    report["passed"] = passed
    return report


def run_all(seed: int = 0, timings: bool = False) -> dict:
    """Run every verify target; returns {passed, targets: {...}}."""
    start = time.perf_counter()
    reports = {target: run_target(target, seed, timings) for target in TARGETS}
    elapsed = time.perf_counter() - start
    out = {
        "passed": all(r["passed"] for r in reports.values()),
        "seed": seed,
        "targets": reports,
    }
    if timings:
        out["elapsed_s"] = round(elapsed, 3)
    return out
