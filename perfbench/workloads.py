"""Seeded inputs and timed operations of the three benchmark workloads.

A workload runs in rounds.  A round is a fixed schedule of surface kinds;
the coefficients and parameters of its surfaces are drawn from a generator
keyed by (workload, seed, round index), so the same seed gives the same
inputs, every round has the same make-up, and no surface repeats between
rounds.  An op handles one surface and reaches the program only through the
public functions of its modules, looked up at call time so that a tracer
can wrap them.

Import this module after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import transurf.classify as tclassify
import transurf.cli as tcli
import transurf.curvature as tcurvature
import transurf.expr as texpr
from transurf.gallery import gallery
import transurf.mesh as tmesh
import transurf.numeric as tnumeric
import transurf.poly as tpoly


def round_rng(workload: str, seed: int, round_index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _fraction(rng: random.Random) -> Fraction:
    """A nonzero rational in [-6, 6] with denominator 1 or 2, as in the verify
    corpora but never zero, so that a degree fixes the number of terms and an
    op's cost depends little on the draw."""
    return Fraction(rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]), rng.randint(1, 2))


def _derivative_coeffs(rng: random.Random, degree: int) -> list[Fraction]:
    """Coefficients (low degree first) of a generator derivative of exact degree."""
    return [_fraction(rng) for _ in range(degree + 1)]


def poly_text(derivative: list[Fraction], var: str, constant: Fraction) -> str:
    """Source text of constant + the antiderivative of sum c_k var^k."""
    terms = [(c / (k + 1), k + 1) for k, c in enumerate(derivative)]
    terms.append((constant, 0))
    parts = []
    for c, e in sorted(terms, key=lambda t: -t[1]):
        if c == 0:
            continue
        body = str(abs(c)) if e == 0 else f"{abs(c)}*{var}" + (f"^{e}" if e > 1 else "")
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _generator_pair(rng: random.Random, m: int, n: int, equal_slopes: bool):
    alpha = _derivative_coeffs(rng, m)
    beta = _derivative_coeffs(rng, n)
    if equal_slopes:
        beta = [beta[0], alpha[1]]
    return alpha, beta


# -- classify_corpus ---------------------------------------------------------------

# Every degree pair of (f', g') in {0..4}^2 plus two equal-slope paraboloids:
# constant generators, paraboloids and generic pairs, as in the verify corpus.
CLASSIFY_SCHEDULE = [(m, n, False) for m in range(5) for n in range(5)] + [(1, 1, True)] * 2


@dataclass(frozen=True)
class ClassifyItem:
    m: int
    n: int
    alpha: list  # coefficients of f', low degree first
    beta: list
    f_text: str
    g_text: str


@dataclass
class ClassifyOutput:
    exit_code: int
    stdout: str
    kii: object
    lw0: object


def classify_round(seed: int, round_index) -> list[ClassifyItem]:
    rng = round_rng("classify_corpus", seed, round_index)
    items = []
    for m, n, equal in CLASSIFY_SCHEDULE:
        alpha, beta = _generator_pair(rng, m, n, equal)
        f_text = poly_text(alpha, "u", _fraction(rng))
        g_text = poly_text(beta, "v", _fraction(rng))
        items.append(ClassifyItem(m, n, alpha, beta, f_text, g_text))
    return items


def classify_op(item: ClassifyItem) -> ClassifyOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # The "=" form, since a value may start with "-".
        code = tcli.main(["classify", f"--f={item.f_text}", f"--g={item.g_text}"])
    alpha = texpr.expr_to_poly(texpr.parse_expr(item.f_text)).diff("u")
    beta = texpr.expr_to_poly(texpr.parse_expr(item.g_text)).diff("v")
    gen = tcurvature.PolyGenerators(alpha, beta)
    return ClassifyOutput(code, buf.getvalue(), tclassify.classify_kii(gen), tclassify.lw0_symbolic(gen))


# -- cross_check ---------------------------------------------------------------------

# (m, n, kind): a flat and a paraboloid surface, whose condition vanishes,
# then generic pairs up to degree (5, 6).  Four cheaper and four dearer
# surfaces sit around five of degree (3, 3), so the median op of a run falls
# inside one cluster of like surfaces.
CROSS_SCHEDULE = [
    (0, 3, "flat"),
    (1, 1, "paraboloid"),
    (1, 2, "generic"),
    (2, 2, "generic"),
    (3, 3, "generic"),
    (3, 3, "generic"),
    (3, 3, "generic"),
    (3, 3, "generic"),
    (3, 3, "generic"),
    (3, 4, "generic"),
    (2, 6, "generic"),
    (4, 4, "generic"),
    (5, 6, "generic"),
]
CROSS_POINTS = 12  # curvature evaluation points per surface


@dataclass(frozen=True)
class CrossItem:
    m: int
    n: int
    kind: str
    alpha: list
    beta: list
    f_text: str
    g_text: str
    points: list  # dyadic points k/64 in [-1.5, 1.5]^2, exact as floats


@dataclass
class CrossOutput:
    direct: object
    n_even: object
    n_odd: object
    kii: object
    symbolic: list
    numeric: list


def cross_round(seed: int, round_index) -> list[CrossItem]:
    rng = round_rng("cross_check", seed, round_index)
    items = []
    for m, n, kind in CROSS_SCHEDULE:
        alpha, beta = _generator_pair(rng, m, n, kind == "paraboloid")
        f_text = poly_text(alpha, "u", Fraction(0))
        g_text = poly_text(beta, "v", Fraction(0))
        points = [(rng.randint(-96, 96) / 64, rng.randint(-96, 96) / 64) for _ in range(CROSS_POINTS)]
        items.append(CrossItem(m, n, kind, alpha, beta, f_text, g_text, points))
    return items


def cross_op(item: CrossItem) -> CrossOutput:
    gen = tcurvature.PolyGenerators(
        tpoly.Poly2.from_u_coeffs(item.alpha), tpoly.Poly2.from_v_coeffs(item.beta)
    )
    f = texpr.parse_expr(item.f_text)
    g = texpr.parse_expr(item.g_text)
    direct = tcurvature.jacobian_direct(gen)
    n_even, n_odd = tcurvature.jacobian_derived(gen)
    kii = tcurvature.kii_numerator(gen)
    symbolic = [tnumeric.eval_curvatures_symbolic(gen, p) for p in item.points]
    numeric = [tnumeric.eval_curvatures(f, g, p) for p in item.points]
    return CrossOutput(direct, n_even, n_odd, kii, symbolic, numeric)


# -- numeric_grid ----------------------------------------------------------------------

WEINGARTEN_N = 9   # Weingarten test grid per side
SAMPLE_N = 9       # curvature samples per side, fed to lw_fit
ORACLE_POINTS = 3  # kii_oracle points per surface
MESH_N = 30        # OBJ vertices per side

# Gallery families, then compositions whose block kinds are fixed per slot
# (only their constants are drawn), so every round has the same tree shapes.
CYLINDER_BLOCKS = ("sin", "exp")
COMPOSITIONS = [
    (("sin",), ("exp",)),
    (("log", "cos"), ("sqrt", "xpow")),
    (("pow", "sin"), ("logcos", "exp")),
    (("expsin", "sqrt"), ("sin", "log")),
    (("cos", "exp", "log"), ("pow", "expsin")),
    (("xpow", "logcos", "sin"), ("sqrt", "cos", "exp")),
]
NUMERIC_SCHEDULE = ["scherk", "cmc", "cylinder", "paraboloid", "blair"] + COMPOSITIONS


@dataclass(frozen=True)
class NumericItem:
    family: str
    f: object          # Expr the program sees
    g: object
    f_fn: Callable     # plain-Python closure of the same function, built beside it
    g_fn: Callable
    rect: tuple
    value: float | None  # h0 for cmc, a for the paraboloid
    oracle_points: list


@dataclass
class NumericOutput:
    weingarten: object
    samples: list
    fit: object
    oracle: list
    mesh: object


def _q(rng: random.Random, lo: int, hi: int, den: int = 4) -> Fraction:
    """A nonzero rational k/den with lo <= k <= hi."""
    k = 0
    while k == 0:
        k = rng.randint(lo, hi)
    return Fraction(k, den)


# Building blocks of compositions: source text and a closure of the same
# function.  Every argument of log, sqrt and a fractional power is positive
# for x > 0 because a, b > 0.
def _block(rng: random.Random, x: str, kind: str):
    a, b, w = _q(rng, 1, 8), _q(rng, 1, 8), _q(rng, -6, 6)
    af, bf, wf = float(a), float(b), float(w)
    if kind == "sin":
        return f"sin({a}*{x} + {b})", lambda t: math.sin(af * t + bf)
    if kind == "cos":
        return f"cos({a}*{x})", lambda t: math.cos(af * t)
    if kind == "exp":
        return f"exp({w}*{x})", lambda t: math.exp(wf * t)
    if kind == "log":
        return f"log({a}*{x} + {b})", lambda t: math.log(af * t + bf)
    if kind == "sqrt":
        return f"sqrt({a}*{x} + {b})", lambda t: math.sqrt(af * t + bf)
    if kind == "pow":
        p = rng.choice([Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(3, 2), Fraction(5, 2), Fraction(-1, 2)])
        pf = float(p)
        return f"({a}*{x} + {b})^({p})", lambda t: (af * t + bf) ** pf
    if kind == "expsin":
        return f"exp(sin({a}*{x}))", lambda t: math.exp(math.sin(af * t))
    if kind == "logcos":
        return f"log(2 + cos({a}*{x}))", lambda t: math.log(2 + math.cos(af * t))
    if kind == "xpow":
        p = rng.choice([Fraction(1, 3), Fraction(4, 3), Fraction(5, 2), Fraction(-2, 3)])
        pf = float(p)
        return f"{x}^({p})", lambda t: t ** pf
    raise ValueError(f"unknown block {kind!r}")


def _composition(rng: random.Random, x: str, kinds: tuple):
    """sum_i c_i * B_i(x) over the given block kinds, with seeded constants."""
    text, fns = "", []
    for kind in kinds:
        block_text, fn = _block(rng, x, kind)
        c = _q(rng, -8, 8)
        sign = "-" if c < 0 else ("+" if text else "")
        text += f"{' ' if text else ''}{sign}{' ' if text else ''}{abs(c)}*{block_text}"
        fns.append((float(c), fn))
    return text, lambda t: sum(c * fn(t) for c, fn in fns)


def _numeric_item(rng: random.Random, family) -> NumericItem:
    value = None
    if family == "scherk":
        # Integer scales up to 8 only: gallery("scherk") builds a wrong
        # surface for a rational a, and numeric_weingarten_test fails the
        # minimal surface from a = 16 on (see CHANGES.md).
        a = rng.randint(1, 8)
        af = float(a)
        surf = gallery("scherk", a=a)
        f_fn = lambda t: math.log(abs(math.cos(af * t))) / af
        g_fn = lambda t: -math.log(abs(math.cos(af * t))) / af
    elif family == "cmc":
        h0, a = _q(rng, 1, 6), _q(rng, -6, 6)
        surf = gallery("cmc", h0=h0, a=a)
        scale = float((1 + a * a) / (4 * h0 * h0)) ** 0.5
        k, af = float(4 * h0 * h0), float(a)
        f_fn = lambda t: scale * math.sqrt(1 - k * t * t)
        g_fn = lambda t: af * t
        value = float(abs(h0))
    elif family == "cylinder":
        text, f_fn = _composition(rng, "u", CYLINDER_BLOCKS)
        slope = _q(rng, -8, 8)
        sf = float(slope)
        surf = gallery("cylinder", f=text, slope=slope)
        g_fn = lambda t: sf * t
        rect = _positive_rect(rng)
        return NumericItem(family, surf.f, surf.g, f_fn, g_fn, rect, None, _oracle_points(rng, rect))
    elif family == "paraboloid":
        # A vertex with nonnegative coordinates only: gallery("paraboloid")
        # cannot parse its own text for a negative one (see CHANGES.md).
        a, u0, v0 = _q(rng, 1, 8), Fraction(rng.randint(0, 8), 4), Fraction(rng.randint(0, 8), 4)
        af, u0f, v0f = float(a), float(u0), float(v0)
        surf = gallery("paraboloid", a=a, u0=u0, v0=v0)
        f_fn = lambda t: af * (t - u0f) ** 2
        g_fn = lambda t: af * (t - v0f) ** 2
        value = af
    elif family == "blair":
        c = _q(rng, 1, 8)
        cf = float(c)
        surf = gallery("blair", c=c)
        f_fn = lambda t: cf * t ** (4 / 3)
        g_fn = lambda t: -cf * t ** (4 / 3)
    else:
        f_kinds, g_kinds = family
        family = "composition"
        f_text, f_fn = _composition(rng, "u", f_kinds)
        g_text, g_fn = _composition(rng, "v", g_kinds)
        rect = _positive_rect(rng)
        return NumericItem(family, texpr.parse_expr(f_text), texpr.parse_expr(g_text),
                           f_fn, g_fn, rect, None, _oracle_points(rng, rect))
    rect = surf.default_rect
    return NumericItem(family, surf.f, surf.g, f_fn, g_fn, rect, value, _oracle_points(rng, rect))


def _positive_rect(rng: random.Random) -> tuple:
    """A rectangle in u, v > 0, where every composition block is defined."""
    lo_u, lo_v = float(_q(rng, 1, 4, 5)), float(_q(rng, 1, 4, 5))
    return (lo_u, lo_u + float(_q(rng, 3, 8, 5)), lo_v, lo_v + float(_q(rng, 3, 8, 5)))


def _oracle_points(rng: random.Random, rect) -> list:
    umin, umax, vmin, vmax = rect
    return [(rng.uniform(umin, umax), rng.uniform(vmin, vmax)) for _ in range(ORACLE_POINTS)]


def numeric_round(seed: int, round_index) -> list[NumericItem]:
    rng = round_rng("numeric_grid", seed, round_index)
    return [_numeric_item(rng, family) for family in NUMERIC_SCHEDULE]


def numeric_op(item: NumericItem, mesh_path: str) -> NumericOutput:
    """Weingarten test, curvature samples and fit, oracle points, OBJ export."""
    f, g, rect = item.f, item.g, item.rect
    wt = tnumeric.numeric_weingarten_test(f, g, tnumeric.grid_points(rect, WEINGARTEN_N))
    samples = [tnumeric.eval_curvatures(f, g, p) for p in tnumeric.grid_points(rect, SAMPLE_N)]
    fit = tnumeric.lw_fit(samples)
    oracle = [tnumeric.kii_oracle(f, g, p) for p in item.oracle_points]
    stats = tmesh.write_mesh(f, g, rect, MESH_N, "obj", mesh_path)
    return NumericOutput(wt, samples, fit, oracle, stats)


@dataclass(frozen=True)
class Workload:
    make_round: Callable  # (seed, round_index) -> items
    warmup_kinds: tuple   # cheap schedule positions run once, untimed, during set-up


WORKLOADS = {
    "classify_corpus": Workload(classify_round, (0, 6)),
    "cross_check": Workload(cross_round, (0, 2)),
    "numeric_grid": Workload(numeric_round, (0, 5)),
}
