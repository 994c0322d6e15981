"""Command-line interface for the translation-surface toolkit.

Subcommands::

    classify    exact classification of a polynomial surface
    curvature   H, K and second-curvature sample at one point
    weingarten  finite-difference Weingarten test on a rectangle
    lwfit       least-squares fit of a linear curvature relation
    scan        exponent scan for power-law generators
    mesh        OBJ / CSV export of the surface graph
    verify      named reproducibility suites (see `verify --help`)

Reports go to standard output as text; ``--out FILE`` additionally writes a
machine-readable JSON report.  Randomized suites take ``--seed`` (default 0)
and echo it, so identical invocations produce identical reports; timings are
included only with ``--timings``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .classify import SurfaceClass, classify_pt, relation1_residual
from .expr import NotPolynomialError, expr_to_poly, mentions, parse_expr
from .mesh import write_mesh
from .numeric import eval_curvatures, grid_points, lw_fit, numeric_weingarten_test
from .powerlaw import scan_exponents
from .verify import TARGETS, run_all, run_target


def _parse_rect(text: str) -> tuple[float, float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("rect must be umin,umax,vmin,vmax")
    umin, umax, vmin, vmax = parts
    if umin >= umax or vmin >= vmax:
        raise argparse.ArgumentTypeError("rect must have umin < umax and vmin < vmax")
    return umin, umax, vmin, vmax


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",") if part.strip()]


def _emit(report: dict, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def _parse_pair(args) -> tuple:
    """Parse --f and --g; f may use only u and g only v."""
    trees = []
    for option, text, own, other in (("--f", args.f, "u", "v"), ("--g", args.g, "v", "u")):
        # argparse hands over the value of "--f=--" as an empty list.
        tree = parse_expr(text if isinstance(text, str) else "")
        if mentions(tree, other):
            raise ValueError(f"{option} must be a function of {own} alone, but it uses {other}")
        trees.append(tree)
    return tuple(trees)


def cmd_classify(args) -> int:
    f, g = _parse_pair(args)
    try:
        f_poly = expr_to_poly(f)
        g_poly = expr_to_poly(g)
    except NotPolynomialError as exc:
        print(f"error: exact classification needs polynomial generators ({exc});")
        print("use the 'weingarten' subcommand for a numeric test instead.")
        return 2
    alpha = f_poly.diff("u")
    beta = g_poly.diff("v")
    result = classify_pt(alpha, beta)
    condition = result.condition
    text = str(condition)
    if len(text) > 200:
        text = text[:200] + f"... ({len(condition.terms)} terms)"
    report = {
        "command": "classify",
        "f": args.f,
        "g": args.g,
        "kind": result.kind.value,
        "condition_polynomial": text,
    }
    print(f"classification: {result.kind.value}")
    print(f"condition polynomial: {text}")
    if result.kind is SurfaceClass.PARABOLOID_OF_REVOLUTION:
        a, u0, v0 = result.params
        residual = relation1_residual(a, (Fraction(1), Fraction(1)), u0, v0)
        report.update({"a": str(a), "u0": str(u0), "v0": str(v0), "relation_residual": str(residual)})
        print(f"paraboloid parameters: a = {a}, u0 = {u0}, v0 = {v0}")
        print(f"curvature relation residual at (1, 1): {residual} (exact)")
    elif result.kind is SurfaceClass.NOT_WEINGARTEN:
        coeff, i, j = result.witness
        report["witness"] = f"{coeff} * u^{i} * v^{j}"
        print(f"witness monomial: {coeff} * u^{i} * v^{j}")
    _emit(report, args.out)
    return 0


def cmd_curvature(args) -> int:
    f, g = _parse_pair(args)
    sample = eval_curvatures(f, g, (args.u, args.v))
    report = {"command": "curvature", "f": args.f, "g": args.g, **asdict(sample)}
    print(f"at (u, v) = ({args.u}, {args.v}):")
    print(f"  H     = {sample.H!r}")
    print(f"  K     = {sample.K!r}")
    print(f"  K_II  = {sample.K_II!r}" + ("  (undefined: degenerate second form)" if sample.K_II is None else ""))
    print(f"  delta = {sample.delta!r}")
    _emit(report, args.out)
    return 0


def cmd_weingarten(args) -> int:
    f, g = _parse_pair(args)
    grid = grid_points(args.rect, args.n)
    result = numeric_weingarten_test(f, g, grid, tol=args.tol)
    if not result.samples:
        verdict = "no evaluable points"
    else:
        verdict = "passes" if result.passed else "fails"
    print(f"weingarten jacobian test: {verdict}")
    if result.samples:
        print(f"  max |jacobian| = {result.max_abs!r} at {result.argmax}")
        print(f"  gradient scale = {result.scale!r}, tol = {args.tol}")
    if result.skipped:
        print(f"  skipped {result.skipped} singular grid points")
    if args.field:
        with open(args.field, "w") as fh:
            fh.write("u,v,jacobian\n")
            for u, v, jac in result.samples:
                fh.write(f"{u!r},{v!r},{jac!r}\n")
        print(f"  jacobian field written to {args.field}")
    report = {
        "command": "weingarten",
        "f": args.f,
        "g": args.g,
        "passed": result.passed,
        "max_abs": result.max_abs,
        "argmax": result.argmax,
        "scale": result.scale,
        "tol": args.tol,
        "skipped": result.skipped,
    }
    _emit(report, args.out)
    if not result.samples:
        return 2
    return 0 if result.passed else 1


def cmd_lwfit(args) -> int:
    f, g = _parse_pair(args)
    samples = []
    skipped = 0
    for point in grid_points(args.rect, args.n):
        try:
            samples.append(eval_curvatures(f, g, point))
        except ArithmeticError:
            skipped += 1
    fit = lw_fit(samples)
    print("linear relation fit 2aH + bK = c (unit-normalized):")
    print(f"  a = {fit.a!r}, b = {fit.b!r}, c = {fit.c!r}")
    print(f"  residual rms = {fit.residual_rms!r}")
    print(f"  discriminant a^2 + bc = {fit.discriminant!r}")
    if skipped:
        print(f"  skipped {skipped} singular grid points")
    _emit({"command": "lwfit", "f": args.f, "g": args.g, **asdict(fit)}, args.out)
    return 0


def cmd_scan(args) -> int:
    results = scan_exponents(args.condition, args.ps, args.qs)
    print(f"satisfiable exponent pairs for the {args.condition} condition:")
    rows = []
    for p, q, outcome in results:
        print(f"  p = {str(p):>5s}  q = {str(q):>5s}  coefficients: {outcome.kind.value}")
        rows.append({"p": str(p), "q": str(q), "constraint": outcome.kind.value})
    print(f"{len(results)} pairs")
    _emit({"command": "scan", "condition": args.condition, "pairs": rows}, args.out)
    return 0


def cmd_mesh(args) -> int:
    f, g = _parse_pair(args)
    stats = write_mesh(f, g, args.rect, args.n, args.format, args.out_path)
    print(f"wrote {stats.format} mesh to {stats.path}:")
    print(f"  {stats.vertices} vertices, {stats.faces} faces, {stats.skipped_vertices} singular points skipped")
    _emit({"command": "mesh", **asdict(stats)}, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.target == "all":
        report = run_all(seed=args.seed, timings=args.timings)
        reports = report["targets"]
    else:
        single = run_target(args.target, seed=args.seed, timings=args.timings)
        report = single
        reports = {args.target: single}
    print(f"seed: {args.seed}")
    for target, rep in reports.items():
        for name, check in rep["checks"].items():
            status = "PASS" if check["passed"] else "FAIL"
            details = {k: v for k, v in check.items() if k != "passed"}
            print(f"[{status}] {target}/{name}: {details}")
    overall = report["passed"]
    print("overall:", "PASS" if overall else "FAIL")
    _emit(report, args.out)
    return 0 if overall else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transurf",
        description="exact and numeric curvature analysis of translation surfaces z = f(u) + g(v)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fg(p):
        p.add_argument("--f", required=True, help="expression for f(u)")
        p.add_argument("--g", required=True, help="expression for g(v)")

    def add_out(p):
        p.add_argument("--out", default=None, help="write a JSON report to this file")

    p = sub.add_parser("classify", help="exact classification of a polynomial surface")
    add_fg(p)
    add_out(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("curvature", help="curvature sample at one parameter point")
    add_fg(p)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    add_out(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("weingarten", help="numeric Weingarten test on a rectangle")
    add_fg(p)
    p.add_argument("--rect", type=_parse_rect, default=(-1.0, 1.0, -1.0, 1.0),
                   help="umin,umax,vmin,vmax (default -1,1,-1,1)")
    p.add_argument("--n", type=int, default=21, help="grid points per side (default 21)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--field", default=None, help="write the jacobian field as CSV here")
    add_out(p)
    p.set_defaults(func=cmd_weingarten)

    p = sub.add_parser("lwfit", help="least-squares linear curvature relation fit")
    add_fg(p)
    p.add_argument("--rect", type=_parse_rect, default=(-1.0, 1.0, -1.0, 1.0))
    p.add_argument("--n", type=int, default=21)
    add_out(p)
    p.set_defaults(func=cmd_lwfit)

    p = sub.add_parser("scan", help="power-law exponent scan")
    p.add_argument("--condition", choices=("jacobian", "second_gaussian"), required=True)
    p.add_argument("--ps", type=_parse_fraction_list, default=[Fraction(k, 3) for k in range(-3, 7)],
                   help="comma-separated exact exponents (default k/3 for k = -3..6)")
    p.add_argument("--qs", type=_parse_fraction_list, default=[Fraction(k, 3) for k in range(-3, 7)])
    add_out(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("mesh", help="export the surface graph as OBJ or CSV")
    add_fg(p)
    p.add_argument("--rect", type=_parse_rect, default=(-1.0, 1.0, -1.0, 1.0))
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--format", choices=("obj", "csv"), default="obj")
    p.add_argument("--out-path", required=True, help="output mesh file")
    add_out(p)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("target", choices=("all",) + tuple(sorted(TARGETS)),
                   help="which suite to run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true", help="include timings in the report")
    add_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
