"""Output checks, computed apart from the program.

Nothing here calls into ``transurf``: expected verdicts come from the paper's
case table applied to the generated degrees and slopes, polynomial identities
are tested with plain dict arithmetic over ``Fraction``, reference curvatures
come from sympy or from central differences of plain-Python closures, and the
mesh is parsed back from the file the program wrote.  Each check raises
:class:`CheckError` on the first disagreement.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(x: float, y: float, tol: float) -> bool:
    """|x - y| <= tol * max(1, |x|, |y|)."""
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# -- classify_corpus -----------------------------------------------------------------


def expected_classification(item):
    """Case table: a constant generator derivative gives a cylinder or plane,
    equal-slope linear ones a paraboloid of revolution with a = |s|/2 and
    vertex (-b_u/s, -b_v/s), everything else is not Weingarten."""
    if item.m == 0 or item.n == 0:
        return "cylinder_or_plane", None
    if item.m == 1 and item.n == 1 and item.alpha[1] == item.beta[1]:
        s = item.alpha[1]
        return "paraboloid_of_revolution", (abs(s) / 2, -item.alpha[0] / s, -item.beta[0] / s)
    return "not_weingarten", None


def _field(stdout: str, label: str) -> str:
    match = re.search(rf"^{re.escape(label)}: (.*)$", stdout, re.MULTILINE)
    require(match is not None, f"no {label!r} line in the classify report")
    return match.group(1)


def check_classify(item, out) -> None:
    where = f"f = {item.f_text!r}, g = {item.g_text!r}"
    require(out.exit_code == 0, f"classify exit code {out.exit_code} for {where}")
    kind, params = expected_classification(item)
    got = _field(out.stdout, "classification")
    require(got == kind, f"classification {got} != {kind} for {where}")
    _field(out.stdout, "condition polynomial")
    if params is not None:
        text = _field(out.stdout, "paraboloid parameters")
        match = re.fullmatch(r"a = (\S+), u0 = (\S+), v0 = (\S+)", text)
        require(match is not None, f"unreadable paraboloid parameters {text!r}")
        got_params = tuple(Fraction(x) for x in match.groups())
        require(got_params == params, f"paraboloid parameters {got_params} != {params} for {where}")
        residual = _field(out.stdout, "curvature relation residual at (1, 1)")
        require(residual == "0 (exact)", f"relation residual {residual!r} for {where}")
    elif kind == "not_weingarten":
        witness = _field(out.stdout, "witness monomial")
        require(Fraction(witness.split(" * ")[0]) != 0, f"zero witness {witness!r}")
    flat = item.m == 0 or item.n == 0
    require(out.kii.vanishes == flat, f"classify_kii vanishes = {out.kii.vanishes}, flat = {flat}, {where}")
    require((out.lw0.value == "flat") == flat, f"lw0_symbolic = {out.lw0.value}, flat = {flat}, {where}")


# -- cross_check -----------------------------------------------------------------------


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def delta_terms(alpha: list, beta: list) -> dict:
    """1 + alpha^2 + beta^2 as an exponent -> coefficient dict."""
    a = {(k, 0): Fraction(c) for k, c in enumerate(alpha) if c}
    b = {(0, k): Fraction(c) for k, c in enumerate(beta) if c}
    out = _poly_mul(a, a)
    for key, c in _poly_mul(b, b).items():
        out[key] = out.get(key, 0) + c
    out[(0, 0)] = out.get((0, 0), 0) + 1
    return {k: c for k, c in out.items() if c}


def route_relation(item, out):
    """(ratio, power) with n_odd == ratio * D^power * direct, or None when the
    condition vanishes; n_even must vanish identically."""
    where = f"{item.kind} surface of degree ({item.m}, {item.n})"
    require(not out.n_even.terms, f"n_even is not zero on the {where}")
    vanishes = item.kind != "generic"
    require((not out.direct.terms) == vanishes, f"direct route zero set wrong on the {where}")
    require((not out.n_odd.terms) == vanishes, f"derived route zero set wrong on the {where}")
    if vanishes:
        return None
    delta = delta_terms(item.alpha, item.beta)
    d_deg = max(i + j for i, j in delta)
    direct_deg = max(i + j for i, j in out.direct.terms)
    odd_deg = max(i + j for i, j in out.n_odd.terms)
    power, rest = divmod(odd_deg - direct_deg, d_deg)
    require(rest == 0 and power >= 0, f"degree gap of the routes on the {where}")
    scaled = dict(out.direct.terms)
    for _ in range(power):
        scaled = _poly_mul(scaled, delta)
    require(set(scaled) == set(out.n_odd.terms), f"routes not proportional on the {where}")
    key = next(iter(scaled))
    ratio = out.n_odd.terms[key] / scaled[key]
    require(
        all(out.n_odd.terms[k] == ratio * c for k, c in scaled.items()),
        f"routes not proportional on the {where}",
    )
    return ratio, power


def check_cross_values(item, out, tol: float = 1e-10) -> None:
    """Symbolic and floating-point evaluation agree at every point."""
    for sym, num in zip(out.symbolic, out.numeric, strict=True):
        where = f"at {sym.point} on degree ({item.m}, {item.n})"
        require(sym.point == num.point, f"point mismatch {where}")
        for name in ("H", "K", "delta"):
            x, y = getattr(sym, name), getattr(num, name)
            require(close(x, y, tol), f"{name}: symbolic {x!r} vs numeric {y!r} {where}")
        require((sym.K_II is None) == (num.K_II is None), f"K_II defined on one route only {where}")
        if sym.K_II is not None:
            require(close(sym.K_II, num.K_II, tol), f"K_II: symbolic {sym.K_II!r} vs numeric {num.K_II!r} {where}")
    require(len(out.symbolic) == len(item.points), "missing curvature samples")


def check_sympy_sample(item, out, point_index: int) -> None:
    """H and K from the Monge formula in sympy, and the curvature Jacobian
    from sympy against the derived route (n_odd sqrt(D) / D^6), at one point."""
    import sympy as sp

    u, v = sp.symbols("u v")
    f = sp.sympify(item.f_text.replace("^", "**"), locals={"u": u, "v": v}, rational=True)
    g = sp.sympify(item.g_text.replace("^", "**"), locals={"u": u, "v": v}, rational=True)
    fu, fuu = sp.diff(f, u), sp.diff(f, u, 2)
    gv, gvv = sp.diff(g, v), sp.diff(g, v, 2)
    d = 1 + fu**2 + gv**2
    h = ((1 + gv**2) * fuu + (1 + fu**2) * gvv) / (2 * d ** sp.Rational(3, 2))
    k = fuu * gvv / d**2
    pu, pv = item.points[point_index]
    at = {u: sp.Rational(pu), v: sp.Rational(pv)}
    where = f"at {(pu, pv)} on f = {item.f_text!r}, g = {item.g_text!r}"
    h_ref = float(sp.N(h.subs(at), 30))
    k_ref = float(sp.N(k.subs(at), 30))
    for sample in (out.symbolic[point_index], out.numeric[point_index]):
        require(close(sample.H, h_ref, 1e-12), f"H {sample.H!r} vs sympy {h_ref!r} ({sample.method}) {where}")
        require(close(sample.K, k_ref, 1e-12), f"K {sample.K!r} vs sympy {k_ref!r} ({sample.method}) {where}")

    jac = sp.diff(h, u) * sp.diff(k, v) - sp.diff(h, v) * sp.diff(k, u)
    jac_ref = sp.N(jac.subs(at), 50)
    d_at = Fraction(d.subs(at))
    n_odd_at = sum(c * Fraction(pu) ** i * Fraction(pv) ** j for (i, j), c in out.n_odd.terms.items())
    derived = sp.Rational(n_odd_at / d_at**6) * sp.sqrt(sp.Rational(d_at))
    derived = sp.N(derived, 50)
    require(
        abs(derived - jac_ref) <= sp.Float(10) ** -35 * max(1, abs(jac_ref)),
        f"curvature Jacobian {derived} vs sympy {jac_ref} {where}",
    )


# -- numeric_grid --------------------------------------------------------------------------


def fd_curvatures(f_fn, g_fn, u: float, v: float, h: float) -> tuple[float, float]:
    """H and K of z = f(u) + g(v) from fourth-order central differences of z."""
    def z(a, b):
        return f_fn(a) + g_fn(b)

    def d1(fn, x):
        return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)

    def d2(fn, x):
        return (-fn(x - 2 * h) + 16 * fn(x - h) - 30 * fn(x) + 16 * fn(x + h) - fn(x + 2 * h)) / (12 * h * h)

    zu = d1(lambda a: z(a, v), u)
    zv = d1(lambda b: z(u, b), v)
    zuu = d2(lambda a: z(a, v), u)
    zvv = d2(lambda b: z(u, b), v)
    zuv = d1(lambda b: d1(lambda a: z(a, b), u), v)
    w2 = 1 + zu * zu + zv * zv
    hh = ((1 + zv * zv) * zuu - 2 * zu * zv * zuv + (1 + zu * zu) * zvv) / (2 * w2**1.5)
    kk = (zuu * zvv - zuv * zuv) / (w2 * w2)
    return hh, kk


FD_TOL = 1e-6
FD_EVERY = 4  # difference-check every 4th curvature sample; the rest are checked by property


def _grid(rect, n: int) -> list[tuple[float, float]]:
    umin, umax, vmin, vmax = rect
    us = [umin + (umax - umin) * i / (n - 1) for i in range(n)]
    vs = [vmin + (vmax - vmin) * j / (n - 1) for j in range(n)]
    return [(a, b) for a in us for b in vs]


def check_numeric(item, out, mesh_text: str, weingarten_n: int, sample_n: int, mesh_n: int) -> None:
    fam = item.family
    wt = out.weingarten
    require(wt.skipped == 0, f"{fam}: {wt.skipped} Weingarten grid points skipped inside the domain")
    require(len(wt.samples) == weingarten_n**2, f"{fam}: {len(wt.samples)} Weingarten samples")
    if fam in ("scherk", "cmc", "cylinder", "paraboloid"):
        require(wt.passed, f"{fam}: Weingarten test fails (max |J| = {wt.max_abs!r})")

    grid = _grid(item.rect, sample_n)
    require(len(out.samples) == len(grid), f"{fam}: {len(out.samples)} curvature samples")
    width = min(item.rect[1] - item.rect[0], item.rect[3] - item.rect[2])
    step = 1e-3 * width
    for index, ((pu, pv), s) in enumerate(zip(grid, out.samples)):
        where = f"{fam} at ({pu}, {pv})"
        require(close(s.point[0], pu, 1e-12) and close(s.point[1], pv, 1e-12), f"sample point {s.point} != {where}")
        if index % FD_EVERY == 0:
            h_ref, k_ref = fd_curvatures(item.f_fn, item.g_fn, s.point[0], s.point[1], step)
            require(close(s.H, h_ref, FD_TOL), f"H {s.H!r} vs differences {h_ref!r}: {where}")
            require(close(s.K, k_ref, FD_TOL), f"K {s.K!r} vs differences {k_ref!r}: {where}")
        if fam == "scherk":
            require(abs(s.H) < 1e-9, f"H = {s.H!r} on the minimal surface: {where}")
        elif fam == "cmc":
            require(abs(abs(s.H) - item.value) < 1e-9 * item.value, f"|H| = {abs(s.H)!r} != {item.value}: {where}")
        elif fam == "cylinder":
            require(s.K == 0.0 and s.K_II is None, f"K = {s.K!r}, K_II = {s.K_II!r} on the cylinder: {where}")
        elif fam == "paraboloid":
            a, sqrt_k = item.value, math.sqrt(s.K)
            lhs, rhs = 8 * a * s.H * s.H, sqrt_k * (2 * a + sqrt_k) ** 2
            require(close(lhs, rhs, 1e-9), f"8aH^2 = {lhs!r} vs sqrt(K)(2a + sqrt(K))^2 = {rhs!r}: {where}")
        elif fam == "blair":
            require(s.K_II is not None and abs(s.K_II) < 1e-6, f"K_II = {s.K_II!r} on the Blair surface: {where}")

    fit = out.fit
    if fam == "scherk":
        require(abs(abs(fit.a) - 1) < 1e-6 and abs(fit.b) < 1e-6 and abs(fit.c) < 1e-6,
                f"minimal surface fit is not pure H: {fit}")
    elif fam == "cylinder":
        require(abs(abs(fit.b) - 1) < 1e-6 and abs(fit.a) < 1e-6 and abs(fit.c) < 1e-6,
                f"cylinder fit is not pure K: {fit}")
    elif fam == "cmc":
        require(fit.residual_rms < 1e-9, f"constant-H fit residual {fit.residual_rms!r}")

    if fam == "blair":
        require(all(x is not None and abs(x) < 1e-6 for x in out.oracle), f"K_II oracle {out.oracle} on the Blair surface")
    elif fam == "cylinder":
        require(all(x is None for x in out.oracle), f"K_II oracle {out.oracle} defined on the cylinder")

    check_mesh(item, mesh_text, mesh_n)
    require(out.mesh.vertices == mesh_n**2 and out.mesh.faces == 2 * (mesh_n - 1) ** 2 and out.mesh.skipped_vertices == 0,
            f"{fam}: mesh stats {out.mesh}")


def check_mesh(item, text: str, n: int) -> None:
    """Vertex grid, heights f(u) + g(v) from the closures, and two
    counter-clockwise triangles per cell, read back from the OBJ text."""
    lines = text.splitlines()
    vertices, faces = lines[: n * n], lines[n * n:]
    require(all(line.startswith("v ") for line in vertices) and len(vertices) == n * n,
            f"{item.family}: the OBJ does not start with {n * n} vertex lines")
    for line, (gx, gy) in zip(vertices, _grid(item.rect, n)):
        x, y, z = (float(field) for field in line[2:].split())
        require(close(x, gx, 1e-12) and close(y, gy, 1e-12), f"mesh vertex ({x}, {y}) off the grid point ({gx}, {gy})")
        zz = item.f_fn(x) + item.g_fn(y)
        require(close(z, zz, 1e-10), f"mesh height {z!r} vs f + g = {zz!r} at ({x}, {y})")
    want = []
    for i in range(n - 1):
        for j in range(n - 1):
            c00, c10, c11, c01 = i * n + j + 1, (i + 1) * n + j + 1, (i + 1) * n + j + 2, i * n + j + 2
            want += [f"f {c00} {c10} {c11}", f"f {c00} {c11} {c01}"]
    require(faces == want, f"{item.family}: {len(faces)} mesh faces differ from the {len(want)} expected")
