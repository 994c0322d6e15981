"""Mesh and CSV export of translation surfaces for external viewers.

An n x n vertex grid over a parameter rectangle is triangulated with two
triangles per cell, wound counter-clockwise as seen from above (consistent
with the upward normal used for curvature signs).  Grid points where the
surface is singular are dropped; faces touching a dropped vertex are
omitted and the count is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import DomainError, Expr, ast_eval
from .numeric import grid_points


@dataclass(frozen=True)
class MeshStats:
    vertices: int
    faces: int
    skipped_vertices: int
    path: str
    format: str


def _heights(f: Expr, g: Expr, rect, n: int):
    points: list[tuple[float, float, float] | None] = []
    skipped = 0
    for u, v in grid_points(rect, n):
        try:
            points.append((u, v, ast_eval(f, u, v) + ast_eval(g, u, v)))
        except DomainError:
            points.append(None)
            skipped += 1
    return points, skipped


def write_mesh(
    f: Expr,
    g: Expr,
    rect: tuple[float, float, float, float],
    n: int,
    fmt: str,
    path: str,
) -> MeshStats:
    """Write an OBJ triangle mesh or CSV point rows for z = f(u) + g(v)."""
    if fmt not in ("obj", "csv"):
        raise ValueError(f"unknown mesh format {fmt!r}")
    if n < 2:
        raise ValueError("mesh needs at least a 2 x 2 grid")
    points, skipped = _heights(f, g, rect, n)
    valid = [p for p in points if p is not None]
    if not valid:
        raise ValueError("no valid grid points inside the rectangle")

    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("x,y,z\n")
            for p in valid:
                fh.write(f"{p[0]!r},{p[1]!r},{p[2]!r}\n")
        return MeshStats(len(valid), 0, skipped, path, fmt)

    # OBJ: remap valid vertices to 1-based consecutive indices.
    index = {}
    lines = []
    for flat_idx, p in enumerate(points):
        if p is not None:
            index[flat_idx] = len(index) + 1
            lines.append(f"v {p[0]!r} {p[1]!r} {p[2]!r}")
    faces = 0
    for i in range(n - 1):
        for j in range(n - 1):
            c00 = i * n + j
            c10 = (i + 1) * n + j
            c11 = (i + 1) * n + (j + 1)
            c01 = i * n + (j + 1)
            if all(k in index for k in (c00, c10, c11)):
                lines.append(f"f {index[c00]} {index[c10]} {index[c11]}")
                faces += 1
            if all(k in index for k in (c00, c11, c01)):
                lines.append(f"f {index[c00]} {index[c11]} {index[c01]}")
                faces += 1
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return MeshStats(len(index), faces, skipped, path, "obj")
