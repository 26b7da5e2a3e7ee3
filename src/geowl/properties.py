"""Global geometric property calculators: bounding box, centroid distance
multiset, dihedral angles.

These are the whole-cloud quantities that first-hop invariant refinement
provably cannot decide; the test suite pairs them with IGWL verdicts to
demonstrate exactly that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import linalg
from .graph import GeometricGraph
from .numeric import Vec


class DegenerateGeometryError(ValueError):
    """Collinear points where a plane normal is required."""


@dataclass(frozen=True)
class PropertyReport:
    dim: int
    extents: Tuple
    perimeter: object
    area: object
    volume: Optional[object]  # None in d = 2
    centroid: Vec
    centroid_sq_distances: Tuple
    dihedrals: Dict[Tuple[int, int, int, int], object]

    def to_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "extents": [float(e) for e in self.extents],
            "perimeter": float(self.perimeter),
            "area": float(self.area),
            "centroid": [float(c) for c in self.centroid],
            "centroid_distances": [
                math.sqrt(float(d)) for d in self.centroid_sq_distances
            ],
            "centroid_sq_distances": [float(d) for d in self.centroid_sq_distances],
        }
        if self.volume is not None:
            out["volume"] = float(self.volume)
        if self.dihedrals:
            out["dihedrals"] = {
                ",".join(map(str, q)): float(v) for q, v in self.dihedrals.items()
            }
        return out


def centroid(g: GeometricGraph) -> Vec:
    n = g.n
    inv = Fraction(1, n) if g.ctx.mode == "exact" else 1.0 / n
    acc = list(g.positions[0])
    for x in g.positions[1:]:
        acc = [a + c for a, c in zip(acc, x)]
    return tuple(a * inv for a in acc)


def bounding_box_metrics(g: GeometricGraph):
    """(perimeter, area, volume) of the axis-aligned box over the positions.

    d=3: total edge length 4(a+b+c), surface area 2(ab+bc+ca), volume abc.
    d=2: perimeter 2(a+b), area ab, volume None. Axis-aligned in the input
    frame, so translation- and permutation- but not rotation-invariant.
    """
    if g.dim not in (2, 3):
        raise ValueError("bounding box metrics require d = 2 or 3")
    ext = bounding_box_extents(g)
    if g.dim == 2:
        a, b = ext
        return 2 * (a + b), a * b, None
    a, b, c = ext
    return 4 * (a + b + c), 2 * (a * b + b * c + c * a), a * b * c


def bounding_box_extents(g: GeometricGraph) -> Tuple:
    if g.n == 0:
        raise ValueError("empty graph has no bounding box")
    return tuple(
        max(x[ax] for x in g.positions) - min(x[ax] for x in g.positions)
        for ax in range(g.dim)
    )


def centroid_distance_multiset(g: GeometricGraph) -> Tuple:
    """Sorted squared node-centroid distances (squares keep exact mode exact)."""
    c = centroid(g)
    return tuple(sorted(linalg.norm_sq(linalg.vsub(x, c)) for x in g.positions))


def dihedral_cos(g: GeometricGraph, l: int, j: int, k: int, m: int):
    """Cosine of the dihedral angle along the j-k axis, between the planes
    spanned with l and with m.

    Computed from the plane normals n1 = x_jk x x_lj and n2 = x_jk x x_mk.
    Float mode returns the cosine; exact mode returns the signed squared
    cosine sign(n1.n2) * (n1.n2)^2 / (|n1|^2 |n2|^2), which stays rational.
    """
    if g.dim != 3:
        raise ValueError("dihedral angles require d = 3")
    x_jk = g.rel_vec(j, k)
    x_lj = g.rel_vec(l, j)
    x_mk = g.rel_vec(m, k)
    n1 = linalg.cross(x_jk, x_lj)
    n2 = linalg.cross(x_jk, x_mk)
    ctx = g.ctx
    q1, q2 = linalg.norm_sq(n1), linalg.norm_sq(n2)
    if ctx.is_zero(q1) or ctx.is_zero(q2):
        raise DegenerateGeometryError("collinear triple: dihedral plane is undefined")
    num = linalg.dot(n1, n2)
    if ctx.mode == "exact":
        sign = 0 if num == 0 else (1 if num > 0 else -1)
        return Fraction(sign * num * num, q1 * q2)
    return num / math.sqrt(q1 * q2)


def property_report(g: GeometricGraph, quadruples=()) -> PropertyReport:
    per, area, vol = bounding_box_metrics(g)
    dih = {tuple(q): dihedral_cos(g, *q) for q in quadruples}
    return PropertyReport(
        dim=g.dim,
        extents=bounding_box_extents(g),
        perimeter=per,
        area=area,
        volume=vol,
        centroid=centroid(g),
        centroid_sq_distances=centroid_distance_multiset(g),
        dihedrals=dih,
    )
