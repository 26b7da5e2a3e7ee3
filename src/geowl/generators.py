"""Synthetic graph families and seeded random instances.

Every pair generator returns (g1, g2, PairSpec); the claimed relation is
re-checked against the brute-force oracle at generation time whenever the
graphs fit under its cap.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .graph import (
    GeometricGraph,
    GraphFormatError,
    GroupSpec,
    IsometryWitness,
    apply_isometry,
    build_radial_graph,
    geometric_graph,
    graph_from_dict,
    identity_witness,
    read_json,
)
from .linalg import norm_sq, vsub
from .numeric import EXACT, FLOAT
from .oracle import DEFAULT_CAP, geometric_isomorphism_oracle

NON_ISOMORPHIC = "non_isomorphic"
ISOMORPHIC = "isomorphic"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class PairSpec:
    family: str  # kchain | lfold | tri_hex | onehop_identical | random | file
    params: dict
    relation: str  # non_isomorphic | isomorphic | unknown
    hop_distinct: Optional[int] = None  # h for "h-hop distinct" claims
    verified: bool = False  # oracle-confirmed at generation time

    @property
    def claim(self) -> str:
        if self.relation == NON_ISOMORPHIC and self.hop_distinct is not None:
            return f"non_isomorphic_h_hop_distinct({self.hop_distinct})"
        return self.relation

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "relation": self.claim,
            "verified": self.verified,
        }


def _verify_relation(g1: GeometricGraph, g2: GeometricGraph, expect_iso: bool) -> bool:
    """Oracle check under O(d); skipped (False) when past the cap."""
    if max(g1.n, g2.n) > DEFAULT_CAP:
        return False
    same, _ = geometric_isomorphism_oracle(g1, g2, GroupSpec("O", g1.dim))
    if same != expect_iso:
        raise AssertionError("generator output contradicts its claimed relation")
    return True


def gen_kchain(k: int) -> Tuple[GeometricGraph, GeometricGraph, PairSpec]:
    """A pair of (k+2)-node chains differing only in one endpoint's side.

    k inner nodes sit on the x-axis at (1,0,0)..(k,0,0); both graphs hang
    one endpoint at (0,1,0), and the far endpoint at (k+1,1,0) for the
    first graph but (k+1,-1,0) for the second. Uniform scalars, no vector
    features, radial cutoff 3/2, exact coordinates. Telling the pair apart
    requires relating the two ends: floor(k/2)+1 hops.
    """
    if k < 2:
        raise ValueError("k must be at least 2")

    def chain(last_y: int) -> GeometricGraph:
        pts = [((0,), (), (Fraction(0), Fraction(1), Fraction(0)))]
        pts += [((0,), (), (Fraction(i), Fraction(0), Fraction(0))) for i in range(1, k + 1)]
        pts.append(((0,), (), (Fraction(k + 1), Fraction(last_y), Fraction(0))))
        return build_radial_graph(pts, Fraction(3, 2), mode=EXACT)

    g1, g2 = chain(1), chain(-1)
    spec = PairSpec(
        family="kchain",
        params={"k": k},
        relation=NON_ISOMORPHIC,
        hop_distinct=k // 2 + 1,
        verified=_verify_relation(g1, g2, expect_iso=False),
    )
    return g1, g2, spec


def gen_lfold(L: int, alpha: float = 0.0) -> GeometricGraph:
    """A star of L unit-circle nodes at angles alpha + 2*pi*m/L around a
    centre node at the origin; the position multiset is invariant under
    rotation by 2*pi/L.

    Exact coordinates when the angles are axis-aligned (L in {1, 2, 4} and
    alpha == 0); float mode otherwise.
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    if L in (1, 2, 4) and alpha == 0:
        axis = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        positions = [(0, 0)] + [axis[m * (4 // L)] for m in range(L)]
        mode = EXACT
    else:
        angles = [alpha + 2 * math.pi * m / L for m in range(L)]
        positions = [(0.0, 0.0)] + [(math.cos(a), math.sin(a)) for a in angles]
        mode = FLOAT
    edges = [(0, m + 1) for m in range(L)]
    return geometric_graph(2, positions, edges, [(0,)] + [(1,)] * L, mode=mode)


def gen_triangles_vs_hexagon() -> Tuple[GeometricGraph, GeometricGraph, PairSpec]:
    """Two disjoint unit equilateral triangles vs. a unit-side hexagon.

    All 6 edges per graph have length 1 and every node has degree 2, so
    refinement that only sees distances cannot separate the pair; the
    60-vs-120-degree angles can.
    """
    h = math.sqrt(3) / 2
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, h)]
    pos1 = tri + [(x + 10.0, y) for x, y in tri]
    edges1 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    pos2 = [(math.cos(math.pi * m / 3), math.sin(math.pi * m / 3)) for m in range(6)]
    edges2 = [(m, (m + 1) % 6) for m in range(6)]
    scal = [(0,)] * 6
    g1 = geometric_graph(2, pos1, edges1, scal, mode=FLOAT)
    g2 = geometric_graph(2, pos2, edges2, scal, mode=FLOAT)
    spec = PairSpec(
        family="tri_hex",
        params={},
        relation=NON_ISOMORPHIC,
        hop_distinct=1,
        verified=_verify_relation(g1, g2, expect_iso=False),
    )
    return g1, g2, spec


def gen_onehop_identical_pair() -> Tuple[GeometricGraph, GeometricGraph, PairSpec]:
    """A non-isomorphic pair whose corresponding 1-hop neighbourhoods all
    agree up to O(3): the k=2 chain pair under a fixed relabelling."""
    g1, g2, _ = gen_kchain(2)
    perm = (2, 0, 3, 1)  # fixed relabelling; no structural significance

    def relabel(g: GeometricGraph) -> GeometricGraph:
        w = identity_witness(g)
        return IsometryWitness(perm, w.matrix, w.translation)

    g1p = apply_isometry(g1, relabel(g1))
    g2p = apply_isometry(g2, relabel(g2))
    spec = PairSpec(
        family="onehop_identical",
        params={},
        relation=NON_ISOMORPHIC,
        hop_distinct=2,
        verified=_verify_relation(g1p, g2p, expect_iso=False),
    )
    return g1p, g2p, spec


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def gen_random_cloud(n: int, d: int, seed: int, mode: str = EXACT) -> GeometricGraph:
    """Seed-reproducible edgeless point cloud with uniform scalars."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    rng = random.Random(("cloud", n, d, seed).__repr__())
    if mode == EXACT:
        positions = [tuple(_random_fraction(rng) for _ in range(d)) for _ in range(n)]
    else:
        positions = [tuple(rng.uniform(-1.0, 1.0) for _ in range(d)) for _ in range(n)]
    return geometric_graph(d, positions, (), [(0,)] * n, mode=mode)


def mst_bottleneck_sq(positions):
    """Squared length of the longest edge of a minimum spanning tree over
    the complete distance graph: the smallest squared cutoff that keeps a
    radial-cutoff graph on these points connected."""
    n = len(positions)
    if n <= 1:
        return None
    best = None
    dist = {j: norm_sq(vsub(positions[0], positions[j])) for j in range(1, n)}
    while dist:
        j = min(dist, key=lambda j: (dist[j], j))
        w = dist.pop(j)
        best = w if best is None or w > best else best
        for u in dist:
            d2 = norm_sq(vsub(positions[j], positions[u]))
            if d2 < dist[u]:
                dist[u] = d2
    return best


def _pythagorean_rotation(rng: random.Random) -> Tuple[Fraction, Fraction]:
    """A random rational (cos, sin) on the unit circle."""
    m = rng.randint(2, 6)
    n = rng.randint(1, m - 1)
    d = m * m + n * n
    c, s = Fraction(m * m - n * n, d), Fraction(2 * m * n, d)
    if rng.random() < 0.5:
        s = -s
    return c, s


def random_isometry(
    n: int, dim: int, seed: int, proper: bool, mode: str = EXACT
) -> IsometryWitness:
    """A seeded random witness: permutation, orthogonal matrix (rational in
    exact mode, built from Pythagorean-triple plane rotations), translation.
    det is +1 when proper, otherwise a random sign.
    """
    rng = random.Random(("iso", n, dim, seed, proper).__repr__())
    perm = list(range(n))
    rng.shuffle(perm)
    q = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    for p in range(dim):
        for r in range(p + 1, dim):
            c, s = _pythagorean_rotation(rng)
            for col in range(dim):
                a, b = q[p][col], q[r][col]
                q[p][col], q[r][col] = c * a - s * b, s * a + c * b
    if not proper and rng.random() < 0.5:
        q[0] = [-v for v in q[0]]
    t = tuple(_random_fraction(rng) for _ in range(dim))
    if mode == FLOAT:
        q = [[float(v) for v in row] for row in q]
        t = tuple(float(v) for v in t)
    return IsometryWitness(tuple(perm), tuple(tuple(row) for row in q), t)


def load_counterexample(path: str) -> Tuple[GeometricGraph, GeometricGraph, PairSpec]:
    """Load a two-graph pair file: a JSON array of two core-format graphs.

    The relation is 'unknown' unless the pair fits under the oracle cap,
    in which case it is decided on the spot.
    """
    data = read_json(path)
    if not isinstance(data, list) or len(data) != 2:
        raise GraphFormatError(f"{path}: expected a JSON array of exactly two graphs")
    g1 = graph_from_dict(data[0])
    g2 = graph_from_dict(data[1])
    if g1.dim != g2.dim:
        raise GraphFormatError(f"{path}: the two graphs have different dimensions")
    relation, verified = UNKNOWN, False
    if max(g1.n, g2.n) <= DEFAULT_CAP and g1.ctx.mode == g2.ctx.mode:
        same, _ = geometric_isomorphism_oracle(g1, g2, GroupSpec("O", g1.dim))
        relation, verified = (ISOMORPHIC if same else NON_ISOMORPHIC), True
    spec = PairSpec(
        family="file", params={"path": path}, relation=relation, verified=verified
    )
    return g1, g2, spec
