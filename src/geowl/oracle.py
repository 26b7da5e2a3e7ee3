"""Brute-force geometric isomorphism decision for small graphs.

Exhaustively searches for a node bijection plus a single orthogonal map
(rotation only under SO) and translation that carry one graph onto the
other: adjacency and scalar attributes preserved, positions and feature
vectors rigidly moved. Exponential in n, so guarded by a cap; used as the
ground truth the refinement engines are validated against.
"""
from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from . import linalg
from .engines import _pair
from .graph import GeometricGraph, GroupSpec, IsometryWitness, identity_witness
from .properties import centroid
from .registry import OrbitRegistry

DEFAULT_CAP = 10


class OracleCapExceeded(ValueError):
    """Input larger than the exhaustive-search cap."""


def _one_round_wl(g1: GeometricGraph, g2: GeometricGraph):
    """Joint scalar+degree colouring refined once; shared colour ids."""
    col = OrbitRegistry(g1.ctx, g1.dim, proper=False).intern_key
    outs = []
    for g in (g1, g2):
        c0 = [col((g.scalars[i], g.degree(i))) for i in range(g.n)]
        outs.append(
            [col((c0[i], tuple(sorted(c0[j] for j in g.neighbors(i))))) for i in range(g.n)]
        )
    return outs[0], outs[1]


def geometric_isomorphism_oracle(
    g1: GeometricGraph,
    g2: GeometricGraph,
    grp: GroupSpec,
    cap: int = DEFAULT_CAP,
) -> Tuple[bool, Optional[IsometryWitness]]:
    """Decide congruence of two geometric graphs under grp.

    Returns (verdict, witness). The witness, when the matched geometry
    spans the whole space, transforms g2 into g1: witness.permutation maps
    a g2 node index to its g1 partner and apply_isometry(g2, witness)
    reproduces g1 field by field. With a rank-deficient span the verdict
    is still exact but no witness is reported (completing the map to a
    full orthogonal matrix generally leaves the rationals).

    The search runs on the pair `engines._pair` returns, both graphs scaled
    exactly by one factor, so its matrix holds for the caller's graphs; the
    translation comes from the caller's centroids.
    """
    h1, h2 = _pair(g1, g2, grp)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if max(g1.n, g2.n) > cap:
        raise OracleCapExceeded(f"oracle capped at n <= {cap}, got {max(g1.n, g2.n)}")
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False, None
    n = g1.n
    if n == 0:
        return True, identity_witness(g1)
    if Counter(g1.scalars) != Counter(g2.scalars):
        return False, None
    if sorted(map(len, g1.vectors)) != sorted(map(len, g2.vectors)):
        return False, None

    w1, w2 = _one_round_wl(g1, g2)
    if Counter(w1) != Counter(w2):
        return False, None
    cands = [
        [j for j in range(n) if w2[j] == w1[i] and len(g2.vectors[j]) == len(g1.vectors[i])]
        for i in range(n)
    ]
    if any(not c for c in cands):
        return False, None
    order = sorted(range(n), key=lambda i: len(cands[i]))

    cen1, cen2 = centroid(h1), centroid(h2)
    pos1 = [linalg.vsub(x, cen1) for x in h1.positions]
    pos2 = [linalg.vsub(x, cen2) for x in h2.positions]

    matcher = linalg.GramMatcher(h1.ctx, h1.dim, grp.proper)
    assign: List[Optional[int]] = [None] * n  # g1 index -> g2 index
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return matcher.orientation_ok()
        i = order[k]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for prev in order[:k]:
                if g1.has_edge(i, prev) != g2.has_edge(j, assign[prev]):
                    ok = False
                    break
            if not ok:
                continue
            mark = matcher.mark()
            if matcher.push(pos1[i], pos2[j]) and all(
                matcher.push(a, b) for a, b in zip(h1.vectors[i], h2.vectors[j])
            ):
                assign[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                assign[i] = None
                used[j] = False
            matcher.rewind(mark)
        return False

    if not extend(0):
        return False, None

    q = matcher.solve_map()
    if q is None:
        return True, None
    # witness moves g2 onto g1: node assign[i] of g2 lands on node i of g1
    perm = [0] * n
    for i in range(n):
        perm[assign[i]] = i
    t = linalg.vsub(centroid(g1), linalg.matvec(q, centroid(g2)))
    return True, IsometryWitness(permutation=tuple(perm), matrix=q, translation=t)
