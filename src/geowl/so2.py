"""A fixed-length rotation-equivariant encoding of planar vector multisets.

A multiset of 2-vectors X is mapped to a single 2-vector whose norm
identifies the SO(2) orbit of X (a positive code issued per orbit) and
whose angle tracks rotations of X: rotating X by beta advances the angle
by beta * L, where L is the order of X's cyclic rotational stabilizer.
Multisets with L-fold symmetry are fixed by rotations of 2*pi/L, and the
angle rescaling absorbs exactly that ambiguity. The module also carries a
message-passing refinement built on this encoding and a demonstration of
why a plain equivariant coordinate sum cannot separate symmetric
configurations: it is pinned to zero by any nontrivial symmetry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .engines import RefinementTrace, Verdict, _refine
from .graph import GeometricGraph
from .numeric import DEFAULT_EPS, NumericContext, as_float
from .objects import Child, Leaf, Node
from .registry import OrbitRegistry

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class StabilizerInfo:
    order: Optional[int]  # None = continuous (the all-zero multiset)
    theta: Optional[float]  # generator angle 2*pi/order

    @property
    def continuous(self) -> bool:
        return self.order is None


@dataclass(frozen=True)
class So2Hash:
    vector: Tuple[float, float]
    norm: float  # orbit code, > 0
    angle: float  # in [0, 2*pi)
    orbit_code: int
    stabilizer: StabilizerInfo


def _as_float_points(X) -> List[Tuple[float, float]]:
    pts = [tuple(as_float(c) for c in p) for p in X]
    if any(len(p) != 2 for p in pts):
        raise ValueError("points must be 2-vectors")
    return pts


def _rotate(p: Tuple[float, float], a: float) -> Tuple[float, float]:
    c, s = math.cos(a), math.sin(a)
    return (c * p[0] - s * p[1], s * p[0] + c * p[1])


def _multisets_close(a, b, eps: float) -> bool:
    """Greedy tolerant multiset matching; fine for the small sets used here."""
    if len(a) != len(b):
        return False
    tol2 = (10 * eps) ** 2
    left = list(b)
    for p in a:
        hit = None
        for idx, q in enumerate(left):
            if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= tol2 * max(
                1.0, p[0] ** 2 + p[1] ** 2
            ):
                hit = idx
                break
        if hit is None:
            return False
        left.pop(hit)
    return True


def _candidate_angles(ref_set, target_set, eps: float) -> List[float]:
    """Angles of rotations carrying ref_set's max-norm point onto an
    equal-norm point of target_set (the only possible symmetry angles)."""
    norms = [math.hypot(*p) for p in ref_set]
    rmax = max(norms)
    ref = max(
        (p for p, nr in zip(ref_set, norms) if abs(nr - rmax) <= eps * max(1.0, rmax)),
        key=lambda p: math.atan2(p[1], p[0]),
    )
    a_ref = math.atan2(ref[1], ref[0])
    out = set()
    for p, nr in zip(target_set, norms if target_set is ref_set else [math.hypot(*q) for q in target_set]):
        if abs(nr - rmax) > eps * max(1.0, rmax):
            continue
        out.add((math.atan2(p[1], p[0]) - a_ref) % TWO_PI)
    return sorted(out)


def _all_zero(pts, eps: float) -> bool:
    """True when every point lies within eps of the origin (and for no points)."""
    return all(abs(p[0]) <= eps and abs(p[1]) <= eps for p in pts)


def stabilizer_order(X, eps: float = DEFAULT_EPS) -> StabilizerInfo:
    """Order of the cyclic group of rotations fixing the multiset X.

    The all-zero multiset is fixed by every rotation (continuous); any
    other multiset has a finite stabilizer whose elements must map a fixed
    maximal-norm point onto another point of the same norm, so only those
    finitely many candidate angles need checking.
    """
    pts = _as_float_points(X)
    if not pts:
        raise ValueError("the multiset must be non-empty")
    if _all_zero(pts, eps):
        return StabilizerInfo(order=None, theta=None)
    count = 0
    for a in _candidate_angles(pts, pts, eps):
        if _multisets_close([_rotate(p, a) for p in pts], pts, eps):
            count += 1
    return StabilizerInfo(order=count, theta=TWO_PI / count)


def _wrap_multiset(pts) -> Node:
    children = tuple(Child(0, Leaf(0, ()), p) for p in pts)
    return Node(0, Leaf(0, ()), children)


def so2_registry(eps: float = DEFAULT_EPS) -> OrbitRegistry:
    return OrbitRegistry(NumericContext("float", eps), 2, proper=True)


def so2_hash(X, reg: OrbitRegistry) -> So2Hash:
    """Encode the multiset X as norm = 1 + orbit index, angle = alpha * L.

    alpha is the smallest rotation angle carrying the registered orbit
    representative onto X, and L is the stabilizer order; the product is
    well defined modulo 2*pi precisely because the representative is only
    determined up to its own stabilizer. Continuous-stabilizer multisets
    (all zero, or empty) take angle 0.
    """
    eps = reg.ctx.eps
    pts = _as_float_points(X)
    code = reg.intern_orbit(_wrap_multiset(pts))
    rep = [c.rel for c in reg.representative(code).children]
    norm = 1.0 + code
    if _all_zero(pts, eps):
        stab = StabilizerInfo(order=None, theta=None)
        phi = 0.0
    else:
        stab = stabilizer_order(rep, eps)
        alpha = None
        for a in _candidate_angles(rep, pts, eps):
            if _multisets_close([_rotate(p, a) for p in rep], pts, eps):
                alpha = a
                break
        if alpha is None:  # cannot happen for a registered orbit member
            raise RuntimeError("orbit representative does not reach the input")
        phi = (alpha * stab.order) % TWO_PI
    return So2Hash(
        vector=(norm * math.cos(phi), norm * math.sin(phi)),
        norm=norm,
        angle=phi,
        orbit_code=code,
        stabilizer=stab,
    )


def run_so2_gwl(
    g1: GeometricGraph, g2: GeometricGraph, max_iters: Optional[int] = None
) -> Tuple[Verdict, RefinementTrace]:
    """Message-passing refinement whose node states are single 2-vectors.

    Step one hashes each relative position on its own and scales the unit
    result by a scalar-colour factor; step two folds a node's edge messages
    into one vector; later steps fold neighbour messages. Verdicts compare
    histograms of the message norms (the orbit codes), with the usual
    stopping rules.
    """
    if g1.dim != 2 or g2.dim != 2:
        raise ValueError("this refinement is defined for d = 2 only")
    if max_iters is None:
        max_iters = max(1, g1.n + g2.n)
    eps = g1.ctx.eps if g1.ctx.mode == "float" else DEFAULT_EPS
    reg = so2_registry(eps)
    # key colours get their own registry: sharing the orbit registry's
    # counter would renumber the orbit codes, which set the message norms
    col = so2_registry(eps).intern_key

    def colours(g: GeometricGraph) -> Iterator[List[int]]:
        c = [col(("s", g.scalars[i])) for i in range(g.n)]
        yield c
        state = []
        for v in range(g.n):
            edge_msgs = []
            for u in g.neighbors(v):
                h = so2_hash([g.rel_vec(v, u)], reg)
                factor = 1.0 + col(("m0", c[v], c[u], h.orbit_code))
                edge_msgs.append((factor * h.vector[0] / h.norm, factor * h.vector[1] / h.norm))
            state.append(edge_msgs)
        while True:
            hashes = [so2_hash(s, reg) for s in state]
            yield [col(("orbit", h.orbit_code)) for h in hashes]
            state = [[hashes[u].vector for u in g.neighbors(v)] for v in range(g.n)]

    return _refine(g1, g2, max_iters, colours)


def equivariant_sum_demo(X) -> Tuple[float, float]:
    """The coordinate sum: the canonical permutation-invariant map that is
    equivariant under the standard rotation action.

    Any multiset invariant under a nontrivial rotation about the origin
    forces the sum to the rotation's only fixed point, (0, 0) — which is
    why no such equivariant vector summary can identify symmetric
    configurations, and why the hash above encodes orientation through the
    stabilizer-rescaled angle instead.
    """
    sx = sy = 0.0
    for p in _as_float_points(X):
        sx += p[0]
        sy += p[1]
    return (sx, sy)
