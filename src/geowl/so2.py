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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .engines import RefinementTrace, Verdict, _run, _scalar_colours
from .graph import GeometricGraph, as_float
from .numeric import DEFAULT_EPS, EXACT
from .registry import OrbitRegistry

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class StabilizerInfo:
    order: Optional[int]  # None = continuous (the all-zero multiset)

    @property
    def theta(self) -> Optional[float]:  # generator angle 2*pi/order
        return None if self.order is None else TWO_PI / self.order

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
    pts = [tuple(float(c) for c in p) for p in X]
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


def _rotations(ref, target, eps: float) -> Iterator[float]:
    """Ascending angles of the rotations carrying multiset ref onto target;
    each takes ref's anchor (largest norm, then largest angle) onto an
    equal-norm point of target, so only those angles are checked; points
    within `_multisets_close`'s tolerance of each other count once."""
    norms = [math.hypot(*p) for p in ref]
    rmax = max(norms)
    anchor = max(
        (p for p, nr in zip(ref, norms) if abs(nr - rmax) <= eps * max(1.0, rmax)),
        key=lambda p: math.atan2(p[1], p[0]),
    )
    a_ref = math.atan2(anchor[1], anchor[0])
    ends: List[Tuple[float, float]] = []
    for p in target:
        if abs(math.hypot(*p) - rmax) <= eps * max(1.0, rmax):
            if not any(_multisets_close([p], [q], eps) for q in ends):
                ends.append(p)
    candidates = {(math.atan2(p[1], p[0]) - a_ref) % TWO_PI for p in ends}
    for a in sorted(candidates):
        if _multisets_close([_rotate(p, a) for p in ref], target, eps):
            yield a


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
        return StabilizerInfo(None)
    return StabilizerInfo(sum(1 for _ in _rotations(pts, pts, eps)))


@dataclass
class So2Registry:
    """SO(2) orbits seen so far: multiset size -> (representative points,
    the representative's stabilizer, orbit code) in registration order."""

    eps: float
    orbits: Dict[int, List[Tuple[list, StabilizerInfo, int]]] = field(default_factory=dict)
    count: int = 0


def so2_registry(eps: float = DEFAULT_EPS) -> So2Registry:
    return So2Registry(eps)


def so2_hash(X, reg: So2Registry) -> So2Hash:
    """Encode the multiset X as norm = 1 + orbit index, angle = alpha * L.

    X joins the first registered orbit whose representative the rotation
    scan carries onto X, and alpha is that scan's smallest angle; a new
    orbit takes X as its representative (alpha = 0) and its stabilizer
    order L, found once per orbit. The product is well defined modulo 2*pi
    precisely because the representative is only determined up to its own
    stabilizer. Continuous-stabilizer orbits (all zero, or empty) take
    angle 0.
    """
    eps = reg.eps
    pts = _as_float_points(X)
    bucket = reg.orbits.setdefault(len(pts), [])
    for rep, stab, code in bucket:
        alpha = next(_rotations(rep, pts, eps), None) if pts else 0.0
        if alpha is not None:
            break
    else:
        code, alpha = reg.count, 0.0
        stab = stabilizer_order(pts, eps) if pts else StabilizerInfo(None)
        bucket.append((pts, stab, code))
        reg.count += 1
    norm = 1.0 + code
    phi = 0.0 if stab.continuous else (alpha * stab.order) % TWO_PI
    return So2Hash(
        vector=(norm * math.cos(phi), norm * math.sin(phi)),
        norm=norm,
        angle=phi,
        orbit_code=code,
        stabilizer=stab,
    )


def _as_floats(g1: GeometricGraph, g2: GeometricGraph) -> Tuple[GeometricGraph, ...]:
    """The pair as floats. Before `as_float`, each exact graph moves its min
    corner to the origin and sheds its unread vectors, and an exact pair is
    scaled by the power of two that brings its extent near 1, all exactly:
    rounding then stays relative to the extent wherever the input lies."""
    top = max((max(a) - min(a) for g in (g1, g2) for a in zip(*g.positions)), default=0)
    exact = g1.ctx.mode == g2.ctx.mode == EXACT and top
    s = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length()) if exact else 1

    def moved(g: GeometricGraph) -> GeometricGraph:
        lo = [min(a) for a in zip(*g.positions)]
        pos = tuple(tuple((c - o) * s for c, o in zip(x, lo)) for x in g.positions)
        return as_float(replace(g, positions=pos, vectors=((),) * g.n))

    return tuple(moved(g) if g.ctx.mode == EXACT else g for g in (g1, g2))


def run_so2_gwl(
    g1: GeometricGraph, g2: GeometricGraph, max_iters: Optional[int] = None
) -> Tuple[Verdict, RefinementTrace]:
    """Message-passing refinement whose node states are single 2-vectors.

    Step one hashes each relative position on its own and scales the unit
    result by a scalar-colour factor; step two folds a node's edge messages
    into one vector; later steps fold neighbour messages. Verdicts compare
    histograms of the message norms (the orbit codes), with the usual
    stopping rules. Both graphs are read as floats (`_as_floats`), so the
    pair may mix modes but must share one tolerance, and it takes the
    engines' pair step and its float scale.
    """
    if g1.dim != 2 or g2.dim != 2:
        raise ValueError("this refinement is defined for d = 2 only")
    orbits = so2_registry(g1.ctx.eps)

    def colours(g: GeometricGraph, reg: OrbitRegistry) -> Iterator[List[int]]:
        c = _scalar_colours(g, reg)
        yield c
        state = []
        for v in range(g.n):
            edge_msgs = []
            for u in g.neighbors(v):
                h = so2_hash([g.rel_vec(v, u)], orbits)
                factor = 1.0 + reg.intern_key(("m0", c[v], c[u], h.orbit_code))
                edge_msgs.append((factor * h.vector[0] / h.norm, factor * h.vector[1] / h.norm))
            state.append(edge_msgs)
        while True:
            hashes = [so2_hash(s, orbits) for s in state]
            yield [reg.intern_key(("orbit", h.orbit_code)) for h in hashes]
            state = [[hashes[u].vector for u in g.neighbors(v)] for v in range(g.n)]

    return _run(*_as_floats(g1, g2), None, max_iters, colours)


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
