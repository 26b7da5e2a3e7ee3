"""Joint colour refinement: WL, geometric WL, invariant GWL, and k-body IGWL.

Every engine is a colour stream: `colours(g)` is a generator that yields
the t = 0 colours and then one colour list per iteration, keeping any
per-graph state (GWL's growing objects, the relative vectors and k-body
geometry built once) as its own locals. Both graphs' streams share one
registry, so colour ids are directly comparable between the two graphs.
`_refine` walks the two streams side by side and compares per-graph
colour histograms at every iteration (including t=0); it stops at the
first differing histogram, when the induced partition repeats, or at the
iteration cap.

GWL and IGWL colour objects by `OrbitRegistry.intern_orbit`, which is
injective on O(d)/SO(d) orbits. `i_hash_k` is the lossy k-body variant
behind `run_igwl_k`: it colours by the multiset of per-tuple invariants
over ordered (k-1)-tuples of neighbours drawn with repetition, so order k
only sees configurations of at most k nodes at a time. A tuple's Gram
entries, shape and sign never change, so a stream builds them once per node
and each iteration reads only its picks' colours.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, product
from math import lcm, ldexp
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .graph import GeometricGraph, GroupSpec, ModeMismatchError, _extent_exponent
from .numeric import EXACT, FLOAT, Vec
from .objects import Child, Leaf, Node
from .registry import OrbitRegistry

HISTOGRAMS_DIFFER = "histograms_differ"
PARTITION_STABLE = "partition_stable"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    histogram_1: Tuple[Tuple[int, int], ...]  # sorted (colour, count)
    histogram_2: Tuple[Tuple[int, int], ...]
    class_count: int

    @property
    def histograms_equal(self) -> bool:
        return self.histogram_1 == self.histogram_2


@dataclass(frozen=True)
class RefinementTrace:
    rows: Tuple[TraceRow, ...]
    termination: str  # histograms_differ | partition_stable | max_iters

    def to_dict(self) -> dict:
        return {
            "termination": self.termination,
            "rows": [
                {
                    "iteration": r.iteration,
                    "histogram_1": [list(p) for p in r.histogram_1],
                    "histogram_2": [list(p) for p in r.histogram_2],
                    "class_count": r.class_count,
                }
                for r in self.rows
            ],
        }


@dataclass(frozen=True)
class Verdict:
    distinguished: bool
    iteration: int  # first differing iteration, or iterations run
    stable: bool  # meaningful only when indistinguishable

    def to_dict(self) -> dict:
        out = {"verdict": "distinguished" if self.distinguished else "indistinguishable"}
        if self.distinguished:
            out["iteration"] = self.iteration
        else:
            out["iterations_run"] = self.iteration
            out["stable"] = self.stable
        return out


def report_dict(test: str, grp: Optional[GroupSpec], verdict: Verdict, trace: RefinementTrace) -> dict:
    out = {"test": test}
    if grp is not None:
        out["group"] = f"{grp.variant}({grp.dim})"
    out.update(verdict.to_dict())
    out["trace"] = trace.to_dict()
    return out


def _pair(
    g1: GeometricGraph, g2: GeometricGraph, grp: Optional[GroupSpec]
) -> Tuple[GeometricGraph, GeometricGraph]:
    """The one step every engine and the oracle take on a compared pair:
    check it (one dimension, one mode, one eps for a float pair), then scale
    both graphs by one factor. An exact pair goes onto plain ints by m, the
    LCM of its denominators: Gram entries scale by m^2 and determinants by
    m^d, so every comparison, colour and trace is as unscaled. A float pair
    is scaled by 2^-e, e the `frexp` exponent of its extent (coordinate
    ranges and |feature components|), with `ldexp`: exact short of over- and
    underflow, so pairs that differ by a power of two become bit-identical.
    """
    if g1.dim != g2.dim:
        raise ValueError("graphs have different spatial dimensions")
    if g1.ctx.mode != g2.ctx.mode or (g1.ctx.mode == FLOAT and g1.ctx.eps != g2.ctx.eps):
        raise ModeMismatchError("cannot compare graphs in different numeric modes or tolerances")
    if grp is not None and grp.dim != g1.dim:
        raise ValueError("group dimension does not match the graphs")
    m, e = 1, 0  # the factor is m (exact) or 2^-e (float)
    if g1.ctx.mode == EXACT:
        m = lcm(*(c.denominator for g in (g1, g2) for v in chain(g.positions, *g.vectors) for c in v))
    else:
        comps = (abs(c) for g in (g1, g2) for v in chain(*g.vectors) for c in v)
        e = _extent_exponent((g1.positions, g2.positions), comps)
    if m == 1 and e == 0:
        return g1, g2  # a factor of 1 keeps the callers' graphs

    def up(vec: Vec) -> Vec:
        return tuple(ldexp(c, -e) if e else c.numerator * (m // c.denominator) for c in vec)

    return tuple(
        replace(
            g,
            positions=tuple(map(up, g.positions)),
            vectors=tuple(tuple(map(up, vs)) for vs in g.vectors),
        )
        for g in (g1, g2)
    )


def _default_cap(g1: GeometricGraph, g2: GeometricGraph, geometric: bool) -> int:
    """Default iteration budget.

    Geometric refinement saturates once objects cover whole components, so
    it is capped at the largest component diameter plus one; colours never
    cross component boundaries, so running longer cannot help. Plain WL is
    cheap and gets the classical n1+n2 bound.
    """
    if not geometric:
        return max(1, g1.n + g2.n)
    return max(1, g1.component_diameter(), g2.component_diameter()) + 1


def _row(t: int, c1: List[int], c2: List[int]) -> TraceRow:
    h1 = tuple(sorted(Counter(c1).items()))
    h2 = tuple(sorted(Counter(c2).items()))
    return TraceRow(t, h1, h2, len(set(c1) | set(c2)))


def _partition_signature(c1: List[int], c2: List[int]) -> tuple:
    first: dict = {}
    sig = []
    for c in c1 + c2:
        if c not in first:
            first[c] = len(first)
        sig.append(first[c])
    return tuple(sig)


def _refine(
    g1: GeometricGraph,
    g2: GeometricGraph,
    max_iters: int,
    colours: Callable[[GeometricGraph], Iterator[List[int]]],
    stable_exit: bool = True,
) -> Tuple[Verdict, RefinementTrace]:
    """Shared driver: walk both graphs' colour streams, compare histograms.

    colours(g) yields the t = 0 colours and then one colour list per
    iteration. zip asks g1's stream before g2's at every t, so colours are
    interned in the same order as refining g1 then g2 step by step, and
    first-encounter colour ids do not depend on how an engine is written.
    The loop returns before asking for the next item, so no step past the
    stopping point is computed.

    stable_exit controls whether a repeated partition ends the run early.
    That exit is sound only when next colours are a function of the current
    partition (WL, IGWL, k-body IGWL). GWL colours depend on ever-deepening
    geometry, and a stable partition can still split later (the symmetric
    chain families do exactly that), so GWL runs its full budget and only
    reports stability as observed at the cap.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rows: List[TraceRow] = []
    prev_sig = None
    for t, (c1, c2) in enumerate(zip(colours(g1), colours(g2))):
        rows.append(_row(t, c1, c2))
        if not rows[-1].histograms_equal:
            return Verdict(True, t, False), RefinementTrace(tuple(rows), HISTOGRAMS_DIFFER)
        sig = _partition_signature(c1, c2)
        if sig == prev_sig and (stable_exit or t == max_iters):
            return Verdict(False, t, True), RefinementTrace(tuple(rows), PARTITION_STABLE)
        if t == max_iters:
            return Verdict(False, t, False), RefinementTrace(tuple(rows), MAX_ITERS)
        prev_sig = sig


def _run(
    g1: GeometricGraph, g2: GeometricGraph, grp: Optional[GroupSpec], max_iters: Optional[int],
    colours: Callable[[GeometricGraph, OrbitRegistry], Iterator[List[int]]],
    stable_exit: bool = True,
) -> Tuple[Verdict, RefinementTrace]:
    """The one prologue of the engines: take the pair step, set the default
    budget, and refine with one registry shared by both graphs' streams.
    grp is None for plain WL."""
    g1, g2 = _pair(g1, g2, grp)
    if max_iters is None:
        max_iters = _default_cap(g1, g2, geometric=grp is not None)
    reg = OrbitRegistry(g1.ctx, g1.dim, grp is not None and grp.proper)
    return _refine(g1, g2, max_iters, lambda g: colours(g, reg), stable_exit)


def _scalar_colours(g: GeometricGraph, reg: OrbitRegistry) -> List[int]:
    return [reg.intern_key(("s", g.scalars[i])) for i in range(g.n)]


def _leaves(g: GeometricGraph, c: List[int]) -> List[Leaf]:
    return [Leaf(c[i], g.vectors[i]) for i in range(g.n)]


def _rels(g: GeometricGraph) -> List[List[Tuple[int, Vec]]]:
    """Each node i's (j, x_i - x_j) over its neighbours j, in order. Every
    iteration reads the same ones, so a stream builds them once."""
    return [[(j, g.rel_vec(i, j)) for j in g.neighbors(i)] for i in range(g.n)]


def _nodes(rels: Sequence, c: List[int], sub: Sequence) -> List[Node]:
    """Depth-one objects: node i's colour and sub-object, with each
    neighbour's colour, sub-object and relative position (rels: `_rels`)."""
    return [Node(c[i], sub[i], tuple(Child(c[j], sub[j], r) for j, r in nbrs)) for i, nbrs in enumerate(rels)]


def run_wl(
    g1: GeometricGraph, g2: GeometricGraph, max_iters: Optional[int] = None
) -> Tuple[Verdict, RefinementTrace]:
    """Plain colour refinement on scalars and adjacency; geometry ignored."""
    def colours(g: GeometricGraph, reg: OrbitRegistry) -> Iterator[List[int]]:
        c = _scalar_colours(g, reg)
        while True:
            yield c
            c = [
                reg.intern_key((c[i], tuple(sorted(c[j] for j in g.neighbors(i)))))
                for i in range(g.n)
            ]

    return _run(g1, g2, None, max_iters, colours)


def run_gwl(
    g1: GeometricGraph,
    g2: GeometricGraph,
    grp: GroupSpec,
    max_iters: Optional[int] = None,
) -> Tuple[Verdict, RefinementTrace]:
    """Geometric refinement: per-node objects accumulate the full rotated
    neighbourhood geometry, coloured injectively on group orbits."""
    def colours(g: GeometricGraph, reg: OrbitRegistry) -> Iterator[List[int]]:
        c = _scalar_colours(g, reg)
        yield c
        rels, objs = _rels(g), _leaves(g, c)
        while True:
            objs = _nodes(rels, c, objs)
            c = [reg.intern_orbit(o) for o in objs]
            yield c

    return _run(g1, g2, grp, max_iters, colours, stable_exit=False)


def run_igwl(
    g1: GeometricGraph,
    g2: GeometricGraph,
    grp: GroupSpec,
    max_iters: Optional[int] = None,
) -> Tuple[Verdict, RefinementTrace]:
    """Invariant variant: colours propagate, geometry stays first-hop.

    Each iteration re-hashes a depth-1 object built from the CURRENT
    colours but the fixed initial vectors and relative positions.
    """
    def colours(g: GeometricGraph, reg: OrbitRegistry) -> Iterator[List[int]]:
        c = _scalar_colours(g, reg)
        yield c
        rels = _rels(g)
        while True:
            c = [reg.intern_orbit(o) for o in _nodes(rels, c, _leaves(g, c))]
            yield c

    return _run(g1, g2, grp, max_iters, colours)


def _kbody_geometry(centre_vecs: Tuple[Vec, ...], blocks: Sequence, k: int, reg: OrbitRegistry) -> List[tuple]:
    """The colour-free part of `i_hash_k`: one (shape, Gram entries, sign)
    per ordered (k-1)-tuple of neighbours' blocks, in `product` order. A
    neighbour's block is its vectors, then its relative position; a tuple's
    stack is the centre's vectors, then its blocks. The Gram entries (the
    stack's upper triangle, row by row) are read from one symmetric table of
    dots over the centre's and every block's vectors."""
    pool, spans = list(centre_vecs), []
    for vecs, rel in blocks:
        spans.append(range(len(pool), len(pool) + len(vecs) + 1))
        pool += (*vecs, rel)
    table = [[0] * len(pool) for _ in pool]
    for a, u in enumerate(pool):
        for b in range(a, len(pool)):
            table[a][b] = table[b][a] = linalg.dot(u, pool[b])
    geometry, head, shapes = [], range(len(centre_vecs)), {}
    for picks in product(spans, repeat=k - 1):
        idx = [*head, *chain.from_iterable(picks)]
        gram = tuple([table[a][b] for s, a in enumerate(idx) for b in idx[s:]])
        sign = 0
        if reg.proper:
            kept = linalg.independent_subset([pool[a] for a in idx], reg.ctx, reg.dim)
            if len(kept) == reg.dim:
                sign = linalg.det_sign([pool[idx[a]] for a in kept], reg.ctx)
        shape = (len(head), *map(len, picks))
        geometry.append((shapes.setdefault(shape, shape), gram, sign))
    return geometry


def _kbody_colour(centre: int, colours: Sequence[int], geometry: list, k: int, reg: OrbitRegistry) -> int:
    """The colour step of `i_hash_k`: each tuple's descriptor (its
    neighbours' colours, shape, Gram entries, sign), sorted, interned as the
    bag's exact part and its Gram entries in that order. With the same
    colours and shape, two flat Gram tuples sort as their rows would."""
    if not geometry:
        return reg.intern_key(("kbody-isolated", k, centre))
    tuples = zip(product(colours, repeat=k - 1), geometry)
    bag = sorted([(cs, shape, gram, sign) for cs, (shape, gram, sign) in tuples])
    exact = ("kbody", k, centre, tuple((cs, shape, sign) for cs, shape, _, sign in bag))
    return reg.intern_bag(exact, tuple(chain.from_iterable(gram for _, _, gram, _ in bag)))


def i_hash_k(
    centre: Tuple[int, Tuple[Vec, ...]],
    nbrs: Sequence[Tuple[int, Tuple[Vec, ...], Vec]],
    k: int,
    reg: OrbitRegistry,
) -> int:
    """Colour from the multiset of (k-1)-tuple invariants around a centre.

    centre is (colour, vectors); each neighbour is (colour, vectors,
    relative position). Tuples are ordered and drawn with repetition, so
    the Gram matrix of the stacked vectors [centre's, then per neighbour
    its vectors and the relative position] needs no within-tuple
    canonicalisation. Under a rotation-only group the stack's orientation
    sign joins the descriptor when the stack spans the space. This is
    `run_igwl_k`'s two steps at once: the colour-free `_kbody_geometry`, which
    a stream builds once, and the per-iteration `_kbody_colour`.
    """
    if k < 2:
        raise ValueError("body order k must be at least 2")
    geometry = _kbody_geometry(centre[1], [(vecs, rel) for _, vecs, rel in nbrs], k, reg)
    return _kbody_colour(centre[0], [c for c, _, _ in nbrs], geometry, k, reg)


def run_igwl_k(
    g1: GeometricGraph,
    g2: GeometricGraph,
    grp: GroupSpec,
    k: int,
    max_iters: Optional[int] = None,
) -> Tuple[Verdict, RefinementTrace]:
    """IGWL restricted to k-body invariants of the fixed first-hop geometry."""
    if k < 2:
        raise ValueError("body order k must be at least 2")

    def colours(g: GeometricGraph, reg: OrbitRegistry) -> Iterator[List[int]]:
        c = _scalar_colours(g, reg)
        yield c
        rels = _rels(g)
        geometry = [_kbody_geometry(g.vectors[i], [(g.vectors[j], r) for j, r in nbrs], k, reg)
                    for i, nbrs in enumerate(rels)]
        while True:
            c = [
                _kbody_colour(c[i], [c[j] for j, _ in nbrs], geo, k, reg)
                for i, (nbrs, geo) in enumerate(zip(rels, geometry))
            ]
            yield c

    return _run(g1, g2, grp, max_iters, colours)
