"""Joint colour refinement: WL, geometric WL, invariant GWL, and k-body IGWL.

All four engines refine the disjoint union of a graph pair with one shared
registry, so colour ids are directly comparable between the two graphs.
The verdict compares per-graph colour histograms at every iteration
(including t=0); refinement stops at the first differing histogram, when
the induced partition repeats, or at the iteration cap.

GWL and IGWL colour objects by `OrbitRegistry.intern_orbit`, which is
injective on O(d)/SO(d) orbits. `i_hash_k` is the lossy k-body variant
behind `run_igwl_k`: it colours by the multiset of per-tuple invariants
over ordered (k-1)-tuples of neighbours drawn with repetition, so order k
only sees configurations of at most k nodes at a time.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from . import linalg
from .graph import GeometricGraph, GroupSpec, ModeMismatchError
from .numeric import Vec
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


def _check_pair(g1: GeometricGraph, g2: GeometricGraph, grp: Optional[GroupSpec]) -> None:
    if g1.dim != g2.dim:
        raise ValueError("graphs have different spatial dimensions")
    if g1.ctx.mode != g2.ctx.mode:
        raise ModeMismatchError("cannot compare graphs in different numeric modes")
    if grp is not None and grp.dim != g1.dim:
        raise ValueError("group dimension does not match the graphs")


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
    init: Callable[[GeometricGraph, int], List[int]],
    step: Callable[[GeometricGraph, List[int], int], List[int]],
    stable_exit: bool = True,
) -> Tuple[Verdict, RefinementTrace]:
    """Shared driver: init colours, iterate step, compare histograms.

    step(g, colours, which) returns next-iteration colours; which is 0/1 so
    stateful engines (GWL's growing objects) can keep per-graph state.

    stable_exit controls whether a repeated partition ends the run early.
    That exit is sound only when next colours are a function of the current
    partition (WL, IGWL, k-body IGWL). GWL colours depend on ever-deepening
    geometry, and a stable partition can still split later (the symmetric
    chain families do exactly that), so GWL runs its full budget and only
    reports stability as observed at the cap.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    c1, c2 = init(g1, 0), init(g2, 1)
    rows = [_row(0, c1, c2)]
    if not rows[0].histograms_equal:
        return (
            Verdict(True, 0, False),
            RefinementTrace(tuple(rows), HISTOGRAMS_DIFFER),
        )
    prev_sig = _partition_signature(c1, c2)
    stable_now = False
    for t in range(1, max_iters + 1):
        c1, c2 = step(g1, c1, 0), step(g2, c2, 1)
        rows.append(_row(t, c1, c2))
        if not rows[-1].histograms_equal:
            return (
                Verdict(True, t, False),
                RefinementTrace(tuple(rows), HISTOGRAMS_DIFFER),
            )
        sig = _partition_signature(c1, c2)
        stable_now = sig == prev_sig
        if stable_now and stable_exit:
            return (
                Verdict(False, t, True),
                RefinementTrace(tuple(rows), PARTITION_STABLE),
            )
        prev_sig = sig
    if stable_now:
        return (
            Verdict(False, max_iters, True),
            RefinementTrace(tuple(rows), PARTITION_STABLE),
        )
    return (
        Verdict(False, max_iters, False),
        RefinementTrace(tuple(rows), MAX_ITERS),
    )


def run_wl(
    g1: GeometricGraph, g2: GeometricGraph, max_iters: Optional[int] = None
) -> Tuple[Verdict, RefinementTrace]:
    """Plain colour refinement on scalars and adjacency; geometry ignored."""
    _check_pair(g1, g2, None)
    if max_iters is None:
        max_iters = _default_cap(g1, g2, geometric=False)
    reg = OrbitRegistry(g1.ctx, g1.dim, proper=False)

    def init(g: GeometricGraph, which: int) -> List[int]:
        return [reg.intern_key(("s", g.scalars[i])) for i in range(g.n)]

    def step(g: GeometricGraph, c: List[int], which: int) -> List[int]:
        return [
            reg.intern_key((c[i], tuple(sorted(c[j] for j in g.neighbors(i)))))
            for i in range(g.n)
        ]

    return _refine(g1, g2, max_iters, init, step)


def run_gwl(
    g1: GeometricGraph,
    g2: GeometricGraph,
    grp: GroupSpec,
    max_iters: Optional[int] = None,
) -> Tuple[Verdict, RefinementTrace]:
    """Geometric refinement: per-node objects accumulate the full rotated
    neighbourhood geometry, coloured injectively on group orbits."""
    _check_pair(g1, g2, grp)
    if max_iters is None:
        max_iters = _default_cap(g1, g2, geometric=True)
    reg = OrbitRegistry(g1.ctx, g1.dim, grp.proper)
    objs = [None, None]  # per-graph list of current objects

    def init(g: GeometricGraph, which: int) -> List[int]:
        c = [reg.intern_key(("s", g.scalars[i])) for i in range(g.n)]
        objs[which] = [Leaf(c[i], g.vectors[i]) for i in range(g.n)]
        return c

    def step(g: GeometricGraph, c: List[int], which: int) -> List[int]:
        prev = objs[which]
        nodes = [
            Node(
                c[i],
                prev[i],
                tuple(Child(c[j], prev[j], g.rel_vec(i, j)) for j in g.neighbors(i)),
            )
            for i in range(g.n)
        ]
        objs[which] = nodes
        return [reg.intern_orbit(node) for node in nodes]

    return _refine(g1, g2, max_iters, init, step, stable_exit=False)


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
    _check_pair(g1, g2, grp)
    if max_iters is None:
        max_iters = _default_cap(g1, g2, geometric=True)
    reg = OrbitRegistry(g1.ctx, g1.dim, grp.proper)

    def init(g: GeometricGraph, which: int) -> List[int]:
        return [reg.intern_key(("s", g.scalars[i])) for i in range(g.n)]

    def step(g: GeometricGraph, c: List[int], which: int) -> List[int]:
        out = []
        for i in range(g.n):
            node = Node(
                c[i],
                Leaf(c[i], g.vectors[i]),
                tuple(
                    Child(c[j], Leaf(c[j], g.vectors[j]), g.rel_vec(i, j))
                    for j in g.neighbors(i)
                ),
            )
            out.append(reg.intern_orbit(node))
        return out

    return _refine(g1, g2, max_iters, init, step)


def _tuple_descriptor(
    centre_vecs: Tuple[Vec, ...],
    picks: Sequence[Tuple[int, Tuple[Vec, ...], Vec]],
    reg: OrbitRegistry,
) -> tuple:
    colours = tuple(p[0] for p in picks)
    stack: List[Vec] = list(centre_vecs)
    shape = [len(centre_vecs)]
    for _, vecs, rel in picks:
        stack.extend(vecs)
        stack.append(rel)
        shape.append(len(vecs) + 1)
    gram = tuple(
        tuple(linalg.dot(stack[a], stack[b]) for b in range(a, len(stack)))
        for a in range(len(stack))
    )
    sign = 0
    if reg.proper:
        idx = linalg.independent_subset(stack, reg.ctx, reg.dim)
        if len(idx) == reg.dim:
            sign = linalg.det_sign([stack[i] for i in idx], reg.ctx)
    return (colours, tuple(shape), gram, sign)


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
    sign joins the descriptor when the stack spans the space.
    """
    if k < 2:
        raise ValueError("body order k must be at least 2")
    c_centre, centre_vecs = centre
    if not nbrs:
        return reg.intern_key(("kbody-isolated", k, c_centre))

    def tuples(depth: int):
        if depth == 0:
            yield ()
            return
        for rest in tuples(depth - 1):
            for nb in nbrs:
                yield rest + (nb,)

    descriptors = sorted(
        _tuple_descriptor(centre_vecs, picks, reg) for picks in tuples(k - 1)
    )
    return reg.intern_bag(("kbody", k, c_centre, tuple(descriptors)))


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
    _check_pair(g1, g2, grp)
    if max_iters is None:
        max_iters = _default_cap(g1, g2, geometric=True)
    reg = OrbitRegistry(g1.ctx, g1.dim, grp.proper)

    def init(g: GeometricGraph, which: int) -> List[int]:
        return [reg.intern_key(("s", g.scalars[i])) for i in range(g.n)]

    def step(g: GeometricGraph, c: List[int], which: int) -> List[int]:
        out = []
        for i in range(g.n):
            nbrs = [(c[j], g.vectors[j], g.rel_vec(i, j)) for j in g.neighbors(i)]
            out.append(i_hash_k((c[i], g.vectors[i]), nbrs, k, reg))
        return out

    return _refine(g1, g2, max_iters, init, step)
