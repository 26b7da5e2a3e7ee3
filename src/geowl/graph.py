"""Geometric graph data model, isometries, and radial-cutoff construction.

A geometric graph couples a simple attributed graph (symmetric boolean
adjacency, per-node tuples of discrete scalar tokens) with geometry: a
position per node and an optional ordered list of feature vectors per
node, all in one numeric mode. Positions only ever enter computations as
relative vectors, so translation invariance is structural rather than
checked.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import frexp, inf, isfinite, ldexp
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .numeric import (
    DEFAULT_EPS,
    EXACT,
    FLOAT,
    NumericContext,
    NumericError,
    Vec,
    format_component,
    infer_mode,
)


class GraphError(ValueError):
    """Structurally invalid geometric graph."""


class ModeMismatchError(GraphError):
    """Two graphs with different numeric modes or tolerances were compared."""


class CoincidentPointsWarning(UserWarning):
    """Two input points share a position (distance zero yields no edge)."""


@dataclass(frozen=True)
class GroupSpec:
    """Symmetry group for congruence tests: O(d) or rotation-only SO(d)."""

    variant: str  # "O" | "SO"
    dim: int

    def __post_init__(self):
        if self.variant not in ("O", "SO"):
            raise GraphError(f"unknown group variant {self.variant!r}")
        if self.dim not in (1, 2, 3):
            raise GraphError("spatial dimension must be 1, 2 or 3")

    @property
    def proper(self) -> bool:
        return self.variant == "SO"


@dataclass(frozen=True)
class IsometryWitness:
    """A combined node relabelling and rigid motion.

    permutation maps source node index -> target node index; matrix is the
    orthogonal map (rows) applied to positions and feature vectors;
    translation is added to positions after rotation.
    """

    permutation: Tuple[int, ...]
    matrix: Tuple[Vec, ...]
    translation: Vec

    @property
    def dim(self) -> int:
        return len(self.translation)


@dataclass(frozen=True)
class GeometricGraph:
    dim: int
    ctx: NumericContext
    scalars: Tuple[tuple, ...]
    vectors: Tuple[Tuple[Vec, ...], ...]
    positions: Tuple[Vec, ...]
    edges: frozenset  # frozenset of (i, j) with i < j
    _nbrs: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.positions)
        if not (len(self.scalars) == len(self.vectors) == n):
            raise GraphError("scalars, vectors and positions must have equal length")
        if n:
            arity = len(self.scalars[0])
            if any(len(s) != arity for s in self.scalars):
                raise GraphError("scalar tuples must have uniform arity")
        for i, s in enumerate(self.scalars):
            # type() rather than isinstance: True must not pass as 1, and a
            # NaN token would not equal itself
            if not all(type(t) in (str, int) or type(t) is float and isfinite(t) for t in s):
                raise GraphError(f"node {i}: scalars must be strings, ints or finite floats")
        for x in self.positions:
            if len(x) != self.dim:
                raise GraphError("position dimension mismatch")
        for vs in self.vectors:
            for v in vs:
                if len(v) != self.dim:
                    raise GraphError("vector feature dimension mismatch")
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise GraphError(f"edge ({i}, {j}) out of range")
        nbrs: List[List[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        object.__setattr__(self, "_nbrs", tuple(tuple(sorted(b)) for b in nbrs))

    @property
    def n(self) -> int:
        return len(self.positions)

    def neighbors(self, i: int) -> Tuple[int, ...]:
        return self._nbrs[i]

    def degree(self, i: int) -> int:
        return len(self._nbrs[i])

    def rel_vec(self, i: int, j: int) -> Vec:
        """Relative position x_i - x_j."""
        return linalg.vsub(self.positions[i], self.positions[j])

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def diameter(self) -> Optional[int]:
        """Longest shortest path; None when disconnected (or n == 0)."""
        if self.n == 0:
            return None
        best = 0
        for src in range(self.n):
            dist = self._bfs(src)
            if len(dist) < self.n:
                return None
            best = max(best, max(dist.values()))
        return best

    def component_diameter(self) -> int:
        """Largest within-component eccentricity (0 for an empty graph)."""
        best = 0
        for src in range(self.n):
            dist = self._bfs(src)
            best = max(best, max(dist.values()))
        return best

    def _bfs(self, src: int) -> dict:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._nbrs[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist


def _normalise_edges(edges) -> frozenset:
    out = set()
    for i, j in edges:
        if i == j:
            raise GraphError("self-loops are not allowed")
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


def geometric_graph(
    dim: int,
    positions: Sequence[Sequence],
    edges: Sequence[Tuple[int, int]] = (),
    scalars: Optional[Sequence[tuple]] = None,
    vectors: Optional[Sequence[Sequence[Sequence]]] = None,
    mode: Optional[str] = None,
    eps: float = DEFAULT_EPS,
) -> GeometricGraph:
    """Coerce raw components and build a validated graph."""
    n = len(positions)
    if mode is None:
        flat = [c for p in positions for c in p]
        if vectors:
            flat += [c for vs in vectors for v in vs for c in v]
        mode = infer_mode(flat)
    ctx = NumericContext(mode, eps)
    pos = tuple(tuple(ctx.coerce(c) for c in p) for p in positions)
    scal = tuple(tuple(s) for s in scalars) if scalars is not None else tuple(() for _ in range(n))
    if vectors is None:
        vecs: Tuple[Tuple[Vec, ...], ...] = tuple(() for _ in range(n))
    else:
        vecs = tuple(
            tuple(tuple(ctx.coerce(c) for c in v) for v in (vs or ())) for vs in vectors
        )
    return GeometricGraph(
        dim=dim,
        ctx=ctx,
        scalars=scal,
        vectors=vecs,
        positions=pos,
        edges=_normalise_edges(edges),
    )


def build_radial_graph(points, r, mode: Optional[str] = None, eps: float = DEFAULT_EPS) -> GeometricGraph:
    """Connect every pair at (positive) distance <= r.

    points: sequence of (scalars, vectors, position) triples; vectors may be
    None. Coincident points are legal but yield no edge; they are flagged
    with a warning because that consequence is easy to miss.
    """
    if not points:
        raise GraphError("at least one point is required")
    positions = [tuple(p[2]) for p in points]
    dim = len(positions[0])
    if any(len(x) != dim for x in positions):
        raise GraphError("all points must share one spatial dimension")
    g = geometric_graph(
        dim, positions, (), [tuple(p[0]) for p in points], [p[1] or () for p in points],
        mode=mode, eps=eps,
    )
    r = g.ctx.coerce(r)
    if not r > 0:  # strictly, at any unit of length
        raise GraphError("cutoff radius must be positive")
    edges, coincident = _cutoff_edges(g, r, squared=False)
    if coincident:
        msg = "coincident points in radial-cutoff input: distance 0 produces no edge"
        warnings.warn(msg, CoincidentPointsWarning, stacklevel=2)
    return replace(g, edges=edges)


def with_cutoff_sq(g: GeometricGraph, r_sq) -> GeometricGraph:
    """The same graph re-edged by squared radial cutoff: i ~ j iff
    0 < |x_i - x_j|^2 <= r_sq. Coincident points get no edge and no
    warning here."""
    return replace(g, edges=_cutoff_edges(g, r_sq, squared=True)[0])


def _extent_exponent(position_sets, magnitudes=()) -> int:
    """The `frexp` exponent of an extent: the largest coordinate range of
    one position set on any axis (so translation is free) or magnitude."""
    axes = [axis for ps in position_sets for axis in zip(*ps)]
    extent = max((*(max(a) - min(a) for a in axes), *magnitudes), default=0.0)
    if extent == inf:  # a range past the float maximum: halve its ends first
        return frexp(max(max(a) / 2 - min(a) / 2 for a in axes))[1] + 1
    return frexp(extent)[1]


def _cutoff_edges(g: GeometricGraph, cut, squared: bool) -> Tuple[frozenset, bool]:
    """The one cutoff rule: pairs i < j with 0 < d2 = |x_i - x_j|^2 <= r_sq,
    r_sq = cut if squared else cut^2, and whether some d2 is 0. Squares keep
    exact mode exact and admit irrational radii. Float mode first scales the
    points and cutoff by 2^-e (e of the points' extent), so no square over-
    or underflows: d2 is 0 within eps of the extent, <= r_sq within eps of r_sq."""
    ctx, pos, edges, coincident = g.ctx, g.positions, set(), False
    if ctx.mode == FLOAT:
        e = _extent_exponent((pos,))
        pos = [tuple(ldexp(c, -e) for c in x) for x in pos]
        k = -2 * e if squared else -e
        cut = ldexp(cut, k) if frexp(cut)[1] + k < 1024 else inf  # ldexp raises past 2^1024
    r_sq = cut if squared else cut * cut
    for i in range(g.n):
        for j in range(i + 1, g.n):
            d2 = linalg.norm_sq(linalg.vsub(pos[i], pos[j]))
            if ctx.is_zero(d2):
                coincident = True
            elif ctx.le(d2, r_sq) if ctx.mode == EXACT else r_sq > 0 and ctx.le(d2 / r_sq, 1.0):
                edges.add((i, j))
    return frozenset(edges), coincident


def _witness_is_exact(w: IsometryWitness) -> bool:
    comps = [c for row in w.matrix for c in row] + list(w.translation)
    return all(not isinstance(c, float) for c in comps)


def check_orthogonal(matrix: Sequence[Vec], ctx: NumericContext, dim: int) -> None:
    if len(matrix) != dim or any(len(row) != dim for row in matrix):
        raise GraphError("orthogonal matrix has wrong shape")
    prod = linalg.mat_mul(matrix, linalg.transpose(matrix))
    for i in range(dim):
        for j in range(dim):
            want = 1 if i == j else 0
            if not ctx.eq(prod[i][j], want):
                raise GraphError("matrix is not orthogonal within the numeric tolerance")


def as_float(g: GeometricGraph) -> GeometricGraph:
    """The one exact-to-float demotion: g in float mode at its own eps (g
    itself when it is float already)."""
    if g.ctx.mode == FLOAT:
        return g
    ctx = NumericContext(FLOAT, g.ctx.eps)
    sets = [tuple(tuple(map(ctx.coerce, v)) for v in vs) for vs in (g.positions, *g.vectors)]
    return replace(g, ctx=ctx, positions=sets[0], vectors=tuple(sets[1:]))


def apply_isometry(g: GeometricGraph, w: IsometryWitness) -> GeometricGraph:
    """Relabel nodes and rigidly move the geometry.

    Output node w.permutation[i] receives node i's attributes; positions
    map to Q x + t and every feature vector to Q v. Applying a float-valued
    witness to an exact graph demotes the result to float mode (warned).
    """
    if w.dim != g.dim:
        raise GraphError("witness dimension does not match the graph")
    perm = w.permutation
    if sorted(perm) != list(range(g.n)):
        raise GraphError("permutation is not a bijection on the node set")
    if g.ctx.mode == EXACT and not _witness_is_exact(w):
        warnings.warn(
            "irrational isometry applied to an exact graph: result demoted to float mode",
            UserWarning,
            stacklevel=2,
        )
        g = as_float(g)
    ctx = g.ctx
    q = tuple(tuple(ctx.coerce(c) for c in row) for row in w.matrix)
    t = tuple(ctx.coerce(c) for c in w.translation)
    check_orthogonal(q, ctx, g.dim)
    n = g.n
    pos: List[Optional[Vec]] = [None] * n
    scal: List[tuple] = [()] * n
    vecs: List[Tuple[Vec, ...]] = [()] * n
    for i in range(n):
        j = perm[i]
        pos[j] = linalg.vadd(linalg.matvec(q, g.positions[i]), t)
        scal[j] = g.scalars[i]
        vecs[j] = tuple(linalg.matvec(q, v) for v in g.vectors[i])
    edges = frozenset((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges)
    return GeometricGraph(
        dim=g.dim, ctx=ctx, scalars=tuple(scal), vectors=tuple(vecs),
        positions=tuple(pos), edges=edges,
    )


def induced_subgraph(g: GeometricGraph, nodes: Sequence[int]) -> GeometricGraph:
    """Subgraph on the given nodes (attributes and positions verbatim)."""
    idx = {v: k for k, v in enumerate(nodes)}
    if len(idx) != len(nodes):
        raise GraphError("duplicate nodes in subgraph selection")
    edges = [
        (idx[i], idx[j]) for i, j in g.edges if i in idx and j in idx
    ]
    return GeometricGraph(
        dim=g.dim,
        ctx=g.ctx,
        scalars=tuple(g.scalars[v] for v in nodes),
        vectors=tuple(g.vectors[v] for v in nodes),
        positions=tuple(g.positions[v] for v in nodes),
        edges=_normalise_edges(edges),
    )


def neighborhood_subgraph(g: GeometricGraph, i: int, hops: int = 1) -> GeometricGraph:
    """Induced subgraph on i plus everything within the given hop count."""
    seen = {i}
    frontier = [i]
    for _ in range(hops):
        frontier = [w for u in frontier for w in g.neighbors(u) if w not in seen]
        seen.update(frontier)
    return induced_subgraph(g, sorted(seen))


def identity_witness(g: GeometricGraph) -> IsometryWitness:
    one = Fraction(1) if g.ctx.mode == EXACT else 1.0
    zero = Fraction(0) if g.ctx.mode == EXACT else 0.0
    return IsometryWitness(
        permutation=tuple(range(g.n)),
        matrix=linalg.identity(g.dim, one, zero),
        translation=(zero,) * g.dim,
    )


# --- JSON graph format -----------------------------------------------------
#
# { "dim": d, "numeric": "exact"|"float",
#   "nodes": [ {"s": [...], "v": [[...], ...]?, "x": [...]}, ... ],
#   "edges": [[i, j], ...] }          -- or --  "cutoff": component
#
# Exact components are encoded as "p/q" strings, float components as numbers.


class GraphFormatError(GraphError):
    """Unparseable graph file."""


def graph_to_dict(g: GeometricGraph) -> dict:
    mode = g.ctx.mode
    nodes = []
    for i in range(g.n):
        node = {
            "s": list(g.scalars[i]),
            "x": [format_component(c, mode) for c in g.positions[i]],
        }
        if g.vectors[i]:
            node["v"] = [[format_component(c, mode) for c in v] for v in g.vectors[i]]
        nodes.append(node)
    return {
        "dim": g.dim,
        "numeric": mode,
        "nodes": nodes,
        "edges": sorted([i, j] for i, j in g.edges),
    }


def graph_from_dict(data: dict, eps: float = DEFAULT_EPS) -> GeometricGraph:
    if not isinstance(data, dict):
        raise GraphFormatError("a graph file must be a JSON object")
    try:
        dim = data["dim"]
        mode = data["numeric"]
        raw_nodes = data["nodes"]
    except KeyError as exc:
        raise GraphFormatError(f"missing required graph field: {exc}") from exc
    # type() rather than isinstance: JSON true/false must not pass as 1/0
    if type(dim) is not int or dim not in (1, 2, 3):
        raise GraphFormatError(f"dim must be 1, 2 or 3, got {dim!r}")
    if mode not in (EXACT, FLOAT):
        raise GraphFormatError(f"unknown numeric mode {mode!r}")
    if not isinstance(raw_nodes, list):
        raise GraphFormatError("nodes must be a JSON list of node objects")
    ctx = NumericContext(mode, eps)
    points = []
    for k, node in enumerate(raw_nodes):
        if not isinstance(node, dict):
            raise GraphFormatError(f"bad node {k}: must be a JSON object")
        try:
            x, s, v = node["x"], node.get("s", []), node.get("v", [])
            # a string or object would iterate as characters or keys
            if not all(isinstance(f, list) for f in (x, s, v)) or not all(
                isinstance(vec, list) for vec in v
            ):
                raise TypeError("x, s, v and each vector in v must be JSON lists")
            x = tuple(map(ctx.coerce, x))
            s = tuple(s)
            v = tuple(tuple(map(ctx.coerce, vec)) for vec in v)
        except (KeyError, TypeError, NumericError) as exc:
            raise GraphFormatError(f"bad node {k}: {exc}") from exc
        if any(len(vec) != dim for vec in (x,) + v):
            raise GraphFormatError(f"bad node {k}: every vector must have {dim} components")
        points.append((s, v, x))
    if "cutoff" in data:
        if "edges" in data:
            raise GraphFormatError("give either 'edges' or 'cutoff', not both")
        try:
            r = ctx.coerce(data["cutoff"])
        except NumericError as exc:
            raise GraphFormatError(f"bad cutoff: {exc}") from exc
        return build_radial_graph(points, r, mode=mode, eps=eps)
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(i) is int for i in e) for e in edges
    ):
        raise GraphFormatError("edges must be a list of [i, j] node index pairs")
    # the components are coerced already: build the graph without a second pass
    scalars, vectors, positions = zip(*points) if points else ((), (), ())
    return GeometricGraph(dim, ctx, scalars, vectors, positions, _normalise_edges(edges))


def dump_graph(g: GeometricGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=1)
        fh.write("\n")


def read_json(path: str):
    """Decode the UTF-8 JSON file at path; undecodable bytes, invalid JSON
    and JSON past the interpreter's limits raise GraphFormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise GraphFormatError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # an int literal past sys.get_int_max_str_digits()
        raise GraphFormatError(f"{path}: a JSON integer has too many digits") from exc


def load_graph(path: str, eps: float = DEFAULT_EPS) -> GeometricGraph:
    """The graph in the JSON file at path; every refusal raises
    GraphFormatError naming the file, as read_json's do."""
    data = read_json(path)
    try:
        return graph_from_dict(data, eps=eps)
    except ValueError as exc:  # GraphError and NumericError
        raise GraphFormatError(f"{path}: {exc}") from exc
