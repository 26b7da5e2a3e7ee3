"""Nested colour/vector objects and exact orbit equality under O(d) / SO(d).

The refinement engines build, per node and per iteration, a small tree:
a Leaf carries a colour plus that node's feature vectors, a Node wraps a
centre object with an unordered bag of Child objects, and each Child pairs
a neighbour's object with the relative position of that neighbour. Two
such trees are "orbit equal" when some single orthogonal map Q (rotation
only, for SO) sends every vector in one tree onto the corresponding vector
of the other under some matching of the unordered children. That is decided
exactly: children are matched by backtracking and the candidate Q is
constrained incrementally through a Gram matcher rather than ever being
computed.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .linalg import GramMatcher, norm_sq
from .numeric import NumericContext, Vec


@dataclass(frozen=True)
class Leaf:
    colour: int
    vectors: Tuple[Vec, ...] = ()


@dataclass(frozen=True)
class Child:
    colour: int
    obj: "GeomObject"
    rel: Vec


@dataclass(frozen=True)
class Node:
    colour: int
    obj: "GeomObject"
    children: Tuple[Child, ...]


GeomObject = object  # Leaf | Node


def skeleton(obj) -> tuple:
    """Geometry-free structural key: colours and shape only.

    Objects in different skeleton classes can never be orbit equal, so the
    registry buckets by this key and the matcher only compares within a
    bucket.
    """
    if isinstance(obj, Leaf):
        return ("L", obj.colour, len(obj.vectors))
    return (
        "N",
        obj.colour,
        skeleton(obj.obj),
        tuple(sorted((c.colour, skeleton(c.obj)) for c in obj.children)),
    )


def _collect_vectors(obj, out: List[Vec]) -> None:
    if isinstance(obj, Leaf):
        out.extend(obj.vectors)
        return
    _collect_vectors(obj.obj, out)
    for c in obj.children:
        out.append(c.rel)
        _collect_vectors(c.obj, out)


def norm_profile(obj, ctx: NumericContext) -> tuple:
    """Sorted squared norms of every vector in the tree.

    Invariant under any orthogonal map and any matching of children, hence
    a cheap prefilter before the full orbit search. Float norms are rounded
    through the context tolerance is NOT applied here; callers in float
    mode must treat unequal profiles as inconclusive and fall back to the
    matcher. In exact mode the profile is a true invariant.
    """
    vecs: List[Vec] = []
    _collect_vectors(obj, vecs)
    return tuple(sorted(norm_sq(v) for v in vecs))


def _push_pairs(
    matcher: GramMatcher, pairs: Sequence[Tuple[Vec, Vec]]
) -> bool:
    for a, b in pairs:
        if not matcher.push(a, b):
            return False
    return True


def _match_objects(a, b, matcher: GramMatcher, k: Callable[[], bool]) -> bool:
    """Try to align a with b under the matcher's partial map; call k on success.

    Continuation style so that constraints added deep in the tree (and the
    final orientation check) can force backtracking over earlier child
    matchings.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, Leaf):
        if a.colour != b.colour or len(a.vectors) != len(b.vectors):
            return False
        mark = matcher.mark()
        if _push_pairs(matcher, list(zip(a.vectors, b.vectors))) and k():
            return True
        matcher.rewind(mark)
        return False
    if a.colour != b.colour or len(a.children) != len(b.children):
        return False

    def after_centre() -> bool:
        return _match_children(list(a.children), list(b.children), matcher, k)

    return _match_objects(a.obj, b.obj, matcher, after_centre)


def _match_children(rest_a: List[Child], rest_b: List[Child], matcher, k) -> bool:
    # only the colour is compared up front: the push rejects a differing
    # rel norm through the dot cache, and _match_objects a differing shape
    if not rest_a:
        return k()
    ca = rest_a[0]
    tail = rest_a[1:]
    for idx, cb in enumerate(rest_b):
        if cb.colour != ca.colour:
            continue
        mark = matcher.mark()
        if matcher.push(ca.rel, cb.rel):
            remaining = rest_b[:idx] + rest_b[idx + 1 :]

            def after_subtree(tail=tail, remaining=remaining) -> bool:
                return _match_children(tail, remaining, matcher, k)

            if _match_objects(ca.obj, cb.obj, matcher, after_subtree):
                return True
        matcher.rewind(mark)
    return False


def orbit_equal(a, b, ctx: NumericContext, dim: int, proper: bool) -> bool:
    """Decide whether some Q in O(dim) (SO(dim) when proper) maps b's vectors
    onto a's under a matching of unordered children.

    No skeleton or norm-profile prefilter runs here: the registry buckets
    by both before it calls this, and the search itself rejects any
    difference in structure (colours, shapes, child skeletons) or in a
    vector's norm, so a direct call gets the same answer.
    """
    # the continuation-style search nests one frame per matched tree node;
    # deep refinement objects overrun the default interpreter limit
    if sys.getrecursionlimit() < 200000:
        sys.setrecursionlimit(200000)
    matcher = GramMatcher(ctx, dim, proper)
    return _match_objects(a, b, matcher, matcher.orientation_ok)
