"""Nested colour/vector objects and exact orbit equality under O(d) / SO(d).

The refinement engines build, per node and per iteration, a small tree:
a Leaf carries a colour plus that node's feature vectors, a Node wraps a
centre object with an unordered bag of Child objects, and each Child pairs
a neighbour's object with the relative position of that neighbour. Two
such trees are "orbit equal" when some single orthogonal map Q (rotation
only, for SO) sends every vector in one tree onto the corresponding vector
of the other under some matching of the unordered children. That is decided
exactly by a depth-first search written as generators: each alignment of a
sub-object is yielded in turn, children are assigned partners on an
explicit stack, and the candidate Q is constrained incrementally through a
Gram matcher rather than ever being computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

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


def _head(obj) -> tuple:
    if isinstance(obj, Leaf):
        return ("L", obj.colour, len(obj.vectors))
    return ("N", obj.colour, len(obj.children))


def skeleton(obj) -> tuple:
    """Geometry-free structural key, one level deep: colours and shape only.

    Objects in different skeleton classes can never be orbit equal, so the
    registry buckets by this key and the matcher only compares within a
    bucket. Sub-objects enter only through their colour and head: every
    engine colours a nested Node by its orbit in the same registry, so that
    colour already fixes the sub-object's deeper structure.
    """
    if isinstance(obj, Leaf):
        return _head(obj)
    return (
        "N",
        obj.colour,
        _head(obj.obj),
        tuple(sorted((c.colour, _head(c.obj)) for c in obj.children)),
    )


def norm_profile(obj, ctx: NumericContext) -> tuple:
    """Sorted squared norms of the child rels and of the vectors of every
    Leaf one level down (a Leaf's own vectors, for a Leaf).

    Invariant under any orthogonal map and any matching of children, hence
    a cheap prefilter before the full orbit search. No tolerance is applied,
    so only exact mode may use it. Deeper vectors are left out for the
    reason `skeleton` gives: a Node sub-object's colour fixes them.
    """
    if isinstance(obj, Leaf):
        return tuple(sorted(norm_sq(v) for v in obj.vectors))
    vecs = [c.rel for c in obj.children]
    for sub in (obj.obj, *(c.obj for c in obj.children)):
        if isinstance(sub, Leaf):
            vecs.extend(sub.vectors)
    return tuple(sorted(norm_sq(v) for v in vecs))


def _align(a, b, matcher: GramMatcher) -> Iterator[None]:
    """Yield once for each consistent alignment of a with b.

    While suspended at a yield, the matcher holds that alignment's pairs on
    top of what it held on entry; once exhausted, the generator has rewound
    the matcher to its starting mark. Frames nest once per tree level.
    """
    if type(a) is not type(b) or a.colour != b.colour:
        return
    if isinstance(a, Leaf):
        if len(a.vectors) != len(b.vectors):
            return
        mark = matcher.mark()
        if all(matcher.push(u, w) for u, w in zip(a.vectors, b.vectors)):
            yield
        matcher.rewind(mark)
        return
    if len(a.children) != len(b.children):
        return
    for _ in _align(a.obj, b.obj, matcher):
        yield from _align_children(a.children, b.children, matcher)


_DONE = object()


def _align_children(
    ac: Tuple[Child, ...], bc: Tuple[Child, ...], matcher: GramMatcher
) -> Iterator[None]:
    """Yield once for each assignment of ac to distinct partners in bc under
    which every child aligns, depth-first on an explicit stack of per-child
    partner generators."""
    used = [False] * len(bc)

    def partners(ca: Child) -> Iterator[None]:
        # only the colour is compared up front: the push rejects a differing
        # rel norm through the dot cache, and _align a differing shape
        for idx, cb in enumerate(bc):
            if used[idx] or cb.colour != ca.colour:
                continue
            mark = matcher.mark()
            if matcher.push(ca.rel, cb.rel):
                used[idx] = True
                yield from _align(ca.obj, cb.obj, matcher)
                used[idx] = False
            matcher.rewind(mark)

    if not ac:
        yield
        return
    stack = [partners(ac[0])]
    while stack:
        if next(stack[-1], _DONE) is _DONE:
            stack.pop()
        elif len(stack) == len(ac):
            yield
        else:
            stack.append(partners(ac[len(stack)]))


def orbit_equal(a, b, ctx: NumericContext, dim: int, proper: bool) -> bool:
    """Decide whether some Q in O(dim) (SO(dim) when proper) maps b's vectors
    onto a's under a matching of unordered children.

    No skeleton or norm-profile prefilter runs here: the registry buckets
    by both before it calls this, and the search itself rejects any
    difference in structure (colours, shapes, child skeletons) or in a
    vector's norm, so a direct call gets the same answer.
    """
    matcher = GramMatcher(ctx, dim, proper)
    return any(matcher.orientation_ok() for _ in _align(a, b, matcher))
