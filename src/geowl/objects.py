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

In exact mode the search stops searching once the map is pinned: when the
matcher's basis has as many pairs as the rank r of all vectors in the top
object, the basis spans that object, and every Q consistent with it sends
each remaining vector w of b to P w, P the pinned partial map
(`GramMatcher.pinned_map`). A vector u of a is named by the key (u.u, *u)
and w by (w.w, *P w), equal exactly when u = Qw. The rest of the two
objects is decided by integer labels built from these keys, one per
sub-object and map, kept for the registry's life, and yields at most once.
The check runs on entry to a Node pair, after its centre's alignment,
and before each new child but the last: a last child cannot branch, and
its sub-object is checked on entry. Float mode never pins: under a
tolerance a key is not stable, since nearby vectors round to different
numbers, and equal keys would not bound the error against other vectors.

Each exact match is recorded with the pinned map P that took the object
onto an interned one (None, as it is, when it matched none), and the
registry keeps every interned object's label, read as it is, with its
colour. GWL's object at iteration t wraps the same node's object of t - 1
as its centre, so the centre's P is the map that can carry it onto the
object around the centre's match: `carried_match` reads a new object
through that map only, and through the last map that matched only when
the centre has none (a Leaf: GWL's first iteration and every IGWL
object), as an isometric copy is one global map. It looks the label up:
equal labels make the two orbit equal for the reason pinned labels do, so
the colour found is the one the search would find, and a miss falls back
to the search. Float mode keeps the search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .linalg import GramMatcher, independent_subset, norm_sq
from .numeric import EXACT, NumericContext, Vec, exact_context

_EXACT = exact_context()


def _greedy_basis(vectors: Sequence[Vec]) -> Tuple[Vec, ...]:
    """A basis of the vectors' linear span, taken greedily in order by the
    exact `independent_subset` and stopping at len(v) vectors."""
    if not vectors:
        return ()
    return tuple(vectors[i] for i in independent_subset(vectors, _EXACT, len(vectors[0])))


@dataclass(frozen=True)
class Leaf:
    colour: int
    vectors: Tuple[Vec, ...] = ()
    # a field rather than functools.cached_property, which on Python 3.11
    # takes a lock on first access and gives each instance a real __dict__,
    # a cost that shows on small verdicts
    _span: Optional[Tuple[Vec, ...]] = field(default=None, init=False, compare=False, repr=False)

    @property
    def span(self) -> Tuple[Vec, ...]:
        """A basis of the linear span of every vector in the object (exact
        mode only); computed once per object."""
        if self._span is None:
            object.__setattr__(self, "_span", _greedy_basis(self.vectors))
        return self._span


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
    _span: Optional[Tuple[Vec, ...]] = field(default=None, init=False, compare=False, repr=False)

    @property
    def span(self) -> Tuple[Vec, ...]:
        """As Leaf.span, built from the centre's span, the child rels and
        the children's spans, so a shared sub-object's span is computed
        once however many parents hold it."""
        if self._span is None:
            vectors = [*self.obj.span, *[c.rel for c in self.children]]
            for c in self.children:
                vectors += c.obj.span
            object.__setattr__(self, "_span", _greedy_basis(vectors))
        return self._span


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


class _Search:
    """The state of one orbit_equal call: its matcher, the basis size at
    which the map is pinned, and the pinned caches in use, drawn from the
    caller's label table.

    Within a pinned state each sub-object of each side gets an integer
    label, as colour refinement gives one: the table's forms hand out one
    int per form, and a Node's form holds its centre's label and its
    children's labels. By induction on depth, b's object maps onto a's
    under the pinned map exactly when their labels are equal. A key of a's
    side depends only on its vector, and one of b's only on the pinned map
    P, so the table keeps a key cache (by vector) and a label cache (by
    id(obj)) for a's side and per P for b's, and P per pair of bases, for
    its life. It holds each labelled object, so no id it caches is reused.
    """

    __slots__ = ("matcher", "basis", "rank", "_caches", "_forms", "_maps", "_tails", "_sides")

    def __init__(self, table: tuple, matcher: Optional[GramMatcher] = None, rank: int = -1):
        self.matcher = matcher
        self.basis = matcher.basis if matcher else ()
        self.rank = rank
        self._caches, self._forms, self._maps, _, self._tails, _, _ = table
        self._sides = [self._side(None), None]

    def _side(self, pmap) -> tuple:
        return (pmap, *self._caches.setdefault(pmap, ({}, {})))

    def through(self, pmap) -> "_Search":
        """Self, with b's side read through pmap (None: as it is)."""
        self._sides[1] = self._side(pmap)
        return self

    def pinned(self) -> "_Search":
        """Self, with b's side read through the map its basis pairs pin."""
        m = self.matcher
        bases = (tuple(m.v1[k] for k in self.basis), tuple(m.v2[k] for k in self.basis))
        side = self._maps.get(bases)
        if side is None:
            side = self._maps[bases] = self._side(m.pinned_map())
        self._sides[1] = side
        return self

    def pinned_map(self):
        """The map that the matcher's basis pairs pin (see `pinned`)."""
        return self.pinned()._sides[1][0]

    def _key(self, v: Vec, side: int) -> tuple:
        cache = self._sides[side][1]
        key = cache.get(v)
        if key is None:
            image = v  # a's side, or b's read through None, is read as it is
            if self._sides[side][0] is not None:
                rows, q = self._sides[side][0]
                image = [x // q if x % q == 0 else Fraction(x, q) for x in [sum(map(mul, row, v)) for row in rows]]
            key = cache[v] = (sum(map(mul, v, v)), *image)
        return key

    def label(self, obj, side: int) -> int:
        """The int of obj's form on its side: a Leaf's colour and vector
        keys in order, or a Node's colour, centre label and children. A
        Leaf's form never holds an int after its colour, so no Leaf shares
        a label with a Node."""
        labels = self._sides[side][2]
        entry = labels.get(id(obj))
        if entry is None:
            if isinstance(obj, Leaf):
                form = (obj.colour, *[self._key(v, side) for v in obj.vectors])
            else:
                form = (obj.colour, self.label(obj.obj, side), self.triples(obj.children, side))
            entry = labels[id(obj)] = (self._forms.setdefault(form, len(self._forms)), obj)
        return entry[0]

    def triples(self, cs: Sequence[Child], side: int) -> tuple:
        """The sorted (colour, key(rel), label) triples of cs: two bags of
        children match one to one under the pinned map iff these agree."""
        key, label = self._key, self.label
        return tuple(sorted([(c.colour, key(c.rel, side), label(c.obj, side)) for c in cs]))

    def tail(self, cs: Tuple[Child, ...], k: int) -> tuple:
        """triples(cs[k:], 0), kept for the table's life: a's side is read as
        it is, so they depend on (cs, k) alone. The entry holds cs."""
        entry = self._tails.get((id(cs), k))
        if entry is None:
            entry = self._tails[id(cs), k] = (self.triples(cs[k:], 0), cs)
        return entry[0]


def _align(a, b, s: _Search) -> Iterator[None]:
    """Yield once for each consistent alignment of a with b.

    While suspended at a yield, the matcher holds that alignment's pairs on
    top of what it held on entry; once exhausted, the generator has rewound
    the matcher to its starting mark. Frames nest once per tree level. Once
    the map is pinned, on entry or by the centre's alignment, the pinned
    check decides the pair and yields at most once, pushing nothing more.
    """
    if type(a) is not type(b) or a.colour != b.colour:
        return
    matcher = s.matcher
    if isinstance(a, Leaf):
        # a Leaf yields at most once anyway, so it needs no pinned check
        if len(a.vectors) != len(b.vectors):
            return
        mark = matcher.mark()
        if all(matcher.push(u, w) for u, w in zip(a.vectors, b.vectors)):
            yield
        matcher.rewind(mark)
        return
    if len(a.children) != len(b.children):
        return
    # a map pinned on entry needs no centre alignment: the labels decide
    for _ in _align(a.obj, b.obj, s) if len(s.basis) != s.rank else (None,):
        if len(s.basis) != s.rank:
            yield from _align_children(a.children, b.children, s)
        elif s.pinned().label(a, 0) == s.label(b, 1):
            yield


_DONE = object()


def _align_children(ac: Tuple[Child, ...], bc: Tuple[Child, ...], s: _Search) -> Iterator[None]:
    """Yield once for each assignment of ac to distinct partners in bc under
    which every child aligns, depth-first on an explicit stack of per-child
    partner generators. Before each new child but the last, once the map is
    pinned, the remaining children are matched against the unused partners
    by the pinned check instead."""
    matcher, basis, rank = s.matcher, s.basis, s.rank
    used = set()

    def partners(ca: Child) -> Iterator[None]:
        # only the colour is compared up front: the push rejects a differing
        # rel norm through the dot cache, and _align a differing shape
        for idx, cb in enumerate(bc):
            if cb.colour != ca.colour or idx in used:
                continue
            mark = matcher.mark()
            if matcher.push(ca.rel, cb.rel):
                used.add(idx)
                yield from _align(ca.obj, cb.obj, s)
                used.discard(idx)
            matcher.rewind(mark)

    # the last child is left to the search: with one child left it cannot
    # branch, and a Node sub-object is pin-checked on entry to _align
    last = len(ac) - 1
    stack: List[Iterator[None]] = []
    k = 0
    while True:
        if k > last:
            yield
        elif k == last or len(basis) != rank:
            stack.append(partners(ac[k]))
        elif s.pinned().tail(ac, k) == s.triples(
            [cb for idx, cb in enumerate(bc) if idx not in used], 1
        ):
            yield
        # move on to the next alignment of the deepest child started
        while stack:
            if next(stack[-1], _DONE) is not _DONE:
                break
            stack.pop()
        else:
            return
        k = len(stack)


def label_table() -> tuple:
    """Empty dicts of caches per pinned map (None: a's side), forms, maps,
    recorded maps, a's remaining-children triples and colours by label,
    and a one-entry list holding the last map under which a match held
    (None, as it is, until one does).

    A recorded map is kept by id(obj), with obj, for each object the
    registry interned in exact mode: the pinned map P under which it
    matched an interned object, or None (as it is) when it matched none.
    Any such P carries the proof of an orbit map, not just of that match:
    its basis pairs have equal Grams, so some orthogonal Q extends them,
    and that Q is proper under SO, since the orientation was checked at
    full rank and below it a reflection of the complement fixes the sign.
    The colours map the label of every interned object, read as it is, to
    its colour. `carried_match` reads a new object through one map, its
    centre's P, or the last map when the centre has none, and looks it up.
    """
    return {}, {}, {}, {}, {}, {}, [None]


def record_map(table: tuple, obj, pmap) -> None:
    """Record that obj matched an interned object under pmap, as obj's map
    and as the last map under which a match held."""
    table[3][id(obj)] = (pmap, obj)
    table[6][0] = pmap


def record_colour(table: tuple, obj, colour: int) -> None:
    """Record colour under obj's own label, read as it is, and None (as it
    is) as obj's map when it matched nothing."""
    table[3].setdefault(id(obj), (None, obj))
    table[5][_Search(table).label(obj, 0)] = colour


def carried_match(obj, table: tuple) -> Optional[int]:
    """The colour recorded under obj's label read through one map, with
    that map recorded for obj; None when that label is not recorded. The
    map is the centre's recorded map, which took the centre onto an
    interned object (None, as it is, when the centre matched nothing), or
    the last map under which a match held when the centre has none.

    Equal labels under P mean every Q extending P's basis pairs sends obj
    onto the interned object x that holds the label (`_Search` says why),
    and `label_table` why such a Q exists in the group, so obj and x are
    orbit equal and x's colour is the colour of their orbit: the one the
    search would find. A P whose span misses some vector w of obj only
    misses: P w = u with |w| = |u| puts w in its span.
    """
    record = table[3].get(id(obj.obj)) if isinstance(obj, Node) else None
    pmap = table[6][0] if record is None else record[0]
    colour = table[5].get(_Search(table).through(pmap).label(obj, 1))
    if colour is not None:
        record_map(table, obj, pmap)
    return colour


def orbit_equal(a, b, ctx: NumericContext, dim: int, proper: bool, table=None) -> bool:
    """Decide whether some Q in O(dim) (SO(dim) when proper) maps b's vectors
    onto a's under a matching of unordered children.

    No skeleton or norm-profile prefilter runs here: the registry buckets
    by both before it calls this, and the search itself rejects any
    difference in structure (colours, shapes, child skeletons) or in a
    vector's norm, so a direct call gets the same answer.

    In exact mode the search pins once the matcher's basis reaches the rank
    of a's vectors (the module docstring says why that is exact) and then
    compares the labels of `_Search.label`: equal labels mean the map sends
    b's sub-object onto a's, so children tied on (colour, key) need no
    search, and a Node pair whose centre's alignment pins the map is decided
    by the Nodes' labels. At full rank every completion of a pinned alignment
    is the same Q, and below full rank `orientation_ok` is True, so one yield
    per pinned state suffices. Float mode keeps the generic search. Labels
    last as long as `table` (a fresh `label_table()` when none is given): the
    registry passes its own, so a call under a map already seen reuses them.
    An exact match records, in `table`, the pinned map P of the yield where
    the orientation held, as b's map and as the last map: every vector of a
    has been pushed or checked by then, so the basis spans a's vectors, and
    P takes b onto a.
    """
    matcher = GramMatcher(ctx, dim, proper)
    exact = ctx.mode == EXACT
    table = table or label_table()
    # float mode never pins: a basis never has length -1
    s = _Search(table, matcher, len(a.span) if exact else -1)
    for _ in _align(a, b, s):
        if matcher.orientation_ok():
            if exact:
                record_map(table, b, s.pinned_map())
            return True
    return False
