"""Interning of hashable keys, orbit classes, and descriptor multisets.

All refinement variants need a map from "things seen so far" to small
integer colours such that two things get the same colour exactly when
they are equivalent. For plain hashable keys that is a dict. For geometric
objects, equivalence is orbit equality under O(d)/SO(d), which is not
hashable, so the registry keeps one representative per orbit (bucketed by
the geometry-free skeleton plus, in exact mode, a norm multiset) and
searches linearly within a bucket. In exact mode the registry's one
`objects.LabelTable` first reads an object through one map, the one its
centre was matched under, or the last map that matched when its centre has
none (`LabelTable.carried_match`), and looks its label up among the labels
of every object interned so far; only a miss builds and searches a bucket.
A fresh registry is deterministic: colours are handed out in
first-encounter order.
"""
from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from .numeric import EXACT, NumericContext
from .objects import LabelTable, norm_profile, orbit_equal, skeleton


class OrbitRegistry:
    def __init__(self, ctx: NumericContext, dim: int, proper: bool):
        self.ctx = ctx
        self.dim = dim
        self.proper = proper
        self._next = 0
        # hashable keys and exact-mode bags -> colour
        self._keys: Dict[Hashable, int] = {}
        # (skeleton, norm_profile | None) -> list of (representative, colour)
        self._orbits: Dict[tuple, List[Tuple[object, int]]] = {}
        self._bags_float: List[Tuple[tuple, int]] = []
        self._label_table = LabelTable()

    def _fresh(self) -> int:
        c = self._next
        self._next += 1
        return c

    @property
    def count(self) -> int:
        return self._next

    def intern_key(self, key: Hashable) -> int:
        """Colour for a plain hashable key (scalar tuples, colour tuples)."""
        c = self._keys.get(key)
        if c is None:
            c = self._keys[key] = self._fresh()
        return c

    def intern_orbit(self, obj) -> int:
        """Colour for a geometric object, injective on O/SO orbits."""
        exact = self.ctx.mode == EXACT
        colour = self._label_table.carried_match(obj) if exact else None
        if colour is None:
            profile = norm_profile(obj, self.ctx) if exact else None
            bucket = self._orbits.setdefault((skeleton(obj), profile), [])
            for rep, colour in bucket:
                if orbit_equal(rep, obj, self.ctx, self.dim, self.proper, self._label_table):
                    break
            else:
                colour = self._fresh()
                bucket.append((obj, colour))
        if exact:
            self._label_table.record_colour(obj, colour)
        return colour

    def intern_bag(self, bag: Tuple[tuple, ...]) -> int:
        """Colour for a sorted tuple of descriptors.

        Exact-mode descriptors are fully hashable and share the key dict;
        float descriptors carry floats that must compare through the
        tolerance, so matching falls back to a linear scan.
        """
        if self.ctx.mode == EXACT:
            c = self._keys.get(bag)
            if c is None:
                c = self._keys[bag] = self._fresh()
            return c
        for other, colour in self._bags_float:
            if self._bag_eq(bag, other):
                return colour
        colour = self._fresh()
        self._bags_float.append((bag, colour))
        return colour

    def _bag_eq(self, a, b) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            return self.ctx.eq(a, b)
        if isinstance(a, tuple):
            return len(a) == len(b) and all(self._bag_eq(x, y) for x, y in zip(a, b))
        return a == b
