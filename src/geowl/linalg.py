"""Small-vector linear algebra over exact rationals or floats.

Everything here works on plain tuples of numbers so the same code path
serves both numeric modes. The :class:`GramMatcher` is the workhorse of
every congruence check in the library: two vector sequences are related
by an orthogonal map iff their Gram matrices agree, and a proper
(rotation-only) map additionally needs matching orientation signs when
the sequences span the full space.
"""
from __future__ import annotations

from fractions import Fraction
from operator import truediv
from typing import Dict, List, Optional, Sequence, Tuple

from .numeric import EXACT, Number, NumericContext, Vec


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(a: Vec, s: Number) -> Vec:
    return tuple(s * x for x in a)


def dot(a: Vec, b: Vec) -> Number:
    return sum(x * y for x, y in zip(a, b))


def norm_sq(a: Vec) -> Number:
    return dot(a, a)


# The matcher's inner loop recomputes dot products over a small recurring
# set of relative vectors; interning the vectors gives integer cache keys,
# which is what makes the cache cheap enough to pay off in exact mode.
_vec_ids: dict = {}
_dots: dict = {}


def _vec_id(a: Vec) -> int:
    vid = _vec_ids.get(a)
    if vid is None:
        vid = len(_vec_ids)
        _vec_ids[a] = vid
    return vid


def _dot_cached(ia: int, ib: int, a: Vec, b: Vec) -> Number:
    key = (ia, ib) if ia <= ib else (ib, ia)
    val = _dots.get(key)
    if val is None:
        val = sum(x * y for x, y in zip(a, b))
        _dots[key] = val
    return val


def cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def matvec(m: Sequence[Vec], v: Vec) -> Vec:
    """m given as rows; returns m @ v."""
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Vec], b: Sequence[Vec]) -> Tuple[Vec, ...]:
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Sequence[Vec]) -> Tuple[Vec, ...]:
    return tuple(zip(*m))


def identity(d: int, one=1, zero=0) -> Tuple[Vec, ...]:
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


def det(m: Sequence[Vec]) -> Number:
    """Determinant by cofactor/elimination; fine for d <= 3 and small stacks."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        a, b, c = m
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
    raise ValueError("determinant only needed up to 3x3")


def det_sign(m: Sequence[Vec], ctx: NumericContext) -> int:
    d = det(m)
    scale = 1
    for row in m:
        scale = max(scale, abs(norm_sq(row)))
    if ctx.is_zero(d, scale):
        return 0
    return 1 if d > 0 else -1


def extends(basis: Sequence[Vec], v: Vec, ctx: NumericContext) -> bool:
    """Whether v lies outside the (numerical) span of the vectors in basis,
    which are taken to be independent: the one independence rule of every
    greedy basis in the library.

    Exact mode never divides: v extends the basis iff the Gram determinant
    of basis + v is non-zero, tested for an empty basis as v != 0, for one
    basis vector as strict Cauchy-Schwarz, and as the plain determinant once
    basis + v is square. Float mode reduces v against the basis by
    Gram-Schmidt, the rows rebuilt in order, and keeps it when the residual
    is not zero at the scale max(1, |v|^2).
    """
    if ctx.mode == EXACT:
        if not basis:
            return any(v)
        if len(basis) == 1:
            return dot(basis[0], v) ** 2 != norm_sq(basis[0]) * norm_sq(v)
        rows = [*basis, v]
        if len(rows) < len(v):
            rows = [[dot(p, q) for q in rows] for p in rows]
        return det(rows) != 0
    reduced: List[List[Number]] = []  # Gram-Schmidt-style rows (unnormalised)
    for u in (*basis, v):
        r = list(u)
        for b in reduced:
            bb = sum(x * x for x in b)
            if bb == 0:
                continue
            coef = sum(x * y for x, y in zip(r, b)) / bb
            r = [x - coef * y for x, y in zip(r, b)]
        reduced.append(r)
    return not ctx.is_zero(sum(x * x for x in r), max(1, abs(norm_sq(v))))


def independent_subset(vectors: Sequence[Vec], ctx: NumericContext, limit: int) -> List[int]:
    """Indices of a greedy maximal linearly independent prefix-subset.

    Deterministic: scans in order, keeps a vector iff it `extends` the kept
    ones, stops at `limit`.
    """
    kept: List[int] = []
    for idx, v in enumerate(vectors):
        if extends([vectors[k] for k in kept], v, ctx):
            kept.append(idx)
            if len(kept) == limit:
                break
    return kept


def solve_square(m: Sequence[Vec], rhs_rows: Sequence[Vec]) -> Optional[Tuple[Vec, ...]]:
    """Solve M @ X = B for X, with B given by rows; None if singular.

    Exact when inputs are ints or Fractions (an int pivot divides through
    Fraction, since int / int is a float). Rows of the returned matrix are
    rows of X.
    """
    n = len(m)
    a = [list(row) + list(brow) for row, brow in zip(m, rhs_rows)]
    for col in range(n):
        pivot = None
        best = None
        for r in range(col, n):
            mag = abs(a[r][col])
            if mag != 0 and (best is None or mag > best):
                pivot, best = r, mag
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        div = truediv if isinstance(pv, float) else Fraction
        a[col] = [div(x, pv) for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


class GramMatcher:
    """Incrementally pair up two vector sequences under an orthogonal map.

    push(a, b) succeeds iff appending the pair keeps the two Gram matrices
    equal (per the context's comparison policy); a failed push leaves the
    matcher untouched. orientation_ok() applies the rotation-only extra
    condition: with a full-rank trace, the determinant signs of a greedily
    chosen maximal independent subset must agree at corresponding indices.
    Rank below the ambient dimension collapses the proper check to the
    orthogonal one (a reflection fixing the span completes any rotation).

    The matcher keeps `basis`, the positions in v1 of the greedy
    independent prefix: what independent_subset(v1, ctx, dim) returns, in
    both modes. In exact mode a push compares the norm and the dots against
    the basis pairs only, O(dim) instead of O(len(v1)). That accepts exactly
    what the all-pairs check accepts: the basis pairs have equal Gram
    matrices, and every other accepted pair (u, w) has the same coefficients
    c on both sides, u = sum c_i b1_i and w = sum c_i b2_i, since w's dots
    against the basis fix its projection onto the span and the equal norm
    leaves no orthogonal remainder. So <a, u> = sum c_i <a, b1_i> =
    sum c_i <b, b2_i> = <b, w> for a candidate (a, b) that matches the basis
    dots. Float mode checks every earlier pair, since under a tolerance
    agreement with the basis does not bound the error against the others,
    but each distinct pair once: `held` maps a pair's vector ids to its
    first position in v1, in first-push order. A new pair is compared by
    norm, then with each held pair in that order, so it stops where a loop
    over all of v1 would (a repeat has its first occurrence's dots). A
    repeat of a held pair is accepted outright: its norm was checked at its
    first push, it was compared then with every pair held before it, and
    every pair held after it was compared with it (ctx.eq and the cached
    dots are symmetric). So a FragileComparisonWarning fires at most once
    per distinct (candidate, held pair) comparison: under an "always"
    filter the count can only fall; under the default once-per-line filter
    a repeated pair's fragile norm no longer warns again from the loop.
    """

    def __init__(self, ctx: NumericContext, dim: int, proper: bool):
        self.ctx = ctx
        self.dim = dim
        self.proper = proper
        self.v1: List[Vec] = []
        self.v2: List[Vec] = []
        self.i1: List[int] = []
        self.i2: List[int] = []
        self.basis: List[int] = []
        self.held: Dict[Tuple[int, int], int] = {}  # float mode only

    def push(self, a: Vec, b: Vec) -> bool:
        d = _dot_cached
        ia, ib = _vec_id(a), _vec_id(b)
        ctx, basis = self.ctx, self.basis
        v1, i1, v2, i2 = self.v1, self.i1, self.v2, self.i2
        if ctx.mode == EXACT:
            if d(ia, ia, a, a) != d(ib, ib, b, b):
                return False
            for k in basis:
                if d(ia, i1[k], a, v1[k]) != d(ib, i2[k], b, v2[k]):
                    return False
        elif (ia, ib) not in self.held:
            if not ctx.eq(d(ia, ia, a, a), d(ib, ib, b, b)):
                return False
            for (iu, iw), k in self.held.items():
                if not ctx.eq(d(ia, iu, a, v1[k]), d(ib, iw, b, v2[k])):
                    return False
            self.held[ia, ib] = len(v1)
        if len(basis) < self.dim and extends([v1[k] for k in basis], a, ctx):
            basis.append(len(v1))
        v1.append(a)
        i1.append(ia)
        v2.append(b)
        i2.append(ib)
        return True

    def mark(self) -> int:
        return len(self.v1)

    def rewind(self, mark: int) -> None:
        del self.v1[mark:]
        del self.v2[mark:]
        del self.i1[mark:]
        del self.i2[mark:]
        while self.basis and self.basis[-1] >= mark:
            self.basis.pop()
        while self.held and next(reversed(self.held.values())) >= mark:
            self.held.popitem()

    def rank_indices(self) -> List[int]:
        return list(self.basis)

    def orientation_ok(self) -> bool:
        if not self.proper:
            return True
        idx = self.rank_indices()
        if len(idx) < self.dim:
            return True
        s1 = det_sign([self.v1[i] for i in idx], self.ctx)
        s2 = det_sign([self.v2[i] for i in idx], self.ctx)
        return s1 == s2

    def solve_map(self) -> Optional[Tuple[Vec, ...]]:
        """The orthogonal matrix Q with Q @ v2[i] = v1[i], when full rank.

        Returns Q as rows, or None when the trace does not span the space
        (an orthogonal completion would generally be irrational).
        """
        idx = self.rank_indices()
        if len(idx) < self.dim:
            return None
        src = [self.v2[i] for i in idx]  # columns of the source basis
        dst = [self.v1[i] for i in idx]
        # Q @ S = D with S, D holding basis vectors as columns:
        # solve S^T @ Q^T = D^T row-wise.
        qt = solve_square([tuple(col) for col in src], dst)
        if qt is None:
            return None
        return transpose(qt)
