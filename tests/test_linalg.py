import random
from fractions import Fraction

import pytest

from geowl import linalg
from geowl.numeric import exact_context, float_context


def test_vector_basics():
    assert linalg.vadd((1, 2), (3, 4)) == (4, 6)
    assert linalg.vsub((1, 2), (3, 4)) == (-2, -2)
    assert linalg.dot((1, 2, 3), (4, 5, 6)) == 32
    assert linalg.norm_sq((3, 4)) == 25
    assert linalg.cross((1, 0, 0), (0, 1, 0)) == (0, 0, 1)


def test_det_small_matrices():
    assert linalg.det([(2,)]) == 2
    assert linalg.det([(1, 2), (3, 4)]) == -2
    assert linalg.det([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert linalg.det([(0, 1, 0), (1, 0, 0), (0, 0, 1)]) == -1


def test_independent_subset_greedy_rank():
    ctx = exact_context()
    vecs = [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0), Fraction(0)),  # dependent
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0)),  # dependent on first+third
        (Fraction(0), Fraction(0), Fraction(3)),
    ]
    assert linalg.independent_subset(vecs, ctx, 3) == [0, 2, 4]
    assert linalg.independent_subset(vecs[:2], ctx, 3) == [0]


def test_independent_subset_on_ints_matches_fractions():
    # int / int is a float: (46, -34, 27) = (6, 1, 2) + 5 (8, -7, 5) then
    # keeps a rounding residual and looks independent
    ctx = exact_context()
    ints = [(6, 1, 2), (8, -7, 5), (46, -34, 27), (-1, 1, 6)]
    assert linalg.independent_subset(ints, ctx, 3) == [0, 1, 3]
    rng = random.Random("int-rank")
    for _ in range(300):
        vecs = [tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(2)]
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        vecs.append(tuple(a * x + b * y for x, y in zip(*vecs)))
        vecs.append(tuple(rng.randint(-50, 50) for _ in range(3)))
        fracs = [tuple(map(Fraction, v)) for v in vecs]
        assert linalg.independent_subset(vecs, ctx, 3) == linalg.independent_subset(fracs, ctx, 3)


def test_solve_square_recovers_rotation():
    # Q maps the source basis onto the destination basis
    c, s = Fraction(3, 5), Fraction(4, 5)
    q = ((c, -s), (s, c))
    src = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    dst = [linalg.matvec(q, v) for v in src]
    qt = linalg.solve_square([tuple(col) for col in src], dst)
    assert linalg.transpose(qt) == q


def test_solve_square_singular_returns_none():
    m = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    assert linalg.solve_square(m, [(Fraction(1), Fraction(0))] * 2) is None


def _random_rational_rotation_3d(rng):
    from geowl.generators import random_isometry

    return random_isometry(1, 3, seed=rng.randint(0, 10**6), proper=True).matrix


def test_gram_matcher_accepts_exactly_the_rotated_pairs():
    # Gram equality of matched full-rank lists <=> an orthogonal map exists;
    # cross-checked by solving for the map and replaying it.
    rng = random.Random(1)
    ctx = exact_context()
    for _ in range(20):
        q = _random_rational_rotation_3d(rng)
        vecs = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(4)
        ]
        rotated = [linalg.matvec(q, v) for v in vecs]
        m = linalg.GramMatcher(ctx, 3, proper=True)
        assert all(m.push(a, b) for a, b in zip(rotated, vecs))
        assert m.orientation_ok()
        if len(m.rank_indices()) == 3:
            solved = m.solve_map()
            assert solved == q
            for a, b in zip(rotated, vecs):
                assert linalg.matvec(solved, b) == a


def test_gram_matcher_rejects_different_geometry():
    ctx = exact_context()
    m = linalg.GramMatcher(ctx, 2, proper=False)
    assert m.push((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    # norms equal but the inner product with the previous pair differs
    assert not m.push((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    # a failed push leaves the matcher usable
    assert m.push((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_gram_matcher_orientation_under_so():
    ctx = exact_context()
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    mirrored = linalg.GramMatcher(ctx, 2, proper=True)
    assert mirrored.push(e1, e1) and mirrored.push(e2, (Fraction(0), Fraction(-1)))
    assert not mirrored.orientation_ok()
    # the same pairs pass without the determinant constraint
    refl = linalg.GramMatcher(ctx, 2, proper=False)
    assert refl.push(e1, e1) and refl.push(e2, (Fraction(0), Fraction(-1)))
    assert refl.orientation_ok()


def test_gram_matcher_rank_deficient_collapses_so_to_o():
    ctx = exact_context()
    m = linalg.GramMatcher(ctx, 3, proper=True)
    # all vectors in the z=0 plane: a reflection fixing the plane completes
    # any in-plane orthogonal map to a rotation of the whole space
    assert m.push((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)))
    assert m.orientation_ok()
    assert m.solve_map() is None


def test_mark_rewind():
    ctx = float_context()
    m = linalg.GramMatcher(ctx, 2, proper=False)
    assert m.push((1.0, 0.0), (0.0, 1.0))
    mark = m.mark()
    assert m.push((0.0, 2.0), (2.0, 0.0))
    m.rewind(mark)
    assert m.mark() == 1


def _brute_force_accepts(pairs, a, b):
    """The all-pairs rule: the candidate's norm and its dot product with
    every accepted pair must agree on both sides."""
    return all(linalg.dot(a, u) == linalg.dot(b, w) for u, w in pairs + [(a, b)])


def _orthogonal(rng, dim):
    if dim == 1:
        return ((rng.choice((Fraction(1), Fraction(-1))),),)
    from geowl.generators import random_isometry

    return random_isometry(1, dim, seed=rng.randint(0, 10**6), proper=False).matrix


def _vector_pool(rng, dim):
    """Small-integer vectors with repeats and zero vectors; on half the draws
    every vector lies on one line, so runs stay rank-deficient."""
    line = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
    pool = [tuple(Fraction(0) for _ in range(dim))]
    for _ in range(5):
        if rng.random() < 0.5:
            pool.append(linalg.vscale(line, Fraction(rng.randint(-2, 2))))
        else:
            pool.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)))
    return pool


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gram_matcher_push_agrees_with_all_pairs_check(dim):
    ctx = exact_context()
    rng = random.Random(("matcher", dim).__repr__())
    accepted = rejected = 0
    for _ in range(60):
        q = _orthogonal(rng, dim)
        pool = _vector_pool(rng, dim)
        m = linalg.GramMatcher(ctx, dim, proper=False)
        pairs = []
        for _ in range(14):
            a = rng.choice(pool)
            roll = rng.random()
            if roll < 0.6:
                b = linalg.matvec(q, a)  # consistent with the run so far
            elif roll < 0.8:
                b = linalg.matvec(q, rng.choice(pool))
            else:
                b = linalg.vneg(a)  # same norm, often a wrong map
            want = _brute_force_accepts(pairs, a, b)
            assert m.push(a, b) is want
            if want:
                pairs.append((a, b))
                accepted += 1
            else:
                rejected += 1
            if pairs and rng.random() < 0.15:
                mark = rng.randrange(len(pairs) + 1)
                m.rewind(mark)
                del pairs[mark:]
            assert m.v1 == [u for u, _ in pairs] and m.v2 == [w for _, w in pairs]
    assert accepted > 100 and rejected > 50


def _float_pair_pool(rng, dim, eps):
    """Float candidate pairs drawn again and again, as the unfolded object
    tree pushes them: (a, Q a), the same moved by a few eps at a's scale so
    the comparisons fall on both sides of the tolerance, (a, Q a') for
    another pool vector, and (a, -a)."""
    q = tuple(tuple(map(float, row)) for row in _orthogonal(rng, dim))
    pairs = []
    for a in _near_dependent_pool(rng, dim):
        b = linalg.matvec(q, a)
        pairs.append((a, b))
        for k in (0.3, 1.0, 3.0, 30.0):
            nudge = k * eps * max(1.0, linalg.norm_sq(a))
            pairs.append((a, tuple(x + nudge * rng.gauss(0, 1) for x in b)))
        pairs.append((a, linalg.vneg(a)))
    others = [a for a, _ in pairs]
    pairs.append((rng.choice(others), linalg.matvec(q, rng.choice(others))))
    return pairs


@pytest.mark.filterwarnings("ignore::geowl.numeric.FragileComparisonWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_float_gram_matcher_push_agrees_with_all_pairs_check(dim):
    # a float push compares each distinct held pair once and accepts a
    # repeat of a held pair outright; the all-pairs rule, repeats included,
    # must give the same answers
    rng = random.Random(("float matcher", dim).__repr__())
    contexts = [float_context(1e-12), float_context(), float_context(1e-6)]
    accepted = rejected = repeats = 0
    for trial in range(90):
        ctx = contexts[trial % len(contexts)]
        pool = _float_pair_pool(rng, dim, ctx.eps)
        m = linalg.GramMatcher(ctx, dim, proper=True)
        pairs = []
        for _ in range(16):
            a, b = rng.choice(pairs if pairs and rng.random() < 0.3 else pool)
            want = all(
                ctx.eq(linalg.dot(a, u), linalg.dot(b, w)) for u, w in [(a, b)] + pairs
            )
            assert m.push(a, b) is want
            if want:
                repeats += (a, b) in pairs
                pairs.append((a, b))
                accepted += 1
            else:
                rejected += 1
            if pairs and rng.random() < 0.15:
                mark = rng.randrange(len(pairs) + 1)
                m.rewind(mark)
                del pairs[mark:]
            assert m.v1 == [u for u, _ in pairs] and m.v2 == [w for _, w in pairs]
            assert m.rank_indices() == linalg.independent_subset(m.v1, ctx, dim)
    assert accepted > 600 and rejected > 400 and repeats > 300


def test_gram_matcher_rank_indices_after_rewinds():
    # rewinds at marks above, at and below each basis position
    ctx = exact_context()
    x, y, z = (Fraction(1), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(1))
    seq = [(0, 0, 0), x, linalg.vscale(x, 2), y, linalg.vadd(x, y), z, linalg.vadd(x, z)]
    for mark in range(len(seq) + 1):
        m = linalg.GramMatcher(ctx, 3, proper=True)
        assert all(m.push(v, v) for v in seq)
        assert m.rank_indices() == [1, 3, 5]
        m.rewind(mark)
        want = linalg.independent_subset(seq[:mark], ctx, 3)
        assert m.rank_indices() == want
        # pushing the tail again rebuilds the same basis
        assert all(m.push(v, v) for v in seq[mark:])
        assert m.rank_indices() == [1, 3, 5]


def _near_dependent_pool(rng, dim):
    """Float vectors of mixed scales, and sums of two earlier ones moved by
    delta in [0, 1e-12, ..., 1e-6] along a random direction, so that the
    independence test runs on both sides of the tolerance."""
    pool = [tuple(0.0 for _ in range(dim))]
    for _ in range(6):
        if len(pool) > 1 and rng.random() < 0.5:
            u, w = rng.choice(pool), rng.choice(pool)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            delta = rng.choice([0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
            pool.append(tuple(a * x + b * y + delta * rng.gauss(0, 1) for x, y in zip(u, w)))
        else:
            scale = rng.choice([1e-3, 1.0, 1e3])
            pool.append(tuple(scale * rng.gauss(0, 1) for _ in range(dim)))
    return pool


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gram_matcher_rank_indices_match_independent_subset(dim):
    # the matcher keeps its basis as it goes, in both modes; it must equal a
    # fresh greedy scan of what it holds after every push and rewind
    rng = random.Random(("rank", dim).__repr__())
    contexts = [exact_context(), float_context(1e-12), float_context(), float_context(1e-6)]
    for trial in range(160):
        ctx = contexts[trial % len(contexts)]
        q = _orthogonal(rng, dim)
        if ctx.mode == "exact":
            pool = _vector_pool(rng, dim)
        else:
            q = tuple(tuple(map(float, row)) for row in q)
            pool = _near_dependent_pool(rng, dim)
        m = linalg.GramMatcher(ctx, dim, proper=True)
        for _ in range(12):
            a = rng.choice(pool)
            m.push(a, linalg.matvec(q, a))
            if rng.random() < 0.25:
                m.rewind(rng.randrange(m.mark() + 1))
            assert m.rank_indices() == linalg.independent_subset(m.v1, ctx, dim)
