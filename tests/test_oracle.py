import random
import warnings
from fractions import Fraction

import pytest

from conftest import connected_cutoff, exact_graph

from geowl import (
    GroupSpec,
    apply_isometry,
    gen_kchain,
    gen_random_cloud,
    geometric_isomorphism_oracle,
    random_isometry,
)
from geowl.graph import ModeMismatchError
from geowl.oracle import OracleCapExceeded


def scalene_pair():
    pos = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)), (Fraction(0), Fraction(4))]
    edges = [(0, 1), (1, 2), (0, 2)]
    scalars = [(0,), (1,), (2,)]
    g = exact_graph(pos, edges, scalars)
    gm = exact_graph([(-x, y) for x, y in pos], edges, scalars)
    return g, gm


def test_rotated_permuted_copy_is_isomorphic(o3):
    g, _, _ = gen_kchain(3)
    w = random_isometry(g.n, 3, seed=11, proper=False)
    same, _ = geometric_isomorphism_oracle(g, apply_isometry(g, w), o3)
    assert same


def test_kchain_pair_is_not_isomorphic(o3, so3):
    g1, g2, _ = gen_kchain(4)
    assert geometric_isomorphism_oracle(g1, g2, o3) == (False, None)
    assert geometric_isomorphism_oracle(g1, g2, so3)[0] is False


def test_mirror_scalene_separates_o_from_so(o2, so2):
    g, gm = scalene_pair()
    assert geometric_isomorphism_oracle(g, gm, o2)[0] is True
    assert geometric_isomorphism_oracle(g, gm, so2)[0] is False


def test_cap_and_mode_mismatch(o2):
    big = gen_random_cloud(11, 2, seed=0)
    with pytest.raises(OracleCapExceeded):
        geometric_isomorphism_oracle(big, big, o2)
    ge = gen_random_cloud(3, 2, seed=1)
    gf = gen_random_cloud(3, 2, seed=1, mode="float")
    with pytest.raises(ModeMismatchError):
        geometric_isomorphism_oracle(ge, gf, o2)


def test_reflexive_and_symmetric():
    for seed in range(10):
        n, d = 2 + seed % 4, 2 + seed % 2
        grp = GroupSpec("O" if seed % 2 else "SO", d)
        g1 = connected_cutoff(gen_random_cloud(n, d, seed=seed))
        g2 = connected_cutoff(gen_random_cloud(n, d, seed=seed + 100))
        assert geometric_isomorphism_oracle(g1, g1, grp)[0] is True
        ab, _ = geometric_isomorphism_oracle(g1, g2, grp)
        ba, _ = geometric_isomorphism_oracle(g2, g1, grp)
        assert ab == ba


def test_verdict_independent_of_node_order(o2):
    g = connected_cutoff(gen_random_cloud(4, 2, seed=3))
    for seed in range(5):
        rng = random.Random(seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        from geowl.graph import identity_witness, IsometryWitness

        base = identity_witness(g)
        shuffled = apply_isometry(g, IsometryWitness(tuple(perm), base.matrix, base.translation))
        assert geometric_isomorphism_oracle(g, shuffled, o2)[0] is True


def test_witness_replays_the_isometry():
    # full-rank clouds yield a witness that transforms g2 back into g1
    hits = 0
    for seed in range(20):
        d = 2 + seed % 2
        g1 = connected_cutoff(gen_random_cloud(d + 2, d, seed=seed))
        w = random_isometry(g1.n, d, seed=seed + 7, proper=(seed % 2 == 0))
        g2 = apply_isometry(g1, w)
        grp = GroupSpec("SO" if seed % 2 == 0 else "O", d)
        same, wit = geometric_isomorphism_oracle(g1, g2, grp)
        assert same
        if wit is not None:
            hits += 1
            assert apply_isometry(g2, wit) == g1
    assert hits > 0  # most random clouds span the space


def test_witness_is_exact_for_int_coordinates(o3):
    # int pivots must not divide in floats: a float witness would demote
    # the replayed graph to float mode with a warning
    g = exact_graph(
        [(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3)],
        edges=[(0, 1), (1, 2), (2, 3)],
        vectors=[[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)], [(1, 1, 1)]],
    )
    same, wit = geometric_isomorphism_oracle(g, g, o3)
    assert same
    assert not any(isinstance(c, float) for row in wit.matrix for c in row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apply_isometry(g, wit) == g


def test_vector_features_must_match(o2):
    g1 = exact_graph([(0, 0), (1, 0)], edges=[(0, 1)], vectors=[[(0, 1)], []])
    g2 = exact_graph([(0, 0), (1, 0)], edges=[(0, 1)], vectors=[[(0, 2)], []])
    assert geometric_isomorphism_oracle(g1, g2, o2)[0] is False  # norm mismatch
    g3 = exact_graph([(0, 0), (1, 0)], edges=[(0, 1)], vectors=[[(0, -1)], []])
    assert geometric_isomorphism_oracle(g1, g3, o2)[0] is True  # y-reflection
