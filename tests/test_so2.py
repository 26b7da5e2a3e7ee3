import math
import random

import pytest

from conftest import connected_pair, float_graph, rotation_2d

from geowl import (
    GroupSpec,
    apply_isometry,
    equivariant_sum_demo,
    gen_lfold,
    run_gwl,
    run_so2_gwl,
    so2_hash,
    so2_registry,
    stabilizer_order,
)
from geowl.graph import IsometryWitness


def rotate_set(pts, beta):
    c, s = math.cos(beta), math.sin(beta)
    return [(c * x - s * y, s * x + c * y) for x, y in pts]


def regular_polygon(L, radius=1.0, phase=0.0):
    return [
        (radius * math.cos(phase + 2 * math.pi * i / L),
         radius * math.sin(phase + 2 * math.pi * i / L))
        for i in range(L)
    ]


def brute_stabilizer(pts, samples=720):
    """Independent check: count rotations by multiples of 2*pi/m fixing pts."""

    def fixed_by(a):
        moved = rotate_set(pts, a)
        used = [False] * len(pts)
        for p in moved:
            hit = False
            for i, q in enumerate(pts):
                if not used[i] and math.dist(p, q) < 1e-6:
                    used[i] = hit = True
                    break
            if not hit:
                return False
        return True

    best = 1
    for m in range(2, len(pts) + 1):
        if fixed_by(2 * math.pi / m):
            best = max(best, m)
    return best


# --- stabilizer -------------------------------------------------------------


def test_stabilizer_examples():
    assert stabilizer_order([(1.0, 0.0)]).order == 1
    assert stabilizer_order([(1.0, 0.0), (-1.0, 0.0)]).order == 2
    info = stabilizer_order(regular_polygon(4, phase=0.3))
    assert info.order == 4
    assert info.theta == pytest.approx(math.pi / 2)


def test_stabilizer_continuous_for_zero_multiset():
    info = stabilizer_order([(0.0, 0.0), (0.0, 0.0)])
    assert info.continuous
    assert info.order is None


def test_stabilizer_agrees_with_brute_force():
    rng = random.Random(9)
    for trial in range(30):
        L = rng.randint(1, 6)
        pts = []
        for _ in range(rng.randint(1, 2)):
            r = rng.uniform(0.5, 2.0)
            ph = rng.uniform(0, 2 * math.pi)
            pts.extend(regular_polygon(L, r, ph))
        assert stabilizer_order(pts).order == brute_stabilizer(pts), trial


# --- hash -------------------------------------------------------------------


def test_hash_same_orbit_same_code():
    reg = so2_registry()
    pts = [(1.0, 0.0), (0.0, 2.0)]
    h1 = so2_hash(pts, reg)
    h2 = so2_hash(rotate_set(pts, 1.234), reg)
    assert h1.orbit_code == h2.orbit_code
    assert h1.norm == pytest.approx(h2.norm)


def test_hash_different_orbits_different_codes():
    reg = so2_registry()
    h1 = so2_hash([(1.0, 0.0)], reg)
    h2 = so2_hash([(2.0, 0.0)], reg)
    h3 = so2_hash([(0.0, 1.0)], reg)  # same orbit as h1
    assert h1.orbit_code != h2.orbit_code
    assert h1.orbit_code == h3.orbit_code
    assert h1.norm != h2.norm


def test_hash_equivariance_law():
    # rotating the input by beta advances the hash angle by beta * L
    rng = random.Random(17)
    reg = so2_registry()
    for trial in range(40):
        L = rng.randint(1, 5)
        pts = regular_polygon(L, rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
        beta = rng.uniform(0, 2 * math.pi)
        h = so2_hash(pts, reg)
        hr = so2_hash(rotate_set(pts, beta), reg)
        assert h.stabilizer.order == L
        delta = (hr.angle - h.angle - beta * L) % (2 * math.pi)
        assert min(delta, 2 * math.pi - delta) < 1e-6, trial
        assert hr.norm == pytest.approx(h.norm)


def test_hash_stabilizer_order_is_an_orbit_invariant():
    # L must not depend on which member of an orbit was registered first:
    # exact and near duplicates ([p, p] and [p, R(1e-11) p]) share an orbit
    # code, as do multi-ring polygons and their rotated copies
    rng = random.Random(23)
    families = []
    for _ in range(30):
        p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        families.append([[p, p], [p, rotate_set([p], 1e-11)[0]]])
        rings = []
        for _ in range(rng.randint(2, 3)):
            r = rng.choice([1.0, rng.uniform(0.5, 2.0)])
            rings += regular_polygon(rng.randint(1, 6), r, rng.uniform(0, 2 * math.pi))
        families.append([rings, rotate_set(rings, rng.uniform(0, 2 * math.pi))])
    for step in (1, -1):
        reg = so2_registry()
        orders = {}
        for family in families:
            for pts in family[::step]:
                h = so2_hash(pts, reg)
                orders.setdefault(h.orbit_code, set()).add(h.stabilizer.order)
        assert all(len(found) == 1 for found in orders.values()), orders


def test_hash_continuous_multiset_angle_zero():
    reg = so2_registry()
    h = so2_hash([(0.0, 0.0)], reg)
    assert h.angle == 0.0
    assert h.stabilizer.continuous


@pytest.mark.parametrize(
    "pts, continuous",
    [
        ([(0.0, 0.0)], True),
        ([(0.0, 0.0), (0.0, 0.0)], True),
        ([(5e-10, -5e-10), (0.0, 1e-9)], True),
        ([(0.0, 0.0), (1.0000001e-9, 0.0)], False),
        ([(3e-9, 0.0), (0.0, -3e-9)], False),
    ],
)
def test_so2_hash_continuity_matches_stabilizer(pts, continuous):
    h = so2_hash(pts, so2_registry())
    assert h.stabilizer.continuous == stabilizer_order(pts).continuous == continuous


def test_so2_hash_of_empty_multiset_is_continuous():
    h = so2_hash([], so2_registry())
    assert h.stabilizer.continuous and h.angle == 0.0


# --- refinement -------------------------------------------------------------


def test_so2_refinement_matches_gwl_on_2d_pairs():
    grp = GroupSpec("SO", 2)
    for seed in range(20):
        g1, g2 = connected_pair(seed, n_max=5, mode="float", dims=(2,))
        va, _ = run_so2_gwl(g1, g2)
        vb, _ = run_gwl(g1, g2, grp)
        assert va.distinguished == vb.distinguished, seed


def test_so2_refinement_rotation_invariant():
    g = gen_lfold(3)
    rot = rotation_2d(0.9)
    moved = apply_isometry(g, IsometryWitness(tuple(range(g.n)), rot, (0.0, 0.0)))
    verdict, _ = run_so2_gwl(g, moved)
    assert not verdict.distinguished


def test_so2_refinement_separates_different_stars():
    g3 = gen_lfold(3)
    g4 = gen_lfold(4)
    verdict, _ = run_so2_gwl(g3, g4)
    assert verdict.distinguished


# --- sum demo ----------------------------------------------------------------


def test_sum_demo_zero_for_symmetric_stars():
    for L in range(2, 11):
        pts = regular_polygon(L, 1.0, 0.37)
        sx, sy = equivariant_sum_demo(pts)
        assert abs(sx) < 1e-9 and abs(sy) < 1e-9, L


def test_sum_demo_zero_for_threefold_replication():
    rng = random.Random(3)
    base = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    pts = []
    for k in range(3):
        pts.extend(rotate_set(base, 2 * math.pi * k / 3))
    sx, sy = equivariant_sum_demo(pts)
    assert abs(sx) < 1e-9 and abs(sy) < 1e-9


def test_sum_demo_nonzero_for_asymmetric_set():
    sx, sy = equivariant_sum_demo([(1.0, 0.0), (0.0, 2.0)])
    assert (sx, sy) == (1.0, 2.0)
