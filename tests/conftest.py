import itertools
import math
import random
from fractions import Fraction

import pytest

from geowl import (
    GroupSpec,
    apply_isometry,
    gen_random_cloud,
    geometric_graph,
    random_isometry,
)
from geowl.generators import mst_bottleneck_sq
from geowl.graph import with_cutoff_sq


def exact_graph(positions, edges=(), scalars=None, vectors=None):
    positions = [tuple(Fraction(c) for c in p) for p in positions]
    if scalars is None:
        scalars = [(0,)] * len(positions)
    return geometric_graph(
        len(positions[0]), positions, edges, scalars, vectors, mode="exact"
    )


def float_graph(positions, edges=(), scalars=None, vectors=None):
    positions = [tuple(float(c) for c in p) for p in positions]
    if scalars is None:
        scalars = [(0,)] * len(positions)
    return geometric_graph(
        len(positions[0]), positions, edges, scalars, vectors, mode="float"
    )


def tiny_right_triangles(unit=Fraction(1, 10**10)):
    """Exact right triangles with legs (1, 1) and (3, 1) times unit, all
    three edges; at the default unit the legs lie far below sqrt(eps)."""
    return tuple(
        exact_graph([(0, 0), (a * unit, 0), (0, unit)], [(0, 1), (0, 2), (1, 2)])
        for a in (1, 3)
    )


def connected_cutoff(cloud):
    """Re-edge a cloud with the smallest cutoff that keeps it connected."""
    r2 = mst_bottleneck_sq(cloud.positions)
    if r2 is None:
        return cloud
    if cloud.ctx.mode == "float":
        r2 = r2 * (1 + 1e-12)
    return with_cutoff_sq(cloud, r2)


def connected_pair(seed, n_max=5, mode="exact", dims=(2, 3)):
    """A seeded (g1, g2) pair of connected radial-cutoff graphs.

    Odd seeds produce an isometric (randomly rotated, reflected on seed % 4
    == 3, permuted, translated) copy; even seeds an independent cloud.
    """
    rng = random.Random(("pair", seed, n_max, mode).__repr__())
    n = rng.randint(2, n_max)
    d = rng.choice(list(dims))
    c1 = gen_random_cloud(n, d, seed=seed, mode=mode)
    if seed % 2:
        w = random_isometry(n, d, seed + 10_000, proper=(seed % 4 == 1), mode=mode)
        c2 = apply_isometry(c1, w)
    else:
        c2 = gen_random_cloud(n, d, seed=seed + 50_000, mode=mode)
    r2 = max(mst_bottleneck_sq(c1.positions), mst_bottleneck_sq(c2.positions))
    if mode == "float":
        r2 = r2 * (1 + 1e-12)
    return with_cutoff_sq(c1, r2), with_cutoff_sq(c2, r2)


def grid(a, b, c):
    """The exact a x b x c integer grid, edges between points at distance 1."""
    points = list(itertools.product(range(a), range(b), range(c)))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(points)), 2)
        if sum((x - y) ** 2 for x, y in zip(points[i], points[j])) == 1
    ]
    return exact_graph(points, edges)


def unit_edge_tree(seed, n=6):
    """A random tree embedded in the plane with every edge of length 1."""
    rng = random.Random(("tree", seed, n).__repr__())
    pos = [(0.0, 0.0)]
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        a = rng.uniform(0, 2 * math.pi)
        px, py = pos[parent]
        pos.append((px + math.cos(a), py + math.sin(a)))
        edges.append((parent, i))
    scalars = [(rng.randint(0, 1),) for _ in range(n)]
    return float_graph(pos, edges, scalars)


def rotation_2d(angle):
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s), (s, c))


@pytest.fixture
def o2():
    return GroupSpec("O", 2)


@pytest.fixture
def so2():
    return GroupSpec("SO", 2)


@pytest.fixture
def o3():
    return GroupSpec("O", 3)


@pytest.fixture
def so3():
    return GroupSpec("SO", 3)
