import math
import random
from fractions import Fraction

import pytest

from conftest import exact_graph, float_graph

from geowl import (
    apply_isometry,
    bounding_box_metrics,
    centroid,
    centroid_distance_multiset,
    dihedral_cos,
    gen_onehop_identical_pair,
    gen_random_cloud,
    property_report,
    random_isometry,
)
from geowl.properties import DegenerateGeometryError, bounding_box_extents


def box_graph(extents):
    pts = [tuple(0 for _ in extents), tuple(extents)]
    return exact_graph(pts, edges=[])


def test_bounding_box_4_2_2():
    g = box_graph((4, 2, 2))
    perimeter, area, volume = bounding_box_metrics(g)
    assert (perimeter, area, volume) == (32, 40, 16)


def test_bounding_box_unit_cube():
    perimeter, area, volume = bounding_box_metrics(box_graph((1, 1, 1)))
    assert (perimeter, area, volume) == (12, 6, 1)


def test_bounding_box_single_point():
    g = exact_graph([(0, 0, 0)], edges=[])
    assert bounding_box_metrics(g) == (0, 0, 0)


def test_bounding_box_2d():
    perimeter, area, volume = bounding_box_metrics(box_graph((3, 2)))
    assert (perimeter, area) == (10, 6)
    assert volume is None


def test_bounding_box_rejects_1d():
    g = exact_graph([(0,), (3,)], edges=[])
    with pytest.raises(ValueError):
        bounding_box_metrics(g)


def test_centroid_and_distance_multiset():
    g = exact_graph([(0, 0), (2, 0), (0, 2), (2, 2)], edges=[])
    assert centroid(g) == (Fraction(1), Fraction(1))
    assert centroid_distance_multiset(g) == (2, 2, 2, 2)


def test_onehop_pair_properties_differ():
    g1, g2, _ = gen_onehop_identical_pair()
    assert centroid_distance_multiset(g1) != centroid_distance_multiset(g2)
    assert bounding_box_metrics(g1) != bounding_box_metrics(g2)


def test_dihedral_coplanar_and_perpendicular():
    # l-j-k-m all in the z=0 plane, same side: cos = 1
    flat = exact_graph(
        [(0, 1, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0)],
        edges=[(0, 1), (1, 2), (2, 3)],
    )
    assert dihedral_cos(flat, 0, 1, 2, 3) == 1
    # fold the far flap straight up: cos = 0
    bent = exact_graph(
        [(0, 1, 0), (0, 0, 0), (1, 0, 0), (1, 0, 1)],
        edges=[(0, 1), (1, 2), (2, 3)],
    )
    assert dihedral_cos(bent, 0, 1, 2, 3) == 0
    # fold all the way back over: cos = -1
    folded = exact_graph(
        [(0, 1, 0), (0, 0, 0), (1, 0, 0), (1, -1, 0)],
        edges=[(0, 1), (1, 2), (2, 3)],
    )
    assert dihedral_cos(folded, 0, 1, 2, 3) == -1


def test_exact_dihedral_stays_rational():
    # normals (0, 0, 1) and (0, -1, 1): signed squared cosine 1/2, not 0.5
    g = exact_graph([(0, 1, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1)])
    value = dihedral_cos(g, 0, 1, 2, 3)
    assert type(value) is Fraction and value == Fraction(1, 2)


def test_dihedral_matches_independent_normal_computation():
    rng = random.Random(42)
    for _ in range(20):
        pts = [tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(4)]
        g = float_graph(pts, edges=[(0, 1), (1, 2), (2, 3)])
        try:
            got = dihedral_cos(g, 0, 1, 2, 3)
        except DegenerateGeometryError:
            continue
        l, j, k, m = pts

        def sub(a, b):
            return tuple(x - y for x, y in zip(a, b))

        def crs(a, b):
            return (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )

        axis = sub(j, k)
        n1 = crs(axis, sub(l, j))
        n2 = crs(axis, sub(m, k))
        expect = sum(a * b for a, b in zip(n1, n2)) / math.sqrt(
            sum(a * a for a in n1) * sum(a * a for a in n2)
        )
        assert got == pytest.approx(expect, abs=1e-9)


def test_dihedral_degenerate_collinear():
    g = exact_graph(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 1, 0)],
        edges=[(0, 1), (1, 2), (2, 3)],
    )
    with pytest.raises(DegenerateGeometryError):
        dihedral_cos(g, 0, 1, 2, 3)


def test_invariance_under_isometry():
    g = gen_random_cloud(5, 3, seed=4)
    moved = apply_isometry(g, random_isometry(5, 3, seed=5, proper=False))
    assert centroid_distance_multiset(g) == centroid_distance_multiset(moved)


def test_property_report_round_trip():
    g = box_graph((4, 2, 2))
    report = property_report(g)
    assert report.extents == (4, 2, 2)
    d = report.to_dict()
    assert d["perimeter"] == 32.0
    assert d["area"] == 40.0
    assert d["volume"] == 16.0
