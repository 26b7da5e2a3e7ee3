import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import connected_pair, exact_graph, float_graph, grid

from geowl import (
    GroupSpec,
    apply_isometry,
    gen_kchain,
    gen_random_cloud,
    gen_triangles_vs_hexagon,
    geometric_graph,
    geometric_isomorphism_oracle,
    random_isometry,
    run_gwl,
    run_igwl,
    run_igwl_k,
    run_so2_gwl,
    run_wl,
)
from geowl.engines import HISTOGRAMS_DIFFER, MAX_ITERS, PARTITION_STABLE, report_dict
from geowl.generators import mst_bottleneck_sq
from geowl.graph import ModeMismatchError, with_cutoff_sq
from geowl.linalg import GramMatcher
from geowl.numeric import NumericContext
from geowl.registry import OrbitRegistry


def shuffled_copy(g, seed):
    from geowl.graph import IsometryWitness, identity_witness

    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    base = identity_witness(g)
    return apply_isometry(g, IsometryWitness(tuple(perm), base.matrix, base.translation))


# --- WL ---------------------------------------------------------------------


def test_wl_cannot_separate_triangles_from_hexagon():
    g1, g2, _ = gen_triangles_vs_hexagon()
    verdict, trace = run_wl(g1, g2)
    assert not verdict.distinguished
    assert verdict.stable
    assert trace.termination == PARTITION_STABLE


def test_wl_permuted_copy_indistinguishable():
    g, _, _ = gen_kchain(3)
    verdict, _ = run_wl(g, shuffled_copy(g, 5))
    assert not verdict.distinguished


def test_wl_size_and_degree_separations():
    path3 = exact_graph([(0, 0), (1, 0), (2, 0)], edges=[(0, 1), (1, 2)])
    star4 = exact_graph([(0, 0), (1, 0), (0, 1), (-1, 0)], edges=[(0, 1), (0, 2), (0, 3)])
    verdict, _ = run_wl(path3, star4)
    assert verdict.distinguished and verdict.iteration == 0  # node counts differ
    triangle = exact_graph([(0, 0), (1, 0), (0, 1)], edges=[(0, 1), (1, 2), (0, 2)])
    verdict, trace = run_wl(path3, triangle)
    assert verdict.distinguished and verdict.iteration == 1  # degree histogram
    assert trace.termination == HISTOGRAMS_DIFFER


def test_refinement_stopping_rules(monkeypatch):
    o3 = GroupSpec("O", 3)
    a, b, _ = gen_triangles_vs_hexagon()
    for run in (
        lambda: run_wl(a, b, max_iters=0),
        lambda: run_gwl(a, b, GroupSpec("O", 2), max_iters=0),
        lambda: run_igwl(a, b, GroupSpec("O", 2), max_iters=0),
        lambda: run_igwl_k(a, b, GroupSpec("O", 2), 2, max_iters=0),
        lambda: run_so2_gwl(a, b, max_iters=0),
    ):
        with pytest.raises(ValueError):
            run()
    g1, g2, _ = gen_kchain(4)
    # GWL never exits early on a stable partition; it reports stability at its cap
    verdict, trace = run_gwl(g1, g1, o3)
    assert (verdict.iteration, verdict.stable) == (6, True)
    assert trace.termination == PARTITION_STABLE and len(trace.rows) == 7
    for run, stop in ((lambda: run_wl(g1, g1), 3), (lambda: run_igwl(g1, g1, o3), 2)):
        verdict, trace = run()
        assert (verdict.iteration, verdict.stable) == (stop, True)
        assert trace.termination == PARTITION_STABLE and len(trace.rows) == stop + 1
    # a run still refining at its cap computes no step past it
    calls = []
    intern_orbit = OrbitRegistry.intern_orbit
    monkeypatch.setattr(
        OrbitRegistry, "intern_orbit", lambda reg, obj: calls.append(1) or intern_orbit(reg, obj)
    )
    verdict, trace = run_gwl(g1, g2, o3, max_iters=1)
    assert (verdict.distinguished, verdict.iteration, verdict.stable) == (False, 1, False)
    assert trace.termination == MAX_ITERS and len(trace.rows) == 2
    assert len(calls) == g1.n + g2.n


# --- GWL --------------------------------------------------------------------


def test_gwl_kchain_threshold(o3):
    # separation happens at exactly floor(k/2) + 1 joint refinements
    for k in (2, 4, 5):
        g1, g2, _ = gen_kchain(k)
        t_star = k // 2 + 1
        lo, _ = run_gwl(g1, g2, o3, max_iters=max(1, t_star - 1))
        assert not lo.distinguished
        hi, trace = run_gwl(g1, g2, o3, max_iters=t_star)
        assert hi.distinguished and hi.iteration == t_star
        assert trace.rows[-1].class_count >= trace.rows[0].class_count


def test_gwl_isometric_copy_identical_histograms(so3):
    g, _, _ = gen_kchain(3)
    copy = apply_isometry(g, random_isometry(g.n, 3, seed=2, proper=True))
    verdict, trace = run_gwl(g, copy, so3)
    assert not verdict.distinguished
    for row in trace.rows:
        assert row.histogram_1 == row.histogram_2


@pytest.mark.parametrize("variant", ["O", "SO"])
def test_gwl_never_separates_coincident_nodes_from_a_copy(variant):
    # nodes 4 and 5 sit at one point, both next to node 0, but see different
    # further neighbours (6 and 7): under a pinned map, node 0's two children
    # there share (colour, key) and differ in their sub-objects
    positions = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2)
    ]
    g = exact_graph(positions, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (4, 6), (5, 7)])
    for seed in range(6):
        copy = apply_isometry(g, random_isometry(g.n, 3, seed, proper=True))
        verdict, _ = run_gwl(g, copy, GroupSpec(variant, 3))
        assert not verdict.distinguished, seed


# Pairs on which the exact orbit search used to blow up (minutes at the
# least); once the map is pinned they take well under a second.


def sq_distances(g):
    return sorted(
        sum((x - y) ** 2 for x, y in zip(p, q)) for p, q in itertools.combinations(g.positions, 2)
    )


def test_gwl_symmetric_grid_against_a_copy(so3):
    g = grid(3, 3, 3)
    copy = apply_isometry(g, random_isometry(g.n, 3, 5, proper=True))
    verdict, _ = run_gwl(g, copy, so3)
    assert not verdict.distinguished
    # one coordinate moved: the squared-distance multisets differ, which
    # certifies non-congruence without the engine
    first = copy.positions[0]
    moved = replace(copy, positions=((first[0] + 1,) + first[1:],) + copy.positions[1:])
    assert sq_distances(g) != sq_distances(moved)
    verdict, _ = run_gwl(g, moved, so3)
    assert verdict.distinguished


@pytest.mark.parametrize("variant", ["O", "SO"])
def test_gwl_float_grids_compare_each_distinct_pair_once(monkeypatch, variant):
    # the unfolded object tree pushes the same relative vectors again and
    # again; a float push compares a candidate with each distinct held pair
    # once, where comparing it with every held pair blew up on these grids
    calls = 0
    eq = NumericContext.eq

    def counted(ctx, a, b):
        nonlocal calls
        calls += 1
        return eq(ctx, a, b)

    monkeypatch.setattr(NumericContext, "eq", counted)
    grp = GroupSpec(variant, 3)
    for shape in ((2, 2, 2), (3, 2, 2)):
        exact = grid(*shape)
        g = float_graph(exact.positions, exact.edges)
        copy = apply_isometry(g, random_isometry(g.n, 3, 5, proper=True, mode="float"))
        assert not run_gwl(g, copy, grp)[0].distinguished
        first = copy.positions[0]
        moved = replace(copy, positions=((first[0] + 0.1,) + first[1:],) + copy.positions[1:])
        gaps = [abs(x - y) for x, y in zip(sq_distances(g), sq_distances(moved))]
        assert max(gaps) > 0.01  # not congruent, certified without the engine
        assert run_gwl(g, moved, grp)[0].distinguished
    # about twice the count seen (66,785 under O, 155,506 under SO); the
    # all-pairs loop made 31.8 and 51.6 million
    assert calls < {"O": 135_000, "SO": 310_000}[variant]


def test_gwl_dense_cutoff_cloud_against_a_copy(so3):
    cloud = gen_random_cloud(24, 3, 1)
    g = with_cutoff_sq(cloud, 2 * mst_bottleneck_sq(cloud.positions))
    copy = apply_isometry(g, random_isometry(g.n, 3, 1, proper=True))
    verdict, _ = run_gwl(g, copy, so3)
    assert not verdict.distinguished


def test_gwl_triangles_vs_hexagon_first_iteration(o2):
    g1, g2, _ = gen_triangles_vs_hexagon()
    verdict, _ = run_gwl(g1, g2, o2)
    assert verdict.distinguished and verdict.iteration == 1


def test_gwl_mode_mismatch(o2):
    with pytest.raises(ModeMismatchError):
        run_gwl(gen_random_cloud(3, 2, seed=0), gen_random_cloud(3, 2, seed=0, mode="float"), o2)


ENTRY_POINTS = {
    "wl": lambda a, b, grp: run_wl(a, b),
    "gwl": run_gwl,
    "igwl": run_igwl,
    "igwl-k": lambda a, b, grp: run_igwl_k(a, b, grp, 3),
    "so2": lambda a, b, grp: run_so2_gwl(a, b),
    "oracle": geometric_isomorphism_oracle,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_pair_entry_point_keeps_one_contract(name, o2):
    run = ENTRY_POINTS[name]
    tri = [(0, 0), (1, 0), (0, 1)]
    edges = [(0, 1), (0, 2), (1, 2)]
    exact = exact_graph(tri, edges)
    run(exact, exact, o2)  # a well-formed pair passes
    with pytest.raises(ValueError) as err:
        run(exact, exact_graph([(0, 0, 0), (1, 0, 0), (0, 1, 0)], edges), o2)
    assert not isinstance(err.value, ModeMismatchError)
    if name != "so2":  # the SO(2) hash reads both graphs as floats
        with pytest.raises(ModeMismatchError):
            run(exact, float_graph(tri, edges), o2)
    # one leg moved by 1e-5: seen at eps 1e-9, not at 1e-3, so the first
    # graph's tolerance would decide the verdict
    moved = [(0.0, 0.0), (1.0 + 1e-5, 0.0), (0.0, 1.0)]
    fine = geometric_graph(2, moved, edges, mode="float", eps=1e-9)
    coarse = geometric_graph(2, tri, edges, mode="float", eps=1e-3)
    for a, b in ((fine, coarse), (coarse, fine)):
        with pytest.raises(ModeMismatchError):
            run(a, b, o2)
    loose = geometric_graph(2, tri, edges, mode="exact", eps=1e-3)
    if name == "so2":  # the SO(2) hash reads eps in every mode
        with pytest.raises(ModeMismatchError):
            run(exact, loose, o2)
    else:  # exact comparisons read no eps
        run(exact, loose, o2)
    if name not in ("wl", "so2"):  # the engines that take a group
        with pytest.raises(ValueError) as err:
            run(exact, exact, GroupSpec("O", 3))
        assert not isinstance(err.value, ModeMismatchError)


# --- IGWL -------------------------------------------------------------------


def test_igwl_never_separates_kchains(o3):
    for k in (2, 3, 5, 7):
        g1, g2, _ = gen_kchain(k)
        verdict, trace = run_igwl(g1, g2, o3, max_iters=2 * (k + 2))
        assert not verdict.distinguished
        assert trace.termination == PARTITION_STABLE


def test_igwl_separates_onehop_distinct_pair_in_one_iteration(o2):
    # single centre with two unit neighbours at 90 vs 180 degrees
    star90 = exact_graph([(0, 0), (1, 0), (0, 1)], edges=[(0, 1), (0, 2)])
    star180 = exact_graph([(0, 0), (1, 0), (-1, 0)], edges=[(0, 1), (0, 2)])
    verdict, _ = run_igwl(star90, star180, o2)
    assert verdict.distinguished and verdict.iteration == 1


def test_igwl_equals_gwl_on_fully_connected_pairs():
    # first-hop geometry is all geometry when every node sees every other
    for seed in range(25):
        rng = random.Random(seed)
        n, d = rng.randint(2, 6), rng.choice([2, 3])
        c1 = gen_random_cloud(n, d, seed=seed)
        if seed % 2:
            c2 = apply_isometry(c1, random_isometry(n, d, seed + 1, proper=True))
        else:
            c2 = gen_random_cloud(n, d, seed=seed + 999)
        full = [(i, j) for i in range(n) for j in range(i + 1, n)]
        from geowl import geometric_graph

        g1 = geometric_graph(d, c1.positions, full, c1.scalars, mode="exact")
        g2 = geometric_graph(d, c2.positions, full, c2.scalars, mode="exact")
        grp = GroupSpec("SO" if seed % 3 == 0 else "O", d)
        vi, _ = run_igwl(g1, g2, grp)
        vg, _ = run_gwl(g1, g2, grp)
        assert vi.distinguished == vg.distinguished, seed


# --- IGWL_(k) ---------------------------------------------------------------


def test_igwl_k_triangles_vs_hexagon(o2):
    g1, g2, _ = gen_triangles_vs_hexagon()
    v2, _ = run_igwl_k(g1, g2, o2, k=2)
    assert not v2.distinguished  # all edges unit length: distances say nothing
    v3, _ = run_igwl_k(g1, g2, o2, k=3)
    assert v3.distinguished  # 60 vs 120 degree angles


def test_igwl_k_requires_body_order_two(o2):
    g1, g2, _ = gen_triangles_vs_hexagon()
    with pytest.raises(ValueError):
        run_igwl_k(g1, g2, o2, k=1)


def test_igwl_hierarchy_on_random_pairs():
    # order k-1 separating a pair implies order k does too
    for seed in range(20):
        g1, g2 = connected_pair(seed, n_max=5)
        grp = GroupSpec("O", g1.dim)
        verdicts = {k: run_igwl_k(g1, g2, grp, k)[0].distinguished for k in (2, 3, 4)}
        assert not (verdicts[2] and not verdicts[3]), seed
        assert not (verdicts[3] and not verdicts[4]), seed


# --- cross-cutting properties ------------------------------------------------


def test_soundness_distinguished_implies_non_isomorphic():
    for seed in range(20):
        g1, g2 = connected_pair(seed, n_max=5)
        grp = GroupSpec("SO" if seed % 2 else "O", g1.dim)
        same, _ = geometric_isomorphism_oracle(g1, g2, grp)
        for runner in (
            lambda: run_gwl(g1, g2, grp),
            lambda: run_igwl(g1, g2, grp),
            lambda: run_igwl_k(g1, g2, grp, 3),
        ):
            verdict, _ = runner()
            if verdict.distinguished:
                assert not same


def test_igwl_distinguished_implies_gwl_distinguished():
    for seed in range(20):
        g1, g2 = connected_pair(seed, n_max=5)
        grp = GroupSpec("O", g1.dim)
        vi, _ = run_igwl(g1, g2, grp)
        vg, _ = run_gwl(g1, g2, grp)
        if vi.distinguished:
            assert vg.distinguished


def test_class_count_is_monotone():
    for seed in range(8):
        g1, g2 = connected_pair(seed, n_max=5)
        grp = GroupSpec("O", g1.dim)
        for runner in (
            lambda: run_wl(g1, g2),
            lambda: run_gwl(g1, g2, grp),
            lambda: run_igwl(g1, g2, grp),
            lambda: run_igwl_k(g1, g2, grp, 2),
        ):
            _, trace = runner()
            counts = [row.class_count for row in trace.rows]
            assert counts == sorted(counts)


def test_report_serialisation(o3):
    g1, g2, _ = gen_kchain(2)
    verdict, trace = run_gwl(g1, g2, o3)
    report = report_dict("gwl", o3, verdict, trace)
    assert report["test"] == "gwl"
    assert report["group"] == "O(3)"
    assert report["verdict"] == "distinguished"
    assert report["iteration"] == 2
    assert len(report["trace"]["rows"]) == 3


# --- exact pairs on ints -----------------------------------------------------


def fraction_pair(seed):
    """An exact cutoff cloud with Fraction positions and feature vectors, and
    a rotated, permuted copy of it."""
    rng = random.Random(("fraction-pair", seed).__repr__())
    cloud = gen_random_cloud(5, 3, seed=seed)
    vectors = tuple(
        (tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)),)
        for _ in range(cloud.n)
    )
    g = with_cutoff_sq(replace(cloud, vectors=vectors), mst_bottleneck_sq(cloud.positions))
    return g, apply_isometry(g, random_isometry(g.n, 3, seed + 1, proper=True))


def scaled(g, s):
    return replace(
        g,
        positions=tuple(tuple(s * c for c in x) for x in g.positions),
        vectors=tuple(tuple(tuple(s * c for c in v) for v in vs) for vs in g.vectors),
    )


ENGINES = {"gwl": run_gwl, "igwl": run_igwl, "igwl-k": lambda a, b, grp: run_igwl_k(a, b, grp, 3)}


def test_exact_engines_compare_only_ints(monkeypatch):
    g, h = fraction_pair(3)
    assert any(type(c) is Fraction for x in g.positions + h.positions for c in x)
    seen = []
    push, intern_bag = GramMatcher.push, OrbitRegistry.intern_bag

    def pushed(matcher, a, b):
        seen.append(a + b)
        return push(matcher, a, b)

    def bagged(reg, exact, numbers):
        # a k-body bag's numbers are its descriptors' Gram entries
        seen.append(numbers)
        return intern_bag(reg, exact, numbers)

    monkeypatch.setattr(GramMatcher, "push", pushed)
    monkeypatch.setattr(OrbitRegistry, "intern_bag", bagged)
    for name, run in ENGINES.items():
        for grp in (GroupSpec("O", 3), GroupSpec("SO", 3)):
            seen.clear()
            assert not run(g, h, grp)[0].distinguished
            assert seen, name
            assert all(type(c) is int for t in seen for c in t), name


@pytest.mark.parametrize("variant", ["O", "SO"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_scaling_both_graphs_keeps_verdict_and_trace(engine, variant):
    run = ENGINES[engine]
    grp = GroupSpec(variant, 3)
    pairs = [fraction_pair(5), gen_kchain(4)[:2]]
    g, h = fraction_pair(7)
    pairs.append((g, scaled(h, Fraction(1, 2))))  # not congruent
    outcomes = set()
    for a, b in pairs:
        want = run(a, b, grp)
        s = Fraction(7, 3)
        assert run(scaled(a, s), scaled(b, s), grp) == want
        outcomes.add(want[0].distinguished)
    assert outcomes == {True, False}


def test_igwl_k_keeps_an_int_star_congruent_to_its_rotations():
    # Gram-Schmidt on int coordinates must not divide in floats: (46, -34, 27)
    # is (6, 1, 2) + 5 (8, -7, 5), and a float residual made it look
    # independent in some copies and not in others
    so3 = GroupSpec("SO", 3)
    spokes = [(6, 1, 2), (8, -7, 5), (46, -34, 27), (-1, 1, 6)]
    g = exact_graph([(0, 0, 0)] + spokes, edges=[(0, i) for i in range(1, 5)])
    for seed in range(3):
        copy = apply_isometry(g, random_isometry(5, 3, seed, proper=True))
        assert geometric_isomorphism_oracle(g, copy, so3)[0]
        assert not run_igwl_k(g, copy, so3, 5)[0].distinguished, seed
