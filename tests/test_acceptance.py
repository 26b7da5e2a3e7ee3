"""Acceptance gate: nine end-to-end criteria, one printed pass/fail line each.

Each criterion is computed by a pure suite function returning (ok, record)
where record is a JSON-serialisable transcript of everything the suite
observed.  Criterion 9 re-runs every suite and demands bit-identical
records, so the suite functions must avoid any source of nondeterminism.
"""
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from conftest import connected_pair, float_graph, unit_edge_tree

from geowl import (
    GroupSpec,
    apply_isometry,
    bounding_box_metrics,
    centroid_distance_multiset,
    equivariant_sum_demo,
    gen_kchain,
    gen_lfold,
    gen_onehop_identical_pair,
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
    so2_hash,
    so2_registry,
)
from geowl.generators import mst_bottleneck_sq
from geowl.graph import with_cutoff_sq

O2, O3, SO2, SO3 = GroupSpec("O", 2), GroupSpec("O", 3), GroupSpec("SO", 2), GroupSpec("SO", 3)

_cache = {}


def announce(num, name, ok):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def trace_record(trace):
    return [
        [row.iteration, row.histogram_1, row.histogram_2, row.class_count]
        for row in trace.rows
    ] + [trace.termination]


def run_suite(num, fn):
    if num not in _cache:
        start = time.perf_counter()
        ok, record = fn()
        _cache[num] = (ok, record, time.perf_counter() - start)
    return _cache[num]


# --- suite bodies -------------------------------------------------------------


def suite1():
    ok, record = True, []
    for k in range(2, 9):
        g1, g2, _ = gen_kchain(k)
        t_star = k // 2 + 1
        for budget in range(1, t_star + 1):
            verdict, trace = run_gwl(g1, g2, O3, max_iters=budget)
            want = budget == t_star
            ok &= verdict.distinguished == want
            record.append(["gwl", k, budget, verdict.distinguished, trace_record(trace)])
        verdict, trace = run_igwl(g1, g2, O3, max_iters=2 * (k + 2))
        ok &= not verdict.distinguished
        record.append(["igwl", k, verdict.distinguished, trace_record(trace)])
    return ok, record


def suite2():
    ok, record = True, []
    for seed in range(100):
        g1, g2 = connected_pair(seed, n_max=5)
        for grp in (GroupSpec("O", g1.dim), GroupSpec("SO", g1.dim)):
            same, _ = geometric_isomorphism_oracle(g1, g2, grp)
            verdict, _ = run_gwl(g1, g2, grp)
            ok &= verdict.distinguished == (not same)
            record.append([seed, grp.variant, same, verdict.distinguished])
    return ok, record


def suite3():
    ok, record = True, []
    for proper in (False, True):
        for seed in range(100):
            n = 2 + seed % 4
            d = 2 + seed % 2
            cloud = gen_random_cloud(n, d, seed=seed)
            g = with_cutoff_sq(cloud, mst_bottleneck_sq(cloud.positions))
            copy = apply_isometry(g, random_isometry(n, d, seed + 777, proper=proper))
            grp = GroupSpec("SO" if proper else "O", d)
            verdict, trace = run_gwl(g, copy, grp)
            rows_equal = all(r.histogram_1 == r.histogram_2 for r in trace.rows)
            ok &= (not verdict.distinguished) and rows_equal
            record.append([proper, seed, verdict.distinguished, trace_record(trace)])
    return ok, record


def suite4():
    ok, record = True, []
    for seed in range(50):
        n = 2 + seed % 5
        d = 2 + seed % 2
        c1 = gen_random_cloud(n, d, seed=seed)
        if seed % 2:
            c2 = apply_isometry(c1, random_isometry(n, d, seed + 1, proper=True))
        else:
            c2 = gen_random_cloud(n, d, seed=seed + 5_000)
        full = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g1 = geometric_graph(d, c1.positions, full, c1.scalars, mode="exact")
        g2 = geometric_graph(d, c2.positions, full, c2.scalars, mode="exact")
        grp = GroupSpec("O", d)
        vi, _ = run_igwl(g1, g2, grp)
        vg, _ = run_gwl(g1, g2, grp)
        ok &= vi.distinguished == vg.distinguished
        record.append([seed, vi.distinguished, vg.distinguished])
    return ok, record


def suite5():
    ok, record = True, []
    t1, t2, _ = gen_triangles_vs_hexagon()
    cases = [(t1, t2)]
    for seed in range(50):
        cases.append((unit_edge_tree(seed), unit_edge_tree(seed + 3_000)))
    for idx, (g1, g2) in enumerate(cases):
        grp = GroupSpec("O", g1.dim)
        v2, _ = run_igwl_k(g1, g2, grp, 2)
        vw, _ = run_wl(g1, g2)
        ok &= v2.distinguished == vw.distinguished
        record.append([idx, v2.distinguished, vw.distinguished])
    v3, _ = run_igwl_k(t1, t2, GroupSpec("O", 2), 3)
    ok &= v3.distinguished
    record.append(["tri-hex-k3", v3.distinguished])
    return ok, record


def suite6():
    ok, record = True, []
    for seed in range(100):
        g1, g2 = connected_pair(seed, n_max=5)
        grp = GroupSpec("O", g1.dim)
        verdicts = []
        for k in (2, 3, 4):
            v, _ = run_igwl_k(g1, g2, grp, k)
            verdicts.append(v.distinguished)
        for lower, upper in zip(verdicts, verdicts[1:]):
            ok &= not (lower and not upper)
        record.append([seed, verdicts])
    return ok, record


def suite7():
    ok, record = True, []
    g1, g2, _ = gen_onehop_identical_pair()
    verdict, trace = run_igwl(g1, g2, GroupSpec("O", 3))
    ok &= not verdict.distinguished
    m1, m2 = centroid_distance_multiset(g1), centroid_distance_multiset(g2)
    b1, b2 = bounding_box_metrics(g1), bounding_box_metrics(g2)
    ok &= m1 != m2 and b1 != b2
    record.append([verdict.distinguished, [str(v) for v in m1], [str(v) for v in m2]])
    record.append([[str(v) for v in b1], [str(v) for v in b2]])
    box = geometric_graph(
        3,
        [(0, 0, 0), (4, 0, 0), (0, 2, 0), (4, 2, 2)],
        [],
        [(0,)] * 4,
        mode="exact",
    )
    metrics = bounding_box_metrics(box)
    ok &= metrics == (32, 40, 16)
    record.append([str(v) for v in metrics])
    return ok, record


def suite8():
    import random

    ok, record = True, []
    eps = 1e-9
    reg = so2_registry()
    rng = random.Random("so2-acceptance")

    def rotate_set(pts, beta):
        c, s = math.cos(beta), math.sin(beta)
        return [(c * x - s * y, s * x + c * y) for x, y in pts]

    for trial in range(200):
        L = rng.randint(1, 6)
        r, phase = rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)
        pts = [
            (r * math.cos(phase + 2 * math.pi * i / L),
             r * math.sin(phase + 2 * math.pi * i / L))
            for i in range(L)
        ]
        if L == 1:
            pts.append((rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
        L_true = 1 if L == 1 else L
        beta = rng.uniform(0, 2 * math.pi)
        h = so2_hash(pts, reg)
        hr = so2_hash(rotate_set(pts, beta), reg)
        # orbit-norm law: rotated copies share orbit code and norm
        norm_ok = hr.orbit_code == h.orbit_code and abs(hr.norm - h.norm) <= eps * h.norm
        # equivariance law: angle advances by beta * L modulo 2*pi
        delta = (hr.angle - h.angle - beta * h.stabilizer.order) % (2 * math.pi)
        ang_ok = min(delta, 2 * math.pi - delta) <= 1e-6
        ok &= norm_ok and ang_ok and h.stabilizer.order == L_true
        record.append([trial, norm_ok, ang_ok, h.orbit_code])
    for seed in range(100):
        g1, g2 = connected_pair(seed, n_max=5, mode="float", dims=(2,))
        va, _ = run_so2_gwl(g1, g2)
        vb, _ = run_gwl(g1, g2, SO2)
        ok &= va.distinguished == vb.distinguished
        record.append([seed, va.distinguished, vb.distinguished])
    for L in range(2, 11):
        g = gen_lfold(L)
        sx, sy = equivariant_sum_demo(g.positions[1:])
        ok &= abs(sx) <= eps and abs(sy) <= eps
        record.append([L, sx, sy])
    return ok, record


SUITES = {1: suite1, 2: suite2, 3: suite3, 4: suite4, 5: suite5, 6: suite6, 7: suite7, 8: suite8}


def digest(record):
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


# --- criteria ------------------------------------------------------------------


def test_criterion_1_kchain_thresholds():
    ok, _, elapsed = run_suite(1, suite1)
    announce(1, "k-chain separation thresholds", ok and elapsed < 5.0)


def test_criterion_2_oracle_equivalence():
    ok, record, elapsed = run_suite(2, suite2)
    announce(2, "joint refinement matches the congruence oracle 200/200", ok and len(record) == 200 and elapsed < 60.0)


def test_criterion_3_isometry_invariance():
    ok, record, _ = run_suite(3, suite3)
    announce(3, "identical traces on 200 isometric copies", ok and len(record) == 200)


def test_criterion_4_fully_connected_collapse():
    ok, record, _ = run_suite(4, suite4)
    announce(4, "one-hop variant equals full test on complete graphs", ok and len(record) == 50)


def test_criterion_5_unit_edge_collapse():
    ok, _, _ = run_suite(5, suite5)
    announce(5, "2-body variant equals plain refinement on unit-edge graphs", ok)


def test_criterion_6_body_order_hierarchy():
    ok, record, _ = run_suite(6, suite6)
    announce(6, "body-order hierarchy is monotone", ok and len(record) == 100)


def test_criterion_7_global_properties_blind_spot():
    ok, _, _ = run_suite(7, suite7)
    announce(7, "indistinguishable pair with differing global properties", ok)


def test_criterion_8_planar_encoding():
    ok, _, _ = run_suite(8, suite8)
    announce(8, "planar orbit/orientation encoding laws", ok)


def test_criterion_9_determinism():
    ok = True
    for num, fn in SUITES.items():
        _, first, _ = run_suite(num, fn)
        _, second = fn()
        ok &= digest(first) == digest(second)
    announce(9, "bit-identical records across consecutive runs", ok)


if __name__ == "__main__":
    # the criterion-9 records' digests, to compare with another revision's
    for num, fn in SUITES.items():
        print(num, digest(fn()[1]))
