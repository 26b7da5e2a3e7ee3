"""Seeded inputs, reference verdicts and verdict tasks for the workloads.

A workload turns a seed into a list of Task objects. One task is one
engine x group x pair call, decided before the next one starts (a closed
loop with one client). Each task carries the verdict it must return. That
reference comes from how the pair was built (an isometric copy, a k-chain
with a known separation budget) or from a stdlib certificate of
non-congruence; it never comes from the engine under test. `None` means no
reference: any verdict is accepted, but the call must still succeed.

The library is reached only through its public names, and engines are
looked up on their module at call time, so the traced run's wrappers see
every call.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from geowl import GroupSpec, IsometryWitness, apply_isometry, cli, dump_graph, engines
from geowl import gen_kchain, gen_lfold, gen_random_cloud, gen_triangles_vs_hexagon
from geowl import geometric_graph, random_isometry


@dataclass(frozen=True)
class Task:
    label: str
    call: Callable[[], Tuple[bool, str]]  # -> (distinguished, record for the digest)
    expected: Optional[bool]


# --- stdlib geometry used for references and edge sets ----------------------


def _sq_dist(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def _mst_bottleneck_sq(positions):
    """Longest edge (squared) of a minimum spanning tree on the points."""
    best = 0
    dist = {j: _sq_dist(positions[0], positions[j]) for j in range(1, len(positions))}
    while dist:
        j = min(dist, key=lambda u: (dist[u], u))
        best = max(best, dist.pop(j))
        for u in dist:
            dist[u] = min(dist[u], _sq_dist(positions[j], positions[u]))
    return best


def _cutoff_edges(positions, r_sq):
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(positions)), 2)
        if 0 < _sq_dist(positions[i], positions[j]) <= r_sq
    ]


def _distances(positions):
    return sorted(_sq_dist(p, q) for p, q in itertools.combinations(positions, 2))


def certainly_non_congruent(pos1, pos2, exact: bool) -> bool:
    """True when the sorted pairwise squared-distance multisets differ.

    Congruent point sets have equal multisets, so a difference certifies
    non-congruence under O(d), hence also under SO(d). Float sets must differ
    far beyond any comparison tolerance the library uses.
    """
    if len(pos1) != len(pos2):
        return True
    d1, d2 = _distances(pos1), _distances(pos2)
    if exact:
        return d1 != d2
    return any(abs(a - b) > 1e-6 * max(1.0, abs(a), abs(b)) for a, b in zip(d1, d2))


def _graph(positions, edges, mode):
    d = len(positions[0])
    return geometric_graph(d, positions, edges, [(0,)] * len(positions), mode=mode)


def _subseed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


# --- task constructors ------------------------------------------------------


def _engine_task(label, runner, expected) -> Task:
    def call():
        verdict, trace = runner()
        record = json.dumps([verdict.to_dict(), trace.to_dict()], sort_keys=True)
        return verdict.distinguished, record

    return Task(label, call, expected)


def _cli_task(label, argv, expected) -> Task:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if code not in (0, 10):
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return code == 10, f"{code}\n{out.getvalue()}"

    return Task(label, call, expected)


# --- iso-exact ----------------------------------------------------------------

# Cloud k of the fixed catalogue: gen_random_cloud(5 + k % 4, 2 + (k // 4) % 2,
# seed=k), re-edged at twice its MST bottleneck length. No index is skipped.
ISO_CLOUDS = 12

# Symmetric lattices, edged at their nearest-neighbour distance (the MST
# bottleneck): their automorphisms make orbit search backtrack.
LATTICES = {
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "grid3x2": [(x, y) for x in range(3) for y in range(2)],
    "tetrahedron": [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
    "square_pyramid": [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1)],
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "cube": list(itertools.product((0, 1), repeat=3)),
}


def iso_exact_bases():
    """The fixed base graphs; the seed only chooses their isometric copies."""
    bases = []
    for k in range(ISO_CLOUDS):
        n, d = 5 + k % 4, 2 + (k // 4) % 2
        pos = gen_random_cloud(n, d, seed=k).positions
        bases.append((f"cloud{k}", _graph(pos, _cutoff_edges(pos, 4 * _mst_bottleneck_sq(pos)), "exact")))
    for name, pts in LATTICES.items():
        pos = [tuple(Fraction(c) for c in p) for p in pts]
        bases.append((name, _graph(pos, _cutoff_edges(pos, _mst_bottleneck_sq(pos)), "exact")))
    return bases


def iso_exact_tasks(bases, seed: int) -> List[Task]:
    """run_gwl under O(d) and SO(d) on exact isometric copies (all 'same')."""
    rng = random.Random(f"iso-exact:{seed}")
    tasks = []
    for name, g in bases:
        for variant in ("O", "SO"):
            w = random_isometry(g.n, g.dim, _subseed(rng), proper=variant == "SO")
            copy = apply_isometry(g, w)
            grp = GroupSpec(variant, g.dim)
            tasks.append(
                _engine_task(
                    f"gwl/{variant}/{name}",
                    lambda g=g, copy=copy, grp=grp: engines.run_gwl(g, copy, grp),
                    False,
                )
            )
    return tasks


# --- kchain-deep ----------------------------------------------------------------

KCHAIN_RANGE = range(2, 12)


def kchain_bases():
    return [(k,) + gen_kchain(k)[:2] for k in KCHAIN_RANGE]


def _integer_motion(g, rng: random.Random):
    """Relabel nodes and apply a signed axis permutation plus an integer
    translation, so coordinates stay plain ints."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    axes = list(range(g.dim))
    rng.shuffle(axes)
    q = tuple(
        tuple(rng.choice((-1, 1)) if c == axes[r] else 0 for c in range(g.dim))
        for r in range(g.dim)
    )
    t = tuple(rng.randint(-5, 5) for _ in range(g.dim))
    return apply_isometry(g, IsometryWitness(tuple(perm), q, t))


def kchain_tasks(bases, seed: int) -> List[Task]:
    """GWL at budgets 1..k//2+1 (separates exactly at the last) and IGWL at
    a generous budget (never separates), on moved k-chain pairs."""
    rng = random.Random(f"kchain-deep:{seed}")
    grp = GroupSpec("O", 3)
    tasks = []
    for k, g1, g2 in bases:
        a, b = _integer_motion(g1, rng), _integer_motion(g2, rng)
        t_star = k // 2 + 1
        for budget in range(1, t_star + 1):
            tasks.append(
                _engine_task(
                    f"gwl/k{k}/b{budget}",
                    lambda a=a, b=b, budget=budget: engines.run_gwl(a, b, grp, max_iters=budget),
                    budget == t_star,
                )
            )
        tasks.append(
            _engine_task(
                f"igwl/k{k}",
                lambda a=a, b=b, k=k: engines.run_igwl(a, b, grp, max_iters=2 * (k + 2)),
                False,
            )
        )
    return tasks


# --- cli-mixed ----------------------------------------------------------------

# Pair slot k of the fixed catalogue: exact when k is even, an isometric copy
# when k // 2 is even, n = 3 + (k // 4) % 4 nodes in 2 + (k // 16) % 2
# dimensions, base positions drawn from the slot index alone.
CLI_PAIRS = 48


def _base_positions(k: int, n: int, d: int, exact: bool):
    rng = random.Random(f"cli-mixed-base:{k}")
    while True:
        if exact:
            pos = [tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d)) for _ in range(n)]
        else:
            pos = [tuple(rng.uniform(-1.0, 1.0) for _ in range(d)) for _ in range(n)]
        if len(set(pos)) == n:
            return pos


def _cli_pair(k: int, rng: random.Random):
    """Slot k's connected pair, edged at twice the MST bottleneck: a proper
    isometric copy, or a copy with one node moved (by a seeded shift) whose
    distance multiset certifiably differs. The seed also draws the copy's
    relabelling, rotation and translation."""
    exact, isometric = k % 2 == 0, (k // 2) % 2 == 0
    n, d = 3 + (k // 4) % 4, 2 + (k // 16) % 2
    mode = "exact" if exact else "float"
    pos1 = _base_positions(k, n, d, exact)
    pos2 = pos1
    while not isometric:
        pos2 = list(pos1)
        j, axis = rng.randrange(n), rng.randrange(d)
        shift = Fraction(rng.randint(1, 4), 4) if exact else rng.uniform(0.2, 0.5)
        pos2[j] = tuple(c + shift if a == axis else c for a, c in enumerate(pos2[j]))
        if len(set(pos2)) == n and certainly_non_congruent(pos1, pos2, exact):
            break
    r_sq = 4 * max(_mst_bottleneck_sq(pos1), _mst_bottleneck_sq(pos2))
    g1 = _graph(pos1, _cutoff_edges(pos1, r_sq), mode)
    g2 = _graph(pos2, _cutoff_edges(pos2, r_sq), mode)
    copy = apply_isometry(g2, random_isometry(n, d, _subseed(rng), proper=True, mode=mode))
    return f"{mode}{k}", g1, copy, isometric


def _igwl_k_task(name, path_a, path_b, k, expected) -> Task:
    argv = ["distinguish", path_a, path_b, "--test", "igwl-k", "--k", str(k), "--format", "json"]
    return _cli_task(f"igwl-k{k}/{name}", argv, expected)


def _cli_pair_tasks(name, path_a, path_b, dim, isometric, k_refs=None) -> List[Task]:
    """Every engine on one pair. Isometric pairs: no engine may separate them.
    Non-congruent pairs: GWL and the oracle must; other engines are unchecked
    unless k_refs gives the igwl-k verdicts. k_refs maps each body order k
    to run to its reference verdict."""
    same = False if isometric else None
    must = not isometric
    k_refs = k_refs or {2: same, 3: same}
    tasks = [
        _cli_task(f"wl/{name}", ["distinguish", path_a, path_b, "--test", "wl", "--format", "json"], same),
        _cli_task(f"igwl/{name}", ["distinguish", path_a, path_b, "--test", "igwl", "--format", "json"], same),
    ]
    for k, expected in k_refs.items():
        tasks.append(_igwl_k_task(name, path_a, path_b, k, expected))
    for variant in ("O", "SO"):
        argv = ["distinguish", path_a, path_b, "--test", "gwl", "--group", variant, "--format", "json"]
        tasks.append(_cli_task(f"gwl/{variant}/{name}", argv, must))
    if dim == 2:
        argv = ["distinguish", path_a, path_b, "--test", "so2", "--format", "json"]
        tasks.append(_cli_task(f"so2/{name}", argv, same))
    for variant in ("O", "SO"):
        tasks.append(_cli_task(f"iso/{variant}/{name}", ["iso", path_a, path_b, "--group", variant], must))
    return tasks


def cli_mixed_tasks(seed: int, workdir: str) -> List[Task]:
    """Write the JSON pair files under workdir and return the in-process CLI
    calls on them."""
    rng = random.Random(f"cli-mixed:{seed}")
    pairs = [_cli_pair(k, rng) + (None,) for k in range(CLI_PAIRS)]
    t1, t2, _ = gen_triangles_vs_hexagon()
    t2 = apply_isometry(t2, random_isometry(t2.n, 2, _subseed(rng), proper=True, mode="float"))
    if not certainly_non_congruent(t1.positions, t2.positions, exact=False):
        raise AssertionError("tri-hex pair is not certifiably non-congruent")
    # body order 2 sees only the equal edge lengths, order 3 the angles
    pairs.append(("tri-hex", t1, t2, False, {2: False, 3: True}))
    # igwl-k with k = 3 wrongly separates most L-fold stars from rotated
    # copies of themselves (bench/README.md, "Known defect"); that verdict is
    # checked by the lfold-k3 workload, not timed here.
    pairs += [(name, g1, g2, True, {2: False}) for name, g1, g2 in _lfold_pairs(rng, 2)]
    tasks = []
    for name, g1, g2, isometric, k_refs in pairs:
        path_a, path_b = _dump_pair(workdir, name, g1, g2)
        tasks += _cli_pair_tasks(name, path_a, path_b, g1.dim, isometric, k_refs)
    return tasks


def _lfold_pairs(rng: random.Random, count: int):
    """Seeded float L-fold stars (L = 3..6), each against a rotated copy."""
    pairs = []
    for m in range(count):
        L, alpha = rng.randint(3, 6), rng.uniform(0.1, 1.0)
        beta = rng.uniform(0.1, 2 * math.pi - 0.1)
        pairs.append((f"lfold{m}", gen_lfold(L, alpha), gen_lfold(L, alpha + beta)))
    return pairs


def _dump_pair(workdir: str, name: str, g1, g2):
    path_a = os.path.join(workdir, f"{name}_a.json")
    path_b = os.path.join(workdir, f"{name}_b.json")
    dump_graph(g1, path_a)
    dump_graph(g2, path_b)
    return path_a, path_b


# --- lfold-k3 -------------------------------------------------------------------

LFOLD_K3_PAIRS = 16


def lfold_k3_tasks(seed: int, workdir: str) -> List[Task]:
    """igwl-k with k = 3 through the CLI on seeded L-fold stars against
    rotated copies, which it must not separate. A check of the known float
    defect rather than a timing workload: it fails on most seeds until the
    defect is fixed."""
    rng = random.Random(f"lfold-k3:{seed}")
    return [
        _igwl_k_task(name, *_dump_pair(workdir, name, g1, g2), 3, False)
        for name, g1, g2 in _lfold_pairs(rng, LFOLD_K3_PAIRS)
    ]


# --- registry -------------------------------------------------------------------


def iso_exact(seed: int, workdir: str) -> List[Task]:
    return iso_exact_tasks(iso_exact_bases(), seed)


def iso_small(seed: int, workdir: str) -> List[Task]:
    """iso-exact without its 8-node inputs (clouds 3, 7, 11 and the cube):
    every verdict takes under about 0.3 s, so a run samples each one often."""
    return iso_exact_tasks([(name, g) for name, g in iso_exact_bases() if g.n <= 7], seed)


def kchain_deep(seed: int, workdir: str) -> List[Task]:
    return kchain_tasks(kchain_bases(), seed)


# workload name -> set-up step: (seed, scratch directory) -> task list
WORKLOADS = {
    "iso-small": iso_small,
    "iso-exact": iso_exact,
    "kchain-deep": kchain_deep,
    "cli-mixed": cli_mixed_tasks,
    "lfold-k3": lfold_k3_tasks,
}
