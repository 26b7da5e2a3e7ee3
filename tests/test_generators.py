import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import rotation_2d

import geowl
from geowl import (
    GroupSpec,
    apply_isometry,
    gen_kchain,
    gen_lfold,
    gen_onehop_identical_pair,
    gen_random_cloud,
    gen_triangles_vs_hexagon,
    geometric_isomorphism_oracle,
    load_counterexample,
    random_isometry,
    run_gwl,
)
from geowl.generators import (
    ISOMORPHIC,
    NON_ISOMORPHIC,
    mst_bottleneck_sq,
)
from geowl.graph import GraphFormatError, dump_graph, graph_to_dict, with_cutoff_sq
from geowl.linalg import norm_sq


def test_kchain_coordinates_and_edges():
    g1, g2, spec = gen_kchain(4)
    assert g1.positions[0] == (Fraction(0), Fraction(1), Fraction(0))
    assert g1.positions[-1] == (Fraction(5), Fraction(1), Fraction(0))
    assert g2.positions[-1] == (Fraction(5), Fraction(-1), Fraction(0))
    # path structure: endpoint - inner chain - endpoint
    assert g1.edges == g2.edges
    assert sorted(g1.degree(i) for i in range(g1.n)) == [1, 1, 2, 2, 2, 2]
    assert spec.relation == NON_ISOMORPHIC
    assert spec.hop_distinct == 3
    assert spec.params["k"] == 4


def test_kchain_relation_verified_by_oracle():
    g1, g2, spec = gen_kchain(2)
    assert spec.verified
    same, _ = geometric_isomorphism_oracle(g1, g2, GroupSpec("O", 3))
    assert not same


def test_kchain_rejects_small_k():
    with pytest.raises(ValueError):
        gen_kchain(1)


def test_lfold_exact_axis_cases():
    for arms in (1, 2, 4):
        g = gen_lfold(arms)
        assert g.ctx.mode == "exact"
        assert g.n == arms + 1
        assert all(g.has_edge(0, i) for i in range(1, g.n))
        assert all(norm_sq(g.positions[i]) == 1 for i in range(1, g.n))


def test_lfold_float_cases():
    g = gen_lfold(3)
    assert g.ctx.mode == "float"
    assert g.n == 4
    for i in range(1, 4):
        assert norm_sq(g.positions[i]) == pytest.approx(1.0)


def test_lfold_rotated_copy_is_isomorphic():
    g = gen_lfold(3)
    rot = rotation_2d(0.7)
    from geowl.graph import IsometryWitness

    moved = apply_isometry(g, IsometryWitness(tuple(range(g.n)), rot, (0.0, 0.0)))
    same, _ = geometric_isomorphism_oracle(g, moved, GroupSpec("SO", 2))
    assert same
    verdict, _ = run_gwl(g, moved, GroupSpec("SO", 2))
    assert not verdict.distinguished


def test_triangles_vs_hexagon_unit_edges():
    g1, g2, spec = gen_triangles_vs_hexagon()
    assert g1.n == g2.n == 6
    assert len(g1.edges) == len(g2.edges) == 6
    for g in (g1, g2):
        for i, j in g.edges:
            assert norm_sq(g.rel_vec(i, j)) == pytest.approx(1.0)
    assert spec.relation == NON_ISOMORPHIC
    assert spec.hop_distinct == 1


def test_onehop_pair_local_views_match():
    from geowl.graph import neighborhood_subgraph

    g1, g2, spec = gen_onehop_identical_pair()
    assert spec.relation == NON_ISOMORPHIC
    assert spec.hop_distinct == 2
    grp = GroupSpec("O", 3)
    # every 1-hop neighbourhood of g1 matches some 1-hop neighbourhood of g2
    for i in range(g1.n):
        sub1 = neighborhood_subgraph(g1, i, 1)
        assert any(
            geometric_isomorphism_oracle(sub1, neighborhood_subgraph(g2, j, 1), grp)[0]
            for j in range(g2.n)
        ), i


def test_random_cloud_deterministic():
    a = gen_random_cloud(5, 3, seed=11)
    b = gen_random_cloud(5, 3, seed=11)
    assert a.positions == b.positions and a.scalars == b.scalars
    c = gen_random_cloud(5, 3, seed=12)
    assert c.positions != a.positions


def test_random_cloud_cutoff_edges():
    g = gen_random_cloud(5, 2, seed=3)
    r_sq = mst_bottleneck_sq(g.positions)
    wired = with_cutoff_sq(g, r_sq)
    # bottleneck cutoff keeps the graph connected
    assert wired.component_diameter() == wired.diameter()
    assert wired.diameter() < wired.n


def test_random_isometry_preserves_distances():
    g = gen_random_cloud(4, 3, seed=7)
    wit = random_isometry(4, 3, seed=8, proper=False)
    moved = apply_isometry(g, wit)
    grp = GroupSpec("O", 3)
    same, _ = geometric_isomorphism_oracle(g, moved, grp)
    assert same


def test_load_counterexample_isomorphic(tmp_path):
    g = gen_random_cloud(4, 2, seed=1)
    full = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    from geowl import geometric_graph

    g1 = geometric_graph(2, g.positions, full, g.scalars, mode="exact")
    g2 = apply_isometry(g1, random_isometry(4, 2, seed=2, proper=True))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([graph_to_dict(g1), graph_to_dict(g2)]))
    h1, h2, spec = load_counterexample(str(path))
    assert spec.relation == ISOMORPHIC
    assert h1.positions == g1.positions


def test_load_counterexample_non_isomorphic(tmp_path):
    g1, g2, _ = gen_kchain(4)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([graph_to_dict(g1), graph_to_dict(g2)]))
    _, _, spec = load_counterexample(str(path))
    assert spec.relation == NON_ISOMORPHIC


def test_load_counterexample_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"dim": 2,\n  "broken"')
    with pytest.raises(GraphFormatError, match="line 2"):
        load_counterexample(str(path))


def test_load_counterexample_not_utf8_names_path(tmp_path):
    path = tmp_path / "pair.json"
    path.write_bytes(b'[{"dim": 2, "numeric": "exact\xff"}]')
    with pytest.raises(GraphFormatError) as info:
        load_counterexample(str(path))
    assert str(info.value) == f"{path}: not UTF-8 text (byte 0xff at offset 29)"


def test_graph_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Pair and graph files decode as UTF-8 whatever the locale's encoding."""
    g1, g2, _ = gen_kchain(2)
    data = [graph_to_dict(g1), graph_to_dict(g2)]
    for d in data:
        d["nodes"][0]["s"] = ["\u00e9"]
    (tmp_path / "pair.json").write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    (tmp_path / "a.json").write_text(json.dumps(data[0], ensure_ascii=False), encoding="utf-8")
    code = (
        "import codecs, locale; from geowl import load_counterexample, load_graph; "
        "a, b, _ = load_counterexample('pair.json'); "
        "print(codecs.lookup(locale.getpreferredencoding(False)).name, "
        "a.scalars[0] == b.scalars[0] == ('\\u00e9',), load_graph('a.json') == a)"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(geowl.__file__).parent.parent),
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ascii", "True", "True"]
