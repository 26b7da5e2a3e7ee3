import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import exact_graph, float_graph, rotation_2d

from geowl import GroupSpec, geometric_isomorphism_oracle, run_gwl

from geowl.graph import (
    CoincidentPointsWarning,
    GeometricGraph,
    GraphError,
    GraphFormatError,
    IsometryWitness,
    apply_isometry,
    build_radial_graph,
    dump_graph,
    geometric_graph,
    graph_from_dict,
    graph_to_dict,
    identity_witness,
    induced_subgraph,
    load_graph,
    neighborhood_subgraph,
    with_cutoff_sq,
)
from geowl.numeric import NumericContext, NumericError


def test_validation_rejects_malformed_graphs():
    with pytest.raises(GraphError):
        exact_graph([(0, 0)], edges=[(0, 0)])  # self-loop
    with pytest.raises(GraphError):
        exact_graph([(0, 0)], edges=[(0, 1)])  # edge out of range
    with pytest.raises(GraphError):
        geometric_graph(2, [(0, 0), (1, 1)], scalars=[(0,), (0, 1)], mode="exact")
    with pytest.raises(GraphError):
        geometric_graph(3, [(0, 0)], mode="exact")  # dim mismatch


def test_radial_graph_simple_distances():
    pts = [((0,), (), (Fraction(0), Fraction(0))), ((0,), (), (Fraction(1), Fraction(0)))]
    g = build_radial_graph(pts, Fraction(3, 2))
    assert g.edges == frozenset({(0, 1)})
    pts_far = [((0,), (), (Fraction(0), Fraction(0))), ((0,), (), (Fraction(2), Fraction(0)))]
    assert build_radial_graph(pts_far, Fraction(3, 2)).edges == frozenset()


def test_radial_graph_kchain_edges_by_enumeration():
    from geowl import gen_kchain

    g1, _, _ = gen_kchain(4)
    # brute-force the expected adjacency from squared distances
    want = set()
    for i in range(g1.n):
        for j in range(i + 1, g1.n):
            d2 = sum((a - b) ** 2 for a, b in zip(g1.positions[i], g1.positions[j]))
            if 0 < d2 <= Fraction(9, 4):
                want.add((i, j))
    assert g1.edges == frozenset(want)
    assert sorted(g1.edges) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_radial_graph_coincident_points_warn_and_get_no_edge():
    pts = [((0,), (), (Fraction(0), Fraction(0)))] * 2
    with pytest.warns(CoincidentPointsWarning):
        g = build_radial_graph(pts, Fraction(1))
    assert g.edges == frozenset()


@pytest.mark.parametrize("mode, r", [("exact", Fraction(3, 2)), ("exact", 2), ("float", 0.9)])
@pytest.mark.parametrize("seed", range(4))
def test_radial_graph_is_the_squared_cutoff_rule(mode, r, seed):
    from geowl import gen_random_cloud

    cloud = gen_random_cloud(7, 2 + seed % 2, seed=seed, mode=mode)
    pts = [((k % 3,), (), x) for k, x in enumerate(cloud.positions)]
    bare = geometric_graph(cloud.dim, cloud.positions, (), [p[0] for p in pts], mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_radial_graph(pts, r, mode=mode)
        assert g == with_cutoff_sq(bare, r * r)
    assert g.ctx == bare.ctx and g.positions == bare.positions


def test_coincident_points_warn_from_radial_graph_only():
    pts = [((0,), (), (0, 0)), ((0,), (), (1, 0)), ((0,), (), (0, 0))]
    with pytest.warns(CoincidentPointsWarning):
        g = build_radial_graph(pts, 1)
    bare = geometric_graph(2, [p[2] for p in pts], (), [p[0] for p in pts], mode="exact")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert with_cutoff_sq(bare, 1) == g
    assert g.edges == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize("k", range(-40, 41, 5))
def test_float_cutoff_is_decided_at_the_cutoffs_own_scale(k):
    # a chain at 0, 1e-6 and 3e-6 with cutoff 1.5e-6, times 2^k: an absolute
    # band on squared distances used to leave it without edges below 1e-3
    # and call its points coincident
    pts = [((0,), (), (math.ldexp(x, k), 0.0)) for x in (0.0, 1e-6, 3e-6)]
    r = math.ldexp(1.5e-6, k)
    bare = geometric_graph(2, [p[2] for p in pts], (), [p[0] for p in pts], mode="float")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_radial_graph(pts, r, mode="float")
        assert with_cutoff_sq(bare, r * r) == g
    assert g.edges == frozenset({(0, 1)})


ALL3 = {(0, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize(
    "xs, r, want",
    [
        ((0.0, 1.0, 3.0), 1e5, ALL3),  # a cutoff far above the spacing
        ((0.0, 1.0, 3.0), 1e200, ALL3),  # r * r overflows
        ((0.0, 1e-300, 3e-300), 1e300, ALL3),  # so would r scaled to the points
        ((0.0, 1e200, 3e200), 1.5e200, {(0, 1)}),  # so do the squared distances
        ((0.0, 1e-200, 3e-200), 1.5e-200, {(0, 1)}),  # r * r underflows
        ((0.0, 1.0, 3.0), 1e-200, set()),  # a cutoff far below the spacing
    ],
)
def test_float_coincidence_is_decided_at_the_points_own_scale(xs, r, want):
    # coincidence used to be decided on d2 / r_sq, so points 1 apart under a
    # cutoff of 1e5 counted as coincident and got no edge
    pts = [((0,), (), (x, 0.0)) for x in xs]
    bare = geometric_graph(2, [p[2] for p in pts], (), [p[0] for p in pts], mode="float")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_radial_graph(pts, r, mode="float")
        if 0 < r * r < math.inf:
            assert with_cutoff_sq(bare, r * r) == g
    assert g.edges == frozenset(want)


@pytest.mark.parametrize("variant", ["O", "SO"])
def test_a_range_past_the_float_maximum_is_scaled(variant):
    # the range 3.4e308 reads as inf, whose frexp exponent is 0: the points
    # went unscaled and their squared distances overflowed
    pts = [((0,), (), (x, 0.0)) for x in (-1.7e308, 0.0, 1.7e308)]
    assert build_radial_graph(pts, 1.7e308, mode="float").edges == frozenset({(0, 1), (1, 2)})
    path = float_graph([(-1.7e308, 0), (0, 0), (1.7e308, 1)], [(0, 1), (1, 2)])
    turned = apply_isometry(path, IsometryWitness((0, 1, 2), ((-1, 0), (0, -1)), (0, 0)))
    grp = GroupSpec(variant, 2)
    assert not run_gwl(path, turned, grp)[0].distinguished
    assert geometric_isomorphism_oracle(path, turned, grp)[0]


def test_float_points_coincide_within_eps_of_their_extent():
    pts = [((0,), (), (x, 0.0)) for x in (0.0, 1e-20, 1.0)]
    with pytest.warns(CoincidentPointsWarning):
        g = build_radial_graph(pts, 1e5, mode="float")
    assert g.edges == frozenset({(0, 2), (1, 2)})


@pytest.mark.parametrize("edge", [(-1, 0), (0, 2), (1, 7)])
def test_edge_index_out_of_range(edge):
    with pytest.raises(GraphError, match="out of range"):
        exact_graph([(0, 0), (1, 0)], edges=[edge])


def test_apply_identity_is_field_by_field_equal():
    g = exact_graph([(0, 0), (1, 0)], edges=[(0, 1)], scalars=[(1,), (2,)])
    out = apply_isometry(g, identity_witness(g))
    assert out == g


def test_apply_rotation_by_pi():
    g = exact_graph([(1, 0)])
    w = IsometryWitness(
        permutation=(0,),
        matrix=((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))),
        translation=(Fraction(0), Fraction(0)),
    )
    assert apply_isometry(g, w).positions == ((Fraction(-1), Fraction(0)),)


def test_apply_isometry_moves_vectors_and_relabels():
    g = exact_graph(
        [(0, 0), (1, 0)],
        edges=[(0, 1)],
        scalars=[(1,), (2,)],
        vectors=[[(1, 0)], [(0, 1)]],
    )
    w = IsometryWitness(
        permutation=(1, 0),
        matrix=((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0))),  # +90 deg
        translation=(Fraction(5), Fraction(0)),
    )
    out = apply_isometry(g, w)
    assert out.scalars == ((2,), (1,))
    assert out.positions[1] == (Fraction(5), Fraction(0))  # node 0 -> slot 1
    assert out.positions[0] == (Fraction(5), Fraction(1))
    assert out.vectors[1] == ((Fraction(0), Fraction(1)),)
    assert out.edges == frozenset({(0, 1)})


def test_apply_isometry_rejects_non_orthogonal():
    g = exact_graph([(0, 0)])
    w = IsometryWitness((0,), ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))), (Fraction(0),) * 2)
    with pytest.raises(GraphError):
        apply_isometry(g, w)


def test_float_witness_on_exact_graph_demotes_with_warning():
    g = exact_graph([(1, 0)])
    c, s = rotation_2d(0.3)[0][0], rotation_2d(0.3)[1][0]
    w = IsometryWitness((0,), ((c, -s), (s, c)), (0.0, 0.0))
    with pytest.warns(UserWarning, match="demoted to float"):
        out = apply_isometry(g, w)
    assert out.ctx.mode == "float"
    assert math.isclose(out.positions[0][0], math.cos(0.3))


def test_json_round_trip_exact_and_float(tmp_path):
    g = exact_graph(
        [(0, 0), (1, 0)], edges=[(0, 1)], scalars=[(1,), (2,)], vectors=[[(1, 2)], []]
    )
    path = tmp_path / "g.json"
    dump_graph(g, str(path))
    assert load_graph(str(path)) == g
    gf = float_graph([(0.5, 0.25)], scalars=[("a",)])
    dump_graph(gf, str(path))
    assert load_graph(str(path)) == gf


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_loading_a_graph_file_reads_each_component_once(tmp_path, monkeypatch, mode):
    nodes = [{"s": [0], "x": [0, 1, 2], "v": [[1, 0, 0], [0, 1, 0]]}, {"s": [1], "x": [3, 4, 5]}]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 3, "numeric": mode, "nodes": nodes, "edges": [[0, 1]]}))
    calls = []
    coerce = NumericContext.coerce
    monkeypatch.setattr(NumericContext, "coerce", lambda self, v: calls.append(v) or coerce(self, v))
    g = load_graph(str(path))
    assert g.positions[1] == (3, 4, 5) and g.vectors[0] == ((1, 0, 0), (0, 1, 0)) and g.edges == {(0, 1)}
    assert len(calls) == 12  # two positions and two feature vectors of 3 components
    # a cutoff file is built from the same coerced points: its radius is the one more
    path.write_text(json.dumps({"dim": 3, "numeric": mode, "nodes": nodes, "cutoff": 6}))
    calls.clear()
    assert load_graph(str(path)) == g
    assert len(calls) == 13


def test_json_cutoff_triggers_radial_construction():
    data = {
        "dim": 2,
        "numeric": "exact",
        "nodes": [{"s": [0], "x": ["0", "0"]}, {"s": [0], "x": ["1", "0"]}],
        "cutoff": "3/2",
    }
    g = graph_from_dict(data)
    assert g.edges == frozenset({(0, 1)})
    data["edges"] = []
    with pytest.raises(GraphFormatError):
        graph_from_dict(data)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_an_empty_cutoff_file_loads_as_an_empty_edge_list_file_does(mode):
    # a cutoff file used to go through build_radial_graph, which wants a point
    empty = {"dim": 2, "numeric": mode, "nodes": []}
    assert graph_from_dict({**empty, "cutoff": 1}) == graph_from_dict({**empty, "edges": []})


def test_json_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,\n  "numeric": oops}\n')
    with pytest.raises(GraphFormatError, match=r"line 2, column"):
        load_graph(str(path))


def test_json_bad_node_component(tmp_path):
    data = {"dim": 2, "numeric": "exact", "nodes": [{"s": [], "x": [0.5, "0"]}], "edges": []}
    with pytest.raises(GraphFormatError, match="node 0"):
        graph_from_dict(data)


def test_subgraphs():
    g = exact_graph([(0, 0), (1, 0), (2, 0), (3, 0)], edges=[(0, 1), (1, 2), (2, 3)])
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3 and sorted(sub.edges) == [(0, 1), (1, 2)]
    hood = neighborhood_subgraph(g, 1)
    assert hood.n == 3 and hood.positions == g.positions[:3]


def test_diameter_and_components():
    g = exact_graph([(0, 0), (1, 0), (2, 0)], edges=[(0, 1), (1, 2)])
    assert g.diameter() == 2
    assert g.component_diameter() == 2
    split = exact_graph([(0, 0), (1, 0), (5, 0), (6, 0)], edges=[(0, 1), (2, 3)])
    assert split.diameter() is None
    assert split.component_diameter() == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_geometric_graph_rejects_non_finite_floats(bad):
    with pytest.raises(NumericError, match="not finite"):
        geometric_graph(2, [(0.0, 0.0), (bad, 1.0)], mode="float")
    with pytest.raises(NumericError, match="not finite"):
        geometric_graph(2, [(0.0, 0.0)], vectors=[[(1.0, bad)]], mode="float")
    # mode inference sees a float and lands in the same check
    with pytest.raises(NumericError, match="not finite"):
        geometric_graph(2, [(0.0, 0.0), (bad, 1.0)])


@pytest.mark.parametrize(
    "token", [True, None, math.nan, math.inf, (1, 2)], ids=["bool", "none", "nan", "inf", "tuple"]
)
def test_geometric_graph_rejects_scalar_tokens_other_than_str_int_or_finite_float(token):
    with pytest.raises(GraphError, match="node 1: scalars must be"):
        geometric_graph(1, [(0,), (1,)], scalars=[("C",), (token,)], mode="exact")


def test_json_non_finite_or_huge_float_component():
    for bad in (math.nan, math.inf, 10**400):
        data = {"dim": 1, "numeric": "float", "nodes": [{"s": [], "x": [bad]}], "edges": []}
        with pytest.raises(GraphFormatError, match="node 0"):
            graph_from_dict(data)


def test_readme_graph_file_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("Graph files are JSON") :]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    g = graph_from_dict(json.loads(example))
    assert g.dim == 2 and g.ctx.mode == "exact"
    assert g.positions == ((0, 0), (Fraction(3, 2), 2))
    assert g.scalars == ((0,), (1,))
    assert g.vectors == (((Fraction(1, 2), 0),), ())
    assert g.edges == frozenset({(0, 1)})
