import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import exact_graph, tiny_right_triangles

import geowl
from geowl import gen_kchain, gen_random_cloud, apply_isometry, random_isometry
from geowl.cli import (
    EXIT_CAP, EXIT_DIFFERENT, EXIT_INPUT, EXIT_SAME, EXIT_USAGE, build_parser, main,
)
from geowl.graph import dump_graph, load_graph


@pytest.fixture
def kchain_files(tmp_path):
    g1, g2, _ = gen_kchain(4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_graph(g1, str(a))
    dump_graph(g2, str(b))
    return str(a), str(b)


@pytest.fixture
def iso_files(tmp_path):
    g = gen_random_cloud(4, 2, seed=1)
    from geowl import geometric_graph

    full = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g1 = geometric_graph(2, g.positions, full, g.scalars, mode="exact")
    g2 = apply_isometry(g1, random_isometry(4, 2, seed=2, proper=True))
    a, b = tmp_path / "x.json", tmp_path / "y.json"
    dump_graph(g1, str(a))
    dump_graph(g2, str(b))
    return str(a), str(b)


def test_distinguish_exit_codes(kchain_files, iso_files, capsys):
    a, b = kchain_files
    assert main(["distinguish", a, b, "--test", "gwl"]) == EXIT_DIFFERENT
    assert main(["distinguish", a, b, "--test", "igwl"]) == EXIT_SAME
    x, y = iso_files
    assert main(["distinguish", x, y, "--test", "gwl", "--group", "SO"]) == EXIT_SAME


def test_distinguish_json_output(kchain_files, capsys):
    a, b = kchain_files
    code = main(["distinguish", a, b, "--test", "gwl", "--format", "json"])
    assert code == EXIT_DIFFERENT
    report = json.loads(capsys.readouterr().out)
    assert report["test"] == "gwl"
    assert report["verdict"] == "distinguished"
    assert report["iteration"] == 3
    assert report["trace"]["rows"][0]["iteration"] == 0


def test_distinguish_text_output(kchain_files, capsys):
    a, b = kchain_files
    main(["distinguish", a, b, "--test", "igwl"])
    out = capsys.readouterr().out.lower()
    assert "indistinguishable" in out


def test_igwl_k_requires_k(kchain_files, capsys):
    a, b = kchain_files
    assert main(["distinguish", a, b, "--test", "igwl-k"]) == EXIT_USAGE
    assert main(["distinguish", a, b, "--test", "igwl-k", "--k", "3"]) in (
        EXIT_SAME,
        EXIT_DIFFERENT,
    )


def test_missing_file_is_input_error(tmp_path, capsys):
    a = tmp_path / "nope.json"
    assert main(["distinguish", str(a), str(a)]) == EXIT_INPUT


def test_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["distinguish", str(bad), str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize("cmd", ["distinguish", "iso"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 200_000 + "]" * 200_000, "JSON nested too deeply"),
        (
            '{"dim": 1, "numeric": "exact", "nodes": [{"x": [' + "7" * 5000 + "]}]}",
            "a JSON integer has too many digits",
        ),
    ],
    ids=["deep-nesting", "5000-digit-int"],
)
def test_json_past_the_interpreter_limits_is_input_error(tmp_path, capsys, cmd, text, message):
    path = tmp_path / "limits.json"
    path.write_text(text)
    assert main([cmd, str(path), str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line naming the file, not a traceback or the interpreter's advice
    assert captured.err == f"error: {path}: {message}\n"


def _one_node_file(path, component):
    path.write_text(json.dumps({"dim": 1, "numeric": "exact", "nodes": [{"x": [component]}]}))


def test_a_bad_node_names_the_file_it_is_in(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _one_node_file(a, "1")
    _one_node_file(b, "1e5000")
    assert main(["distinguish", str(a), str(b)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {b}: bad node 0: exact component '1e5000' has an exponent past +-4300\n"
    )


def test_a_malformed_exact_string_is_quoted_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    literal = "1x" + "9" * 300
    _one_node_file(tmp_path / "a.json", "1")
    _one_node_file(tmp_path / "b.json", literal)
    assert main(["distinguish", "a.json", "b.json"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: b.json: bad node 0: bad rational literal {literal!r}\n"
    assert err.count(literal) == 1 and len(err.encode()) < 400


@pytest.mark.parametrize("edge", [[-1, 0], [0, 5]])
def test_edge_out_of_range_is_input_error(tmp_path, capsys, edge):
    path = tmp_path / "edge.json"
    data = {"dim": 2, "numeric": "exact", "nodes": [{"x": [0, 0]}, {"x": [1, 0]}], "edges": [edge]}
    path.write_text(json.dumps(data))
    assert main(["distinguish", str(path), str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "out of range" in captured.err


def _float_pair_file(tmp_path, bad):
    data = {
        "dim": 2,
        "numeric": "float",
        "nodes": [{"s": [0], "x": [0.0, 0.0]}, {"s": [0], "x": [1.0, bad]}],
        "edges": [[0, 1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # writes NaN / Infinity literals
    return str(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_is_input_error(tmp_path, capsys, bad):
    # compared with itself, a NaN coordinate used to give "distinguished"
    path = _float_pair_file(tmp_path, bad)
    for argv in (["distinguish", path, path, "--test", "gwl"], ["iso", path, path]):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "not finite" in captured.err


@pytest.mark.parametrize(
    "numeric,cutoff", [("exact", "x"), ("exact", "1/0"), ("float", "x"), ("float", float("nan"))]
)
def test_bad_cutoff_is_input_error(tmp_path, capsys, numeric, cutoff):
    x = ["0", "0"] if numeric == "exact" else [0.0, 0.0]
    data = {"dim": 2, "numeric": numeric, "nodes": [{"s": [0], "x": x}], "cutoff": cutoff}
    path = tmp_path / "cutoff.json"
    path.write_text(json.dumps(data))
    assert main(["distinguish", str(path), str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad cutoff" in err


def _two_nodes(**changes):
    """A valid two-node exact graph with some fields changed (None drops one)."""
    data = {
        "dim": 2,
        "numeric": "exact",
        "nodes": [{"s": [0], "x": ["0", "0"]}, {"s": [0], "x": ["1", "0"]}],
        "edges": [[0, 1]],
    }
    data.update(changes)
    return {key: value for key, value in data.items() if value is not None}


# a top level or a node that is not a JSON object, by test id
NOT_OBJECTS = {
    "top-list": [1, 2],
    "top-null": None,
    "node-int": _two_nodes(nodes=[5, {"s": [0], "x": ["1", "0"]}]),
    "node-string": _two_nodes(nodes=["x", {"s": [0], "x": ["1", "0"]}]),
}


@pytest.mark.parametrize(
    "data",
    [
        _two_nodes(dim="x"),
        _two_nodes(dim=4, nodes=[{"s": [0], "x": [0, 0, 0, 0]}, {"s": [0], "x": [1, 0, 0, 0]}]),
        _two_nodes(edges=[[0, 1.0]]),
        _two_nodes(edges=[[0, True]]),
        _two_nodes(nodes=[{"s": [[0]], "x": ["0", "0"]}, {"s": [0], "x": ["1", "0"]}]),
        _two_nodes(dim=3, edges=None, cutoff="2"),
        _two_nodes(nodes=[{"s": "ab", "x": "00"}, {"s": "ab", "x": "10"}]),
        _two_nodes(nodes=[{"s": [0], "x": ["0", "0"], "v": ["12"]}, {"s": [0], "x": ["1", "0"]}]),
        _two_nodes(nodes=[{"s": [0], "x": {"0": 1, "1": 2}}, {"s": [0], "x": ["1", "0"]}]),
        _two_nodes(nodes=[{"s": {"a": 1}, "x": ["0", "0"]}, {"s": [0], "x": ["1", "0"]}]),
        _two_nodes(nodes=5),
        _two_nodes(nodes={"a": 1}),
        # JSON true/false are not the numbers 1/0
        _two_nodes(nodes=[{"s": [0], "x": [True, False]}, {"s": [0], "x": ["1", "0"]}]),
        _two_nodes(nodes=[{"s": [0], "x": ["0", "0"], "v": [[True, "0"]]}, {"s": [0], "x": ["1", "0"]}]),
        _two_nodes(edges=None, cutoff=True),
        _two_nodes(numeric="float", nodes=[{"s": [0], "x": [True, False]}, {"s": [0], "x": [1.0, 0.0]}]),
        _two_nodes(
            numeric="float",
            nodes=[{"s": [0], "x": [0.0, 0.0], "v": [[True, 0.0]]}, {"s": [0], "x": [1.0, 0.0]}],
        ),
        _two_nodes(
            numeric="float", nodes=[{"s": [0], "x": [0.0, 0.0]}, {"s": [0], "x": [1.0, 0.0]}],
            edges=None, cutoff=True,
        ),
        _two_nodes(nodes=[{"s": [True], "x": ["0", "0"]}, {"s": [0], "x": ["1", "0"]}]),
        # NaN != NaN, so a file would be told apart from itself
        _two_nodes(nodes=[{"s": [float("nan")], "x": ["0", "0"]}, {"s": [0], "x": ["1", "0"]}]),
        *NOT_OBJECTS.values(),
    ],
    ids=[
        "dim-not-int", "dim-4", "edge-float", "edge-bool", "scalar-list", "cutoff-dim",
        "string-fields", "string-vector", "object-position", "object-scalars",
        "nodes-int", "nodes-object", "exact-position-bool", "exact-vector-bool",
        "exact-cutoff-bool", "float-position-bool", "float-vector-bool", "float-cutoff-bool",
        "scalar-bool", "scalar-nan", *NOT_OBJECTS,
    ],
)
def test_malformed_graph_field_is_input_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for test in ("gwl", "wl"):
        assert main(["distinguish", str(path), str(path), "--test", test]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("case", NOT_OBJECTS)
def test_a_graph_or_node_that_is_not_an_object_is_named(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NOT_OBJECTS[case]))
    assert main(["distinguish", str(path), str(path)]) == EXIT_INPUT
    what = "a graph file" if case.startswith("top") else "bad node 0:"
    assert capsys.readouterr().err == f"error: {path}: {what} must be a JSON object\n"


@pytest.fixture
def input_files(tmp_path):
    """Graph files and unreadable paths for the bad-argument cases below."""
    from conftest import exact_graph, float_graph

    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    graphs = {
        "2d": exact_graph(square, edges=[(0, 1), (1, 2)]),
        "3d": exact_graph([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)], edges=[(0, 1)]),
        "float": float_graph(square, edges=[(0, 1), (1, 2)]),
        "huge": exact_graph([(0, 0), (10**400, 0)], edges=[(0, 1)]),  # extent past the float range
    }
    paths = {"dir": str(tmp_path)}
    for name, g in graphs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        dump_graph(g, paths[name])
    paths["not_utf8"] = str(tmp_path / "not_utf8.json")
    Path(paths["not_utf8"]).write_bytes(b'{"dim": 2, "numeric": "exact\xff"}')
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["iso", "{2d}", "{3d}"],
        ["iso", "{2d}", "{float}"],
        ["so2", "refine", "{2d}", "{3d}"],
        ["so2", "refine", "{2d}", "{2d}", "--max-iters", "0"],
        ["props", "{3d}", "--dihedral", "a,b,c,d"],
        ["props", "{3d}", "--dihedral", "0,1,2,9"],
        ["gen", "lfold", "--L", "3", "--alpha", "nan", "--out", "{dir}"],
        ["distinguish", "{dir}", "{dir}"],
        ["distinguish", "{not_utf8}", "{not_utf8}"],
        ["distinguish", "{huge}", "{float}", "--test", "so2"],
    ],
    ids=[
        "iso-dims", "iso-modes", "so2-refine-dims", "so2-refine-max-iters-0",
        "props-dihedral-not-int", "props-dihedral-range", "gen-lfold-alpha-nan",
        "distinguish-directory", "distinguish-not-utf8", "so2-mixed-past-float-range",
    ],
)
def test_bad_argument_or_unreadable_file_is_input_error(input_files, capsys, argv):
    assert main([arg.format(**input_files) for arg in argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if "{not_utf8}" in argv:
        assert input_files["not_utf8"] in captured.err and "not UTF-8" in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "lfold", "--L", "3", "--alpha", "nan"], EXIT_INPUT),
        (["gen", "kchain", "--k", "1"], EXIT_USAGE),
    ],
    ids=["lfold-alpha-nan", "kchain-k-1"],
)
def test_gen_error_leaves_no_directory(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize(
    "family", [["kchain", "--k", "3"], ["lfold", "--L", "3"]], ids=["kchain", "lfold"]
)
def test_gen_unwritable_out_is_input_error(tmp_path, capsys, family):
    # --out names an existing regular file: one error line naming it, exit 3
    out = tmp_path / "afile"
    out.write_text("keep me\n")
    assert main(["gen", *family, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out.read_text() == "keep me\n"


def test_gen_unwritable_file_in_out_is_input_error(tmp_path, capsys):
    (tmp_path / "kchain_k3_b.json").mkdir()
    assert main(["gen", "kchain", "--k", "3", "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "kchain_k3_b.json" in err
    assert err.count("\n") == 1


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_iso_exit_codes(kchain_files, iso_files, capsys):
    a, b = kchain_files
    assert main(["iso", a, b]) == EXIT_DIFFERENT
    x, y = iso_files
    assert main(["iso", x, y, "--group", "SO"]) == EXIT_SAME


def test_iso_cap_exceeded(tmp_path, capsys):
    g = gen_random_cloud(12, 2, seed=5)
    a = tmp_path / "big.json"
    dump_graph(g, str(a))
    assert main(["iso", str(a), str(a)]) == EXIT_CAP
    assert main(["iso", str(a), str(a), "--cap", "12"]) == EXIT_SAME


def test_iso_negative_cap_is_usage_error(tmp_path, capsys):
    # a negative cap is an invalid argument, not "no answer within budget"
    a = tmp_path / "empty.json"
    a.write_text(json.dumps({"dim": 2, "numeric": "exact", "nodes": [], "edges": []}))
    assert main(["iso", str(a), str(a), "--cap", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--cap" in captured.err
    g = load_graph(str(a))
    with pytest.raises(ValueError, match="cap"):
        geowl.geometric_isomorphism_oracle(g, g, geowl.GroupSpec("O", 2), cap=-1)
    # the empty graph fits under a cap of 0
    assert main(["iso", str(a), str(a), "--cap", "0"]) == EXIT_SAME
    assert capsys.readouterr().out == "isomorphic\nwitness permutation: []\n"


def test_gen_writes_pair_and_spec(tmp_path, capsys):
    assert main(["gen", "kchain", "--k", "3", "--out", str(tmp_path)]) == EXIT_SAME
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["kchain_k3_a.json", "kchain_k3_b.json", "kchain_k3_pair.json"]
    spec = json.loads((tmp_path / "kchain_k3_pair.json").read_text())
    assert spec["relation"] == "non_isomorphic_h_hop_distinct(2)"
    assert spec["verified"] is True


def test_gen_invalid_params_is_usage_error(tmp_path, capsys):
    assert main(["gen", "kchain", "--k", "1", "--out", str(tmp_path)]) == EXIT_USAGE


def test_table_kchains(capsys):
    assert main(["table", "kchains", "--range", "2", "4"]) == EXIT_SAME
    out = capsys.readouterr().out
    assert "gwl" in out.lower()
    assert "out of scope" in out.lower()


def test_table_lfold(capsys):
    assert main(["table", "lfold-invariance", "--range", "2", "4"]) == EXIT_SAME
    out = capsys.readouterr().out.lower()
    assert "indistinguishable" in out or "same" in out


def test_props_output(tmp_path, capsys):
    from conftest import exact_graph

    g = exact_graph([(0, 0, 0), (4, 2, 2)], edges=[])
    a = tmp_path / "box.json"
    dump_graph(g, str(a))
    assert main(["props", str(a), "--format", "json"]) == EXIT_SAME
    report = json.loads(capsys.readouterr().out)
    assert report["perimeter"] == 32.0
    assert report["area"] == 40.0
    assert report["volume"] == 16.0


def test_props_dihedral(tmp_path, capsys):
    from conftest import exact_graph

    g = exact_graph(
        [(0, 1, 0), (0, 0, 0), (1, 0, 0), (1, 0, 1)],
        edges=[(0, 1), (1, 2), (2, 3)],
    )
    a = tmp_path / "bent.json"
    dump_graph(g, str(a))
    assert main(["props", str(a), "--dihedral", "0,1,2,3", "--format", "json"]) == EXIT_SAME
    report = json.loads(capsys.readouterr().out)
    assert report["dihedrals"]["0,1,2,3"] == 0.0


HUGE_EXACT = [["0", "0"], ["1e400", "0"]]
HUGE_AREA = [["0", "0"], ["1e200", "0"], ["0", "1e200"]]


@pytest.mark.parametrize(
    "argv, points",
    [
        (["props"], HUGE_EXACT),
        (["props", "--format", "json"], HUGE_EXACT),
        (["so2", "hash"], HUGE_EXACT),
        (["so2", "stab"], HUGE_EXACT),
        (["props"], HUGE_AREA),
    ],
    ids=["props", "props-json", "so2-hash", "so2-stab", "props-area"],
)
def test_an_exact_value_past_the_float_range_is_named(tmp_path, capsys, argv, points):
    # the loader accepts exponents up to 4300, but these commands report in
    # floats: each value that does not fit used to raise OverflowError
    data = {"dim": 2, "numeric": "exact", "nodes": [{"x": x} for x in points], "edges": [[0, 1]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200


@pytest.mark.parametrize("cmd", ["hash", "stab"])
def test_so2_tools_refuse_a_point_whose_squares_overflow(tmp_path, capsys, cmd):
    # the rotation scan squares unscaled coordinates: these used to raise
    # OverflowError out of main
    nodes = [{"x": [0, 0]}, {"x": [1.7e308, 0]}, {"x": [0, 1e308]}]
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 2, "numeric": "float", "nodes": nodes, "edges": []}))
    assert main(["so2", cmd, str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_property_that_is_not_a_finite_float_is_refused(tmp_path, capsys, fmt):
    # the extent, area and distances of these points overflow to inf, which
    # JSON cannot hold (json.dumps wrote `Infinity`) and text printed as inf
    nodes = [{"x": [-1.7e308, 0.0]}, {"x": [1.7e308, 0.0]}, {"x": [0.0, 1e308]}]
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 2, "numeric": "float", "nodes": nodes, "edges": []}))
    assert main(["props", str(path), "--format", fmt]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: extents is not a finite float\n"


def test_load_warning_is_one_line_per_load(tmp_path, capsys):
    data = {
        "dim": 2, "numeric": "exact", "cutoff": "2",
        "nodes": [{"s": [0], "x": ["0", "0"]}, {"s": [0], "x": ["0", "0"]}, {"s": [0], "x": ["1", "0"]}],
    }
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(data))
    assert main(["distinguish", str(path), str(path), "--format", "json"]) == EXIT_SAME
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "indistinguishable"
    lines = captured.err.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith(f"warning: {path}: coincident points")
        assert "graph.py" not in line


@pytest.mark.parametrize("group", ["O", "SO"])
def test_so2_refine_is_distinguish_test_so2(tmp_path, capsys, group):
    from geowl import gen_lfold

    paths = []
    for name, g in (("l3", gen_lfold(3)), ("l3r", gen_lfold(3, 0.4)), ("l4", gen_lfold(4))):
        paths.append(str(tmp_path / f"{name}.json"))
        dump_graph(g, paths[-1])
    codes = []
    for a, b in ((paths[0], paths[1]), (paths[0], paths[2])):
        for extra in ([], ["--max-iters", "1"]):
            codes.append(main(["so2", "refine", a, b] + extra))
            refine = capsys.readouterr()
            argv = ["distinguish", a, b, "--test", "so2", "--format", "json", "--group", group]
            assert main(argv + extra) == codes[-1]
            assert capsys.readouterr() == refine
            assert '"group"' not in refine.out
    assert codes == [EXIT_SAME, EXIT_SAME, EXIT_DIFFERENT, EXIT_DIFFERENT]


@pytest.mark.parametrize(
    "arms",
    [((5e-10, 0.0), (0.0, 2e-9))]
    + [((s, 0.0), (0.0, 2 * s)) for s in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5)],
    ids=["t", "star-1e-9", "star-1e-8", "star-1e-7", "star-1e-6", "star-1e-5"],
)
def test_tiny_planar_star_against_itself_under_so2(tmp_path, capsys, arms):
    # arms far below sqrt(eps): the SO(2) hash used to file both edge vectors
    # under one orbit by squared norms, then fail to rotate one onto the other
    nodes = [{"s": [0], "x": [0.0, 0.0]}] + [{"s": [0], "x": list(p)} for p in arms]
    path = tmp_path / "star.json"
    data = {"dim": 2, "numeric": "float", "nodes": nodes, "edges": [[0, 1], [0, 2]]}
    path.write_text(json.dumps(data))
    assert main(["distinguish", str(path), str(path), "--test", "so2"]) == EXIT_SAME
    assert capsys.readouterr().err == ""


def test_so2_subcommands(tmp_path, capsys):
    from geowl import gen_lfold

    g = gen_lfold(4)
    a = tmp_path / "star.json"
    dump_graph(g, str(a))
    assert main(["so2", "stab", str(a)]) == EXIT_SAME
    assert "4" in capsys.readouterr().out
    assert main(["so2", "hash", str(a)]) == EXIT_SAME
    assert main(["so2", "refine", str(a), str(a)]) == EXIT_SAME


def test_so2_separates_tiny_exact_right_triangles(tmp_path, capsys):
    # exact pairs used to skip the pair step's scale under so2, so legs far
    # below sqrt(eps) fell inside its absolute norm band
    paths = [str(tmp_path / f"{name}.json") for name in "ab"]
    for g, path in zip(tiny_right_triangles(), paths):
        dump_graph(g, path)
    for test in ("so2", "gwl"):
        assert main(["distinguish", *paths, "--test", test]) == EXIT_DIFFERENT
    assert main(["iso", *paths]) == EXIT_DIFFERENT


def test_so2_never_separates_exact_translated_or_rotated_copies(tmp_path, capsys):
    # an exact graph is read as floats only after it is moved to the origin
    # and its pair scaled to an extent near 1: rounding its absolute
    # positions used to split translates, and rounding subnormal positions
    # used to split an exact rotation by (3/5, 4/5)
    def moved(g, scale, rotate=False, shift=0):
        c, s = (Fraction(3, 5), Fraction(4, 5)) if rotate else (1, 0)
        xs = [(scale * (c * x - s * y) + shift, scale * (s * x + c * y)) for x, y in g.positions]
        return exact_graph(xs, sorted(g.edges))

    tri = exact_graph([(0, 0), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])
    ring = exact_graph([(0, 0), (7, 0), (2, 3), (5, 9), (1, 6)], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    pairs = [(tri, moved(tri, 1, shift=t)) for t in (1, 10**16, 10**400)]
    pairs.append((tiny_right_triangles()[0], moved(tiny_right_triangles()[0], 1, shift=1)))
    for scale in (Fraction(1, 10**320), 10**400):
        pairs.append((moved(ring, scale), moved(ring, scale, rotate=True)))
    for k, (g, h) in enumerate(pairs):
        paths = [str(tmp_path / f"{k}{name}.json") for name in "ab"]
        dump_graph(g, paths[0])
        dump_graph(h, paths[1])
        assert main(["distinguish", *paths, "--test", "so2"]) == EXIT_SAME, k


@pytest.mark.parametrize("tolerance, code", [("1e-3", EXIT_SAME), ("1e-9", EXIT_DIFFERENT)])
def test_so2_honours_the_tolerance_on_exact_files(tmp_path, capsys, tolerance, code):
    # exact files are hashed as floats; their tolerance used to be ignored
    paths = []
    for x in ("1", "1000001/1000000"):
        nodes = [{"x": ["0", "0"]}, {"x": [x, "0"]}, {"x": ["0", "1"]}]
        data = {"dim": 2, "numeric": "exact", "nodes": nodes, "edges": [[0, 1], [0, 2]]}
        paths.append(tmp_path / f"{len(paths)}.json")
        paths[-1].write_text(json.dumps(data))
    argv = ["distinguish", *map(str, paths), "--test", "so2", "--tolerance", tolerance]
    assert main(argv) == code


def test_tolerance_env_var(tmp_path, capsys, monkeypatch):
    g1 = gen_random_cloud(3, 2, seed=4, mode="float")
    a, b = tmp_path / "p.json", tmp_path / "q.json"
    dump_graph(g1, str(a))
    nudged = [
        tuple(c + 1e-7 * (i + 1) for c in p) for i, p in enumerate(g1.positions)
    ]
    from geowl import geometric_graph

    full = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    dump_graph(geometric_graph(2, nudged, full, g1.scalars, mode="float"), str(b))
    g1d = tmp_path / "p2.json"
    dump_graph(geometric_graph(2, g1.positions, full, g1.scalars, mode="float"), str(g1d))
    # under the default epsilon the nudge is visible; a coarse one hides it
    strict = main(["distinguish", str(g1d), str(b), "--test", "gwl"])
    monkeypatch.setenv("GWLKIT_TOLERANCE", "1e-4")
    loose = main(["distinguish", str(g1d), str(b), "--test", "gwl"])
    assert loose == EXIT_SAME
    assert strict == EXIT_DIFFERENT


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("cmd", ["distinguish", "iso", "props"])
def test_non_finite_tolerance_is_input_error(input_files, capsys, monkeypatch, cmd, source, value):
    # a NaN band makes a float graph differ from itself; an infinite one
    # makes every pair of values equal
    f = input_files["float"]
    argv = [cmd, f] if cmd == "props" else [cmd, f, f]
    if source == "flag":
        argv.append(f"--tolerance={value}")  # "--tolerance -inf" reads -inf as an option
    else:
        monkeypatch.setenv("GWLKIT_TOLERANCE", value)
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "must be a positive finite number" in captured.err


BAD_TOLERANCE = "--tolerance must be a positive finite number"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["distinguish", "{float}", "{float}", "--tolerance=0"], BAD_TOLERANCE),
        (["distinguish", "{float}", "{float}", "--tolerance=-1"], BAD_TOLERANCE),
        (["distinguish", "{float}", "{float}", "--tolerance=nan"], BAD_TOLERANCE),
        (["distinguish", "{2d}", "{2d}", "--test", "so2", "--tolerance=0"], BAD_TOLERANCE),
        (["iso", "{float}", "{float}", "--tolerance=0"], BAD_TOLERANCE),
        (["props", "{float}", "--tolerance=0"], BAD_TOLERANCE),
        (["so2", "hash", "{float}", "--tolerance=0"], BAD_TOLERANCE),
        (["distinguish", "{2d}", "{2d}", "--max-iters", "0"], "--max-iters must be at least 1"),
        (["so2", "refine", "{2d}", "{2d}", "--max-iters", "0"], "--max-iters must be at least 1"),
        (["distinguish", "{2d}", "{2d}", "--test", "igwl-k", "--k", "1"], "--k must be at least 2"),
    ],
    ids=[
        "distinguish-tolerance-0", "distinguish-tolerance-negative", "distinguish-tolerance-nan",
        "so2-tolerance-0", "iso-tolerance-0", "props-tolerance-0", "so2-hash-tolerance-0",
        "distinguish-max-iters-0", "so2-refine-max-iters-0", "igwl-k-k-1",
    ],
)
def test_a_bad_flag_is_blamed_not_a_graph_file(input_files, capsys, argv, message):
    assert main([arg.format(**input_files) for arg in argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert input_files["float"] not in captured.err and input_files["2d"] not in captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_parser_defaults_are_immutable():
    # the parser is shared by every main() call, and argparse hands a
    # default object to each Namespace as is
    for parser in _parsers(build_parser()):
        for action in parser._actions:
            assert not isinstance(action.default, (list, dict, set)), (parser.prog, action.dest)


def test_main_calls_share_no_state(kchain_files, capsys):
    a, b = kchain_files
    valid = ["distinguish", a, b, "--test", "gwl"]
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(valid) == EXIT_DIFFERENT
    first = capsys.readouterr().out
    assert first.startswith("test: gwl  group: O(3)\nverdict: distinguished at iteration 3\n")
    assert main(["distinguish", a, b, "--test", "igwl-k"]) == EXIT_USAGE
    assert "--test igwl-k requires --k" in capsys.readouterr().err
    assert main(valid) == EXIT_DIFFERENT
    assert capsys.readouterr().out == first


def test_help_twice_is_identical(capsys):
    assert main(["--help"]) == 0
    first = capsys.readouterr().out
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("usage: geowl")


def test_import_builds_no_parser():
    code = (
        "import geowl.cli as c; n = c.build_parser.cache_info().currsize; "
        "c.main(['frobnicate']); print(n, c.build_parser.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(geowl.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.stdout.split() == ["0", "1"]


def _exit_code(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, timeout=120, **kwargs).returncode


def test_console_script_installed(kchain_files, tmp_path):
    """The package declares a `geowl` command whose exit code is main()'s.

    Checked from the source tree, so it needs no install: the declared
    target is run in a fresh interpreter the way a generated console-script
    wrapper runs it.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("geowl") == "geowl.cli:main"

    module, attr = scripts["geowl"].split(":")
    assert getattr(importlib.import_module(module), attr) is main

    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'geowl'; sys.exit({attr}())"
    )
    # run the same source tree as this test, however pytest was started
    env = dict(os.environ, PYTHONPATH=str(Path(geowl.__file__).parent.parent))

    def run(*args):
        return _exit_code([sys.executable, "-c", wrapper, *args], env=env, cwd=tmp_path)

    a, b = kchain_files
    assert run("--help") == 0
    assert run("frobnicate") == EXIT_USAGE
    assert run("distinguish", a, b, "--test", "gwl") == EXIT_DIFFERENT
    assert run("distinguish", a, b, "--test", "igwl") == EXIT_SAME
    assert run("distinguish", str(tmp_path / "nope.json"), a) == EXIT_INPUT


@pytest.mark.skipif(shutil.which("geowl") is None, reason="geowl console script not installed")
def test_console_script_on_path(kchain_files):
    a, b = kchain_files
    assert _exit_code(["geowl", "--help"]) == 0
    assert _exit_code(["geowl", "distinguish", a, b, "--test", "gwl"]) == EXIT_DIFFERENT
