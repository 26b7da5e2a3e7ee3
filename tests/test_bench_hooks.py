"""The benchmark's tracer wraps library names from outside the package; a
refactor that renames or bypasses one of them makes its per-layer metrics
read as absent. These checks catch that in the unit tests."""
import importlib.util
import math
from pathlib import Path

import pytest

from conftest import grid

from geowl import GroupSpec, apply_isometry, gen_kchain, gen_random_cloud, random_isometry, run_gwl
from geowl.cli import main
from geowl.generators import mst_bottleneck_sq
from geowl.graph import dump_graph, with_cutoff_sq

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(tracing):
    missing = [(m, p) for _, m, p in tracing.HOOKS if tracing._resolve(m, p) is None]
    assert missing == []
    assert isinstance(tracing._dot_cache_size(), int)


def test_traced_gwl_records_orbit_search(tracing):
    tracing.clear_caches()
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        run_gwl(*gen_kchain(3)[:2], GroupSpec("O", 3))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(fragile_warnings=0)
    assert metrics["objects.orbit_equal.calls"] > 0
    assert metrics["linalg.push.calls"] > 0
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["registry.skeleton.s"] > 0
    assert metrics["registry.norm_profile.s"] > 0
    assert tracing._dot_cache_size() > 0


def test_traced_gwl_on_a_pinned_pair_keeps_every_metric(tracing):
    # the grid's map is pinned after a few pushes and the rest is matched by
    # keys, so pushes fall sharply; they must not fall to zero, or the
    # push ratios would divide by zero and read as null
    g = grid(3, 2, 2)
    copy = apply_isometry(g, random_isometry(g.n, 3, 5, proper=True))
    tracing.clear_caches()
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        verdict, _ = run_gwl(g, copy, GroupSpec("SO", 3))
    finally:
        tracer.uninstall()
    assert not verdict.distinguished
    metrics = tracer.metrics(fragile_warnings=0)
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["linalg.push.calls"] > 0
    assert metrics["objects.orbit_equal.calls"] > 0


def test_traced_cli_metrics_are_finite_numbers(tracing, tmp_path, capsys):
    # the in-process CLI path: file loading, the oracle, k-body bags and the
    # SO(2) hash; gwl adds the orbit searches that every ratio metric
    # divides by, which so2 alone does not make
    a, b, c, d = (str(tmp_path / f"{name}.json") for name in "abcd")
    for dim, first, second in ((3, a, b), (2, c, d)):
        cloud = gen_random_cloud(5, dim, seed=4)
        g = with_cutoff_sq(cloud, mst_bottleneck_sq(cloud.positions))
        dump_graph(g, first)
        dump_graph(apply_isometry(g, random_isometry(g.n, dim, 5, proper=True)), second)
    tracing.clear_caches()
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        for argv in (
            ["distinguish", a, b, "--test", "igwl-k", "--k", "3", "--group", "SO"],
            ["iso", a, b, "--group", "SO"],
            ["distinguish", a, b, "--test", "gwl"],
            ["distinguish", c, d, "--test", "so2"],
            ["distinguish", c, d, "--test", "gwl"],
        ):
            assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(fragile_warnings=0)
    not_finite = {
        name: value
        for name, value in metrics.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    }
    assert not_finite == {}
    assert metrics["so2.run.s"] > 0
    for name in ("oracle.calls", "oracle.push.calls", "registry.intern_bag.calls", "graph.load.calls"):
        assert metrics[name] > 0, name
