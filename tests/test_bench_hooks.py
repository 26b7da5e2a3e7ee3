"""The benchmark's tracer wraps library names from outside the package; a
refactor that renames or bypasses one of them makes its per-layer metrics
read as absent. These checks catch that in the unit tests."""
import importlib.util
from pathlib import Path

import pytest

from geowl import GroupSpec, gen_kchain, run_gwl

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
