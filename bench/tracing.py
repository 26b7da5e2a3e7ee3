"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from outside the library, only while a traced pass
runs, on the name each caller actually reads: class attributes for
OrbitRegistry and GramMatcher methods, `geowl.registry.orbit_equal` /
`skeleton` / `norm_profile` (so the recursive calls inside `geowl.objects`
stay unwrapped), and the names `geowl.cli` imported for itself. A target
that no longer exists is skipped and every metric built on it reads as
absent (null) instead of failing the run.

Each wrapped call records a span (name, start, end, parent span, request
id) in flat in-memory arrays, which allocate no Python object per span and
so add no garbage-collector work; self time is a span's duration minus its
direct child spans. Spans are written out when the run ends.
"""
from __future__ import annotations

import gzip
import importlib
from array import array
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

# span name -> (module, attribute path) of each wrapped callable
HOOKS = [
    ("linalg.push", "geowl.linalg", "GramMatcher.push"),
    ("linalg.rewind", "geowl.linalg", "GramMatcher.rewind"),
    ("linalg.orientation_ok", "geowl.linalg", "GramMatcher.orientation_ok"),
    ("objects.orbit_equal", "geowl.registry", "orbit_equal"),
    ("registry.skeleton", "geowl.registry", "skeleton"),
    ("registry.norm_profile", "geowl.registry", "norm_profile"),
    ("registry.init", "geowl.registry", "OrbitRegistry.__init__"),
    ("registry.intern_orbit", "geowl.registry", "OrbitRegistry.intern_orbit"),
    ("registry.intern_key", "geowl.registry", "OrbitRegistry.intern_key"),
    ("registry.intern_bag", "geowl.registry", "OrbitRegistry.intern_bag"),
    ("engines.run", "geowl.engines", "run_wl"),
    ("engines.run", "geowl.engines", "run_gwl"),
    ("engines.run", "geowl.engines", "run_igwl"),
    ("engines.run", "geowl.engines", "run_igwl_k"),
    ("so2.run", "geowl.so2", "run_so2_gwl"),
    ("oracle", "geowl.cli", "geometric_isomorphism_oracle"),
    ("graph.load", "geowl.cli", "load_graph"),
    ("cli.main", "geowl.cli", "main"),
]

# per-layer metric -> unit; the order is the order of the report
METRICS = {
    "linalg.push.calls": "count",
    "linalg.push.s": "s",
    "linalg.push.accept_ratio": "ratio",
    "linalg.push.depth_mean": "count",
    "linalg.rewind.calls": "count",
    "linalg.orientation_ok.calls": "count",
    "linalg.dot_cache.entries": "count",
    "objects.orbit_equal.calls": "count",
    "objects.orbit_equal.self_s": "s",
    "objects.orbit_equal.hit_ratio": "ratio",
    "registry.intern_orbit.calls": "count",
    "registry.intern_orbit.self_s": "s",
    "registry.skeleton.s": "s",
    "registry.norm_profile.s": "s",
    "registry.scans_per_intern": "ratio",
    "registry.size": "count",
    "registry.intern_key.calls": "count",
    "registry.intern_bag.calls": "count",
    "registry.intern_bag.s": "s",
    "engines.run.calls": "count",
    "engines.run.self_s": "s",
    "engines.iterations": "count",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.push.calls": "count",
    "graph.load.calls": "count",
    "graph.load.s": "s",
    "cli.main.self_s": "s",
    "so2.run.s": "s",
    "numeric.fragile_warnings": "count",
    "trace.overhead_s": "s",
}

# metrics that must repeat exactly between two traced passes on one input
DETERMINISTIC = [m for m, unit in METRICS.items() if unit == "count"]


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _dot_cache_size() -> Optional[int]:
    cache = getattr(importlib.import_module("geowl.linalg"), "_dots", None)
    return len(cache) if isinstance(cache, dict) else None


def clear_caches() -> None:
    """Empty the module-global dot-product caches, when they exist, so each
    pass starts as a fresh process would."""
    linalg = importlib.import_module("geowl.linalg")
    for name in ("_dots", "_vec_ids"):
        cache = getattr(linalg, name, None)
        if isinstance(cache, dict):
            cache.clear()


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: List[str] = list(dict.fromkeys(name for name, _, _ in HOOKS))
        self.name_of = array("H")  # index into self.names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")  # span index, -1 at top level
        self.request_of = array("l")
        self.request = -1
        self.present = set()
        self._stack: List[int] = []
        self._installed = []
        self._live_registries = []
        self._counts: Dict[str, int] = defaultdict(int)
        self._broken = set()  # counters whose inputs changed shape
        self._mark = None

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        for name, module, path in HOOKS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
            self.present.add(name)
        matcher = _resolve("geowl.linalg", "GramMatcher.mark")
        self._mark = matcher[2] if matcher else None

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        request_of, stack, clock = self.request_of, self._stack, time.perf_counter
        before, after = self._before(name), self._after(name)

        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            span = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            request_of.append(self.request)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if after:
                after(args, out, pre)
            if not stack:
                self._flush_registries()
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # --- counters taken at the boundaries ---------------------------------

    def _guard(self, counter: str, fn):
        def hook(*args):
            try:
                return fn(*args)
            except (AttributeError, TypeError, IndexError, ValueError):
                self._broken.add(counter)
                return None

        return hook

    def _before(self, name: str):
        if name == "linalg.push":
            return self._guard("push_depth", lambda args: self._mark(args[0]))
        return None

    def _after(self, name: str):
        counts = self._counts
        if name == "linalg.push":

            def push(args, out, depth):
                counts["push_accepted"] += out is True
                if depth is None:
                    self._broken.add("push_depth")
                else:
                    counts["push_depth"] += depth

            return push
        if name == "objects.orbit_equal":

            def hit(args, out, pre):
                counts["orbit_hits"] += out is True

            return hit
        if name == "registry.init":
            return lambda args, out, pre: self._live_registries.append(args[0])
        if name == "engines.run":

            def iterations(args, out, pre):
                counts["iterations"] += len(out[1].rows) - 1

            return self._guard("iterations", iterations)
        return None

    def _flush_registries(self) -> None:
        """Add the colour count of every registry made during the top-level
        call that just ended; the registries are then released."""
        for reg in self._live_registries:
            size = getattr(reg, "count", None)
            if isinstance(size, int):
                self._counts["registry_size"] += size
            else:
                self._broken.add("registry_size")
        self._live_registries.clear()

    # --- metrics -------------------------------------------------------

    def metrics(self, fragile_warnings: int) -> Dict[str, Optional[float]]:
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        names = self.names
        oracle, push = names.index("oracle"), names.index("linalg.push")
        spans = range(len(self.start))
        duration = [self.end[i] - self.start[i] for i in spans]
        child = [0.0] * len(duration)
        in_oracle = [False] * len(duration)
        oracle_pushes = 0
        for i in spans:  # parents precede their children
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
                in_oracle[i] = in_oracle[p] or self.name_of[p] == oracle
            if self.name_of[i] == push and in_oracle[i]:
                oracle_pushes += 1
        for i in spans:
            name = names[self.name_of[i]]
            calls[name] += 1
            total[name] += duration[i]
            self_time[name] += duration[i] - child[i]

        have = self.present
        counts = self._counts

        def n(name):
            return calls[name] if name in have else None

        def s(name, table=total):
            return table[name] if name in have else None

        def ratio(num, den):
            return None if num is None or not den else num / den

        def counter(key, *names):
            ok = key not in self._broken and all(x in have for x in names)
            return counts[key] if ok else None

        push_calls = n("linalg.push")
        out = {
            "linalg.push.calls": push_calls,
            "linalg.push.s": s("linalg.push"),
            "linalg.push.accept_ratio": ratio(counter("push_accepted", "linalg.push"), push_calls),
            "linalg.push.depth_mean": ratio(counter("push_depth", "linalg.push"), push_calls),
            "linalg.rewind.calls": n("linalg.rewind"),
            "linalg.orientation_ok.calls": n("linalg.orientation_ok"),
            "linalg.dot_cache.entries": _dot_cache_size(),
            "objects.orbit_equal.calls": n("objects.orbit_equal"),
            "objects.orbit_equal.self_s": s("objects.orbit_equal", self_time),
            "objects.orbit_equal.hit_ratio": ratio(
                counter("orbit_hits", "objects.orbit_equal"), n("objects.orbit_equal")
            ),
            "registry.intern_orbit.calls": n("registry.intern_orbit"),
            "registry.intern_orbit.self_s": s("registry.intern_orbit", self_time),
            "registry.skeleton.s": s("registry.skeleton"),
            "registry.norm_profile.s": s("registry.norm_profile"),
            "registry.scans_per_intern": ratio(n("objects.orbit_equal"), n("registry.intern_orbit")),
            "registry.size": counter("registry_size", "registry.init"),
            "registry.intern_key.calls": n("registry.intern_key"),
            "registry.intern_bag.calls": n("registry.intern_bag"),
            "registry.intern_bag.s": s("registry.intern_bag"),
            "engines.run.calls": n("engines.run"),
            "engines.run.self_s": s("engines.run", self_time),
            "engines.iterations": counter("iterations", "engines.run"),
            "oracle.calls": n("oracle"),
            "oracle.s": s("oracle"),
            "oracle.push.calls": oracle_pushes if {"oracle", "linalg.push"} <= have else None,
            "graph.load.calls": n("graph.load"),
            "graph.load.s": s("graph.load"),
            "cli.main.self_s": s("cli.main", self_time),
            "so2.run.s": s("so2.run"),
            "numeric.fragile_warnings": fragile_warnings,
        }
        return out

    def write_spans(self, fh) -> None:
        for i in range(len(self.start)):
            row = [self.names[self.name_of[i]], self.start[i], self.end[i], self.parent[i], self.request_of[i], self.pass_id]
            fh.write(json.dumps(row) + "\n")


def count_fragile(caught) -> int:
    return sum(1 for w in caught if w.category.__name__ == "FragileComparisonWarning")


def write_spans(path: str, tracers) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "request", "pass"]) + "\n")
        for tracer in tracers:
            tracer.write_spans(fh)
