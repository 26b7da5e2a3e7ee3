"""Verdict-timing benchmark for geowl.

    python3 bench/run.py --workload iso-small --seed 1 --seconds 55 --trace 0

Run from the repository root. The benchmark imports geowl from `src/`,
builds the workload's inputs from the seed, decides them one pair at a
time in this single-threaded process, checks every verdict against a
reference that does not come from the engine under test, and prints one
JSON object as the last line of standard output. `--trace 0` reports the
end-to-end metrics, with the set-up timed in fresh interpreters
(bench/fresh_setup.py) and every time scaled to reference speed
(bench/reference.py); `--trace 1` decides the list traced and untraced
by turns, and reports the per-layer metrics. A record of each
run, and the spans of a traced run, go to `bench/results/`. See
bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


TAIL_BEYOND = 10  # the tail is the slowest verdict with this many slower ones
N_SETUPS = 11  # fresh-interpreter set-ups per end-to-end run; setup_s is their median
TRACED_PASSES = 3  # per traced run, each followed by an untraced pass


@dataclasses.dataclass
class Pass:
    times: list
    digest: str
    failures: list
    references: list  # reference loops around the tasks: task i lies between i and i + 1


def run_pass(tasks, tracing, tracer=None, deadline=None) -> Pass:
    """Decide tasks in order, each after the previous one finished; stop
    before starting a task once `deadline` (a perf_counter value) passed.
    The reference loop is timed before the first task and after each one."""
    tracing.clear_caches()
    times, failures, references = [], [], []
    digest = hashlib.sha256()
    clock = time.perf_counter
    for request, task in enumerate(tasks):
        if deadline is not None and clock() >= deadline:
            break
        if not references:
            references.append(reference.reference_s())
        if tracer is not None:
            tracer.request = request
        start = clock()
        try:
            got, record = task.call()
        except Exception as exc:  # a call that raises is a failed verdict
            got, record = None, f"error {type(exc).__name__}: {exc}"
        times.append(clock() - start)
        references.append(reference.reference_s())
        digest.update(f"{task.label}\t{record}\n".encode())
        if got is None:
            failures.append((task.label, record))
        elif task.expected is not None and got != task.expected:
            failures.append((task.label, f"distinguished={got}, expected {task.expected}"))
    return Pass(times, digest.hexdigest(), failures, references)


def checker_self_test(workloads, tracing) -> bool:
    """A flipped reference verdict must be counted as a failure."""
    import geowl

    g1, g2, _ = geowl.gen_kchain(2)
    tasks = workloads.kchain_tasks([(2, g1, g2)], seed=0)
    flipped = [dataclasses.replace(t, expected=not t.expected) for t in tasks]
    good, bad = run_pass(tasks, tracing), run_pass(flipped, tracing)
    return not good.failures and len(bad.failures) == len(flipped)


def fresh_setup(name: str, seed: int, scratch: Path) -> float:
    """Seconds of one set-up in a fresh interpreter, waited for, at
    reference speed."""
    scratch.mkdir(parents=True)
    out = subprocess.run(
        [sys.executable, str(HERE / "fresh_setup.py"), name, str(seed), str(scratch)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    shutil.rmtree(scratch)
    seconds, *references = map(float, out.stdout.split())
    return reference.scaled(seconds, *references)


def scaled_samples(passes, n):
    """Each task's times over the passes, scaled to reference speed."""
    return [
        [reference.scaled(p.times[i], *p.references[i : i + 2]) for p in passes if i < len(p.times)]
        for i in range(n)
    ]


def end_to_end(tasks, setup, tracing, seconds: float):
    """Decide the whole list again and again until `seconds` have passed;
    the first round always completes, the last one stops at the deadline.
    Between rounds, `setup()` is timed N_SETUPS times, spread over the run.

    A shared virtual CPU can change speed by up to 2x for minutes at a time
    (bench/README.md). So each sample is scaled to reference speed by the
    reference loops timed just before and after it; a verdict's time is
    the median of its scaled samples over the rounds, and the set-up time
    is the median of set-ups made at different points of the run.
    """
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    setups = [setup()]
    passes = [run_pass(tasks, tracing)]
    while clock() < deadline:
        if clock() >= start + len(setups) * seconds / N_SETUPS:
            setups.append(setup())
        passes.append(run_pass(tasks, tracing, deadline=deadline))
    while len(setups) < N_SETUPS:
        setups.append(setup())
    samples = scaled_samples(passes, len(tasks))
    per_verdict = [statistics.median(times) for times in samples]
    refs = [r for p in passes for r in p.references]
    ordered = sorted(per_verdict)
    tail_rank = min(TAIL_BEYOND + 1, len(ordered))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_verdict), "s"),
        "verdict_s.p50": (statistics.median(per_verdict), "s"),
        "verdict_s.tail": (ordered[-tail_rank], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = sorted(map(len, samples))
    info = {
        "rounds": len(passes),
        "samples_per_verdict": [counts[0], statistics.median(counts), counts[-1]],
        "verdicts": len(tasks),
        "tail_percentile": 100 * (len(tasks) - tail_rank + 1) / len(tasks),
        "setups_s": setups,
        "reference_loop_s": [f(refs) for f in (min, statistics.median, max)],
    }
    problems = []
    if len({p.digest for p in passes if len(p.times) == len(tasks)}) != 1:
        problems.append("verdicts or traces differ between rounds over the same inputs")
    return passes, metrics, info, problems


def per_layer(tasks, tracing):
    """Alternate traced and untraced passes over the task list,
    TRACED_PASSES of each.

    Counts must agree exactly between the traced passes; times are their
    mean. The overhead is the traced minus the untraced `wall_s`, each
    computed from its passes as in an end-to-end run.
    """
    passes, layers, tracers, traced, untraced = [], [], [], [], []
    for pass_id in range(1, TRACED_PASSES + 1):
        tracer = tracing.Tracer(pass_id)
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                passes.append(run_pass(tasks, tracing, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics(tracing.count_fragile(caught)))
        tracers.append(tracer)
        traced.append(passes[-1])
        passes.append(run_pass(tasks, tracing))
        untraced.append(passes[-1])
    problems = []
    if len({p.digest for p in passes}) != 1:
        problems.append("verdicts or traces differ between passes over the same inputs")
    for name in tracing.DETERMINISTIC:
        values = [layer[name] for layer in layers]
        if len(set(values)) != 1:
            problems.append(f"{name} differs between the traced passes: {values}")
    metrics = {}
    for name, unit in tracing.METRICS.items():
        values = [layer.get(name) for layer in layers]
        if None in values or unit != "s":
            metrics[name] = (values[0] if len(set(values)) == 1 else None, unit)
        else:
            metrics[name] = (statistics.mean(values), unit)

    def wall(some):
        return sum(map(statistics.median, scaled_samples(some, len(tasks))))

    metrics["trace.overhead_s"] = (wall(traced) - wall(untraced), "s")
    info = {"untraced_wall_s": wall(untraced), "traced_wall_s": wall(traced), "verdicts": len(tasks)}
    return passes, metrics, info, problems, tracers


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "geowl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geowl" / "__init__.py").is_file():
        print(f"error: no geowl package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GWLKIT_TOLERANCE", None)  # the CLI default must be the library's
    sys.path.insert(0, str(SRC))
    import geowl
    import tracing
    import workloads

    if Path(geowl.__file__).resolve().parent != (SRC / "geowl").resolve():
        print(f"error: geowl imported from {geowl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not checker_self_test(workloads, tracing):
        print("error: the verdict checker did not count a flipped verdict as a failure", file=sys.stderr)
        return 1

    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracers = []
        if args.trace:
            passes, metrics, info, problems, tracers = per_layer(tasks, tracing)
        else:
            setup = functools.partial(fresh_setup, args.workload, args.seed, workdir / "setup")
            passes, metrics, info, problems = end_to_end(tasks, setup, tracing, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracers:
        tracing.write_spans(RESULTS / f"spans-{stem}.jsonl.gz", tracers)
    # A verdict fails when it fails in any round; the set of failing
    # verdicts is fixed by the seed, whatever the number of rounds.
    failing = {}
    for p in passes:
        for label, why in p.failures:
            failing.setdefault(label, why)
    failing = dict(sorted(failing.items()))
    attempted = len(tasks)
    digest = passes[0].digest  # every complete round gives the same digest
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failing),
        "failed_frac": len(failing) / attempted,
        "failing": failing,
        "calls": sum(len(p.times) for p in passes),
        "failed_calls": sum(len(p.failures) for p in passes),
        "digest": digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        return 1
    for label, why in failing.items():
        print(f"failed: {label}: {why}", file=sys.stderr)
    print(f"# {stem}: digest {digest} failed_frac {record['failed_frac']} {json.dumps(info)}")
    print(
        json.dumps(
            {
                "correct": not failing,
                "attempted": attempted,
                "failed": len(failing),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
