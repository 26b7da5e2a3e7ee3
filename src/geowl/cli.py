"""Command-line interface: distinguish, gen, table, props, iso, so2.

Exit codes: 0 = indistinguishable/isomorphic (or plain success), 10 =
distinguished/non-isomorphic, 2 = usage error, 3 = input error, 4 =
oracle cap exceeded. Distinguished runs get their own success code so
shell scripts can compare engines without parsing output.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from typing import List, Optional

from . import engines, generators, properties, so2
from .graph import GeometricGraph, GroupSpec, dump_graph, load_graph
from .numeric import DEFAULT_EPS
from .oracle import OracleCapExceeded, geometric_isomorphism_oracle

EXIT_SAME = 0
EXIT_DIFFERENT = 10
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4

TOLERANCE_ENV = "GWLKIT_TOLERANCE"


class CliInputError(Exception):
    pass


class CliUsageError(Exception):
    pass


def _tolerance_default() -> float:
    raw = os.environ.get(TOLERANCE_ENV)
    if raw is None:
        return DEFAULT_EPS
    try:
        eps = float(raw)
    except ValueError:
        raise CliInputError(f"{TOLERANCE_ENV} is not a number: {raw!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise CliInputError(f"{TOLERANCE_ENV} must be a positive finite number")
    return eps


def _load(path: str, eps: float) -> GeometricGraph:
    """load_graph; each warning it raises prints as one `warning: path:` line."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            g = load_graph(path, eps=eps)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc.strerror}")
    for w in caught:
        print(f"warning: {path}: {w.message}", file=sys.stderr)
    return g


def cmd_distinguish(args) -> int:
    eps = args.tolerance
    g1 = _load(args.graph_a, eps)
    g2 = _load(args.graph_b, eps)
    grp = None if args.test in ("wl", "so2") else GroupSpec(args.group, g1.dim)
    if args.test == "wl":
        verdict, trace = engines.run_wl(g1, g2, args.max_iters)
    elif args.test == "gwl":
        verdict, trace = engines.run_gwl(g1, g2, grp, args.max_iters)
    elif args.test == "igwl":
        verdict, trace = engines.run_igwl(g1, g2, grp, args.max_iters)
    elif args.test == "igwl-k":
        verdict, trace = engines.run_igwl_k(g1, g2, grp, args.k, args.max_iters)
    else:  # so2
        verdict, trace = so2.run_so2_gwl(g1, g2, args.max_iters)
    report = engines.report_dict(args.test, grp, verdict, trace)
    if args.format == "json":
        print(json.dumps(report, indent=1))
    else:
        print(f"test: {args.test}" + (f"  group: {report['group']}" if grp else ""))
        if verdict.distinguished:
            print(f"verdict: distinguished at iteration {verdict.iteration}")
        else:
            print(
                f"verdict: indistinguishable after {verdict.iteration} iteration(s)"
                f" ({'stable' if verdict.stable else 'iteration cap reached'})"
            )
        for row in trace.rows:
            print(
                f"  t={row.iteration}: classes={row.class_count}"
                f" histograms {'equal' if row.histograms_equal else 'DIFFER'}"
            )
    return EXIT_DIFFERENT if verdict.distinguished else EXIT_SAME


def _save(out: str, files) -> List[str]:
    """Write each (name, graph or JSON dict) into directory out, created if
    missing, and return the paths. An OSError (out is a file, a path is not
    writable) becomes a CliInputError naming the path: exit 3, one line."""
    paths = []
    try:
        os.makedirs(out, exist_ok=True)
        for name, content in files:
            path = os.path.join(out, name)
            if isinstance(content, dict):
                with open(path, "w") as fh:
                    json.dump(content, fh, indent=1)
                    fh.write("\n")
            else:
                dump_graph(content, path)
            paths.append(path)
    except OSError as exc:
        raise CliInputError(f"cannot write {exc.filename or out}: {exc.strerror or exc}")
    return paths


def cmd_gen(args) -> int:
    out = args.out
    if args.family == "kchain":
        if args.k is None or args.k < 2:
            raise CliUsageError("kchain requires --k >= 2")
        g1, g2, spec = generators.gen_kchain(args.k)
        stem = f"kchain_k{args.k}"
    elif args.family == "tri-hex":
        g1, g2, spec = generators.gen_triangles_vs_hexagon()
        stem = "tri_hex"
    elif args.family == "onehop":
        g1, g2, spec = generators.gen_onehop_identical_pair()
        stem = "onehop_identical"
    else:  # lfold
        if args.L is None or args.L < 2:
            raise CliUsageError("lfold requires --L >= 2")
        g = generators.gen_lfold(args.L, args.alpha)
        print(*_save(out, [(f"lfold_L{args.L}.json", g)]))
        return EXIT_SAME
    # only now that the graphs exist: a bad argument leaves no directory
    files = [(f"{stem}_a.json", g1), (f"{stem}_b.json", g2), (f"{stem}_pair.json", spec.to_dict())]
    for p in _save(out, files):
        print(p)
    verified = "oracle-verified" if spec.verified else "not verified (beyond oracle cap)"
    print(f"claimed relation: {spec.claim} ({verified})")
    return EXIT_SAME


def _verdict_word(verdict) -> str:
    return "distinguished" if verdict.distinguished else "indistinguishable"


def cmd_table(args) -> int:
    lo, hi = args.range
    if lo > hi or lo < 2:
        raise CliUsageError("range must satisfy 2 <= lo <= hi")
    lines = []
    if args.which == "kchains":
        budgets_of = lambda k: list(range(k // 2, k // 2 + 5))
        lines.append("| k | engine | budget floor(k/2) .. floor(k/2)+4 |")
        lines.append("|---|--------|------------------------------------|")
        for k in range(lo, hi + 1):
            g1, g2, _ = generators.gen_kchain(k)
            grp = GroupSpec("O", 3)
            for name, runner in (
                ("GWL", lambda b: engines.run_gwl(g1, g2, grp, b)),
                ("IGWL", lambda b: engines.run_igwl(g1, g2, grp, b)),
            ):
                cells = []
                for b in budgets_of(k):
                    verdict, _ = runner(b)
                    cells.append(f"{b}:{_verdict_word(verdict)}")
                lines.append(f"| {k} | {name} | " + ", ".join(cells) + " |")
    else:  # lfold-invariance
        lines.append("| L | rotated copies under GWL/SO(2) |")
        lines.append("|---|--------------------------------|")
        for L in range(lo, hi + 1):
            ga = generators.gen_lfold(L, 0.0)
            gb = generators.gen_lfold(L, math.pi / L)
            if ga.ctx.mode != gb.ctx.mode:
                ga = generators.gen_lfold(L, 1e-12)  # force float on both sides
            verdict, _ = engines.run_gwl(ga, gb, GroupSpec("SO", 2))
            lines.append(f"| {L} | {_verdict_word(verdict)} |")
    lines.append("")
    lines.append("Accuracy columns for trained models: out of scope: trained models.")
    print("\n".join(lines))
    return EXIT_SAME


def cmd_props(args) -> int:
    g = _load(args.graph, args.tolerance)
    quads = []
    for raw in args.dihedral or ():
        parts = raw.split(",")
        if len(parts) != 4:
            raise CliInputError("--dihedral wants l,j,k,m")
        quads.append(tuple(int(p) for p in parts))
        if not all(0 <= i < g.n for i in quads[-1]):
            raise CliInputError(f"--dihedral {raw}: node indices must be 0..{g.n - 1}")
    data = properties.property_report(g, quads).to_dict()
    if args.format == "json":
        print(json.dumps(data, indent=1))
    else:
        for key in ("dim", "extents", "perimeter", "area", "volume", "centroid"):
            if key in data:
                print(f"{key}: {data[key]}")
        print(f"centroid distances: {data['centroid_distances']}")
        if "dihedrals" in data:
            for q, v in data["dihedrals"].items():
                print(f"dihedral({q}): {v}")
    return EXIT_SAME


def cmd_iso(args) -> int:
    if args.cap < 0:
        raise CliUsageError("--cap must be >= 0")
    g1 = _load(args.graph_a, args.tolerance)
    g2 = _load(args.graph_b, args.tolerance)
    grp = GroupSpec(args.group, g1.dim)
    same, witness = geometric_isomorphism_oracle(g1, g2, grp, cap=args.cap)
    print("isomorphic" if same else "non-isomorphic")
    if witness is not None:
        print(f"witness permutation: {list(witness.permutation)}")
    return EXIT_SAME if same else EXIT_DIFFERENT


def cmd_so2(args) -> int:
    g = _load(args.graph, args.tolerance)
    if g.dim != 2:
        raise CliInputError("so2 commands require a 2-dimensional graph")
    pts = list(g.positions)
    if args.so2_cmd == "stab":
        info = so2.stabilizer_order(pts, args.tolerance)
        if info.continuous:
            print("stabilizer: continuous")
        else:
            print(f"stabilizer order: {info.order} (theta = {info.theta:.6f})")
        return EXIT_SAME
    h = so2.so2_hash(pts, so2.so2_registry(args.tolerance))  # so2_cmd == "hash"
    print(json.dumps({"vector": list(h.vector), "norm": h.norm, "angle": h.angle}))
    return EXIT_SAME


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `geowl` parser, built on the first call and shared by every later one.

    Building it costs more than most verdicts, so `main` reuses one parser
    per process. Sharing is safe: it is built from constants only (every
    `--tolerance` defaults to None, and `main` reads GWLKIT_TOLERANCE on
    each call), no default is a mutable object, argparse writes each
    parse into a fresh Namespace, and help width is read when help is
    printed. The memo holds this one object and never grows.
    """
    parser = argparse.ArgumentParser(
        prog="geowl",
        description="Discriminate geometric graphs with WL-style refinement tests.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_tolerance(p):
        p.add_argument("--tolerance", type=float, default=None, help="float comparison epsilon")

    d = sub.add_parser("distinguish", help="run a refinement test on a graph pair")
    d.add_argument("graph_a")
    d.add_argument("graph_b")
    d.add_argument("--test", choices=["wl", "gwl", "igwl", "igwl-k", "so2"], default="gwl")
    d.add_argument("--group", choices=["O", "SO"], default="O")
    d.add_argument("--k", type=int, default=None, help="body order (igwl-k only)")
    d.add_argument("--max-iters", type=int, default=None)
    d.add_argument("--format", choices=["json", "text"], default="text")
    add_tolerance(d)

    g = sub.add_parser("gen", help="generate a synthetic family")
    g.add_argument("family", choices=["kchain", "lfold", "tri-hex", "onehop"])
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--L", type=int, default=None)
    g.add_argument("--alpha", type=float, default=0.0)
    g.add_argument("--out", default=".")

    t = sub.add_parser("table", help="engine verdict grids for the synthetic families")
    t.add_argument("which", choices=["kchains", "lfold-invariance"])
    t.add_argument("--range", type=int, nargs=2, default=(2, 8), metavar=("LO", "HI"))

    p = sub.add_parser("props", help="geometric property report for one graph")
    p.add_argument("graph")
    p.add_argument("--dihedral", action="append", metavar="l,j,k,m")
    p.add_argument("--format", choices=["json", "text"], default="text")
    add_tolerance(p)

    i = sub.add_parser("iso", help="brute-force congruence oracle")
    i.add_argument("graph_a")
    i.add_argument("graph_b")
    i.add_argument("--group", choices=["O", "SO"], default="O")
    i.add_argument("--cap", type=int, default=10)
    add_tolerance(i)

    s = sub.add_parser("so2", help="planar orbit-and-orientation encoding tools")
    ssub = s.add_subparsers(dest="so2_cmd", required=True)
    for name in ("hash", "stab"):
        sp = ssub.add_parser(name)
        sp.add_argument("graph")
        add_tolerance(sp)
    # `so2 refine a b` is `distinguish a b --test so2 --format json`
    sr = ssub.add_parser("refine")
    sr.add_argument("graph_a", metavar="graph")
    sr.add_argument("graph_b")
    sr.add_argument("--max-iters", type=int, default=None)
    add_tolerance(sr)
    sr.set_defaults(cmd="distinguish", test="so2", format="json", k=None)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "tolerance", None) is None and hasattr(args, "tolerance"):
            args.tolerance = _tolerance_default()
        if args.cmd == "distinguish":
            if args.test == "igwl-k" and args.k is None:
                parser.error("--test igwl-k requires --k")
            if args.test != "igwl-k" and args.k is not None:
                parser.error("--k only applies to --test igwl-k")
            return cmd_distinguish(args)
        if args.cmd == "gen":
            return cmd_gen(args)
        if args.cmd == "table":
            return cmd_table(args)
        if args.cmd == "props":
            return cmd_props(args)
        if args.cmd == "iso":
            return cmd_iso(args)
        return cmd_so2(args)  # argparse admits no other subcommand
    except SystemExit as exc:  # argparse: --help, bad usage, parser.error
        return EXIT_USAGE if exc.code not in (0,) else 0
    except OracleCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CliInputError, ValueError) as exc:  # GraphError and NumericError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
