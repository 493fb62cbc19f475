"""Command-line harness: generate graphs, run solvers, audit, benchmark.

Subcommands:

* ``gen``    write a generated graph as an edge-list file
* ``run``    solve one instance, print the linearization and counters
* ``bench``  sweep sizes/heaps and append one CSV row per run
* ``audit``  run the working-set Dijkstra and print the bound report

Exit codes: 0 ok, 1 usage error, 2 internal invariant violation.
Wall-clock time is reported but never asserted; comparison counts are the
reproducible currency.  Plotting is left to CSV consumers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .comparison_optimal import run_pipeline
from .dijkstra import HEAP_KINDS, run_dijkstra
from .errors import ContractViolation, GraphParseError, UsageError
from .graph_core import (emit_graph, gen_broom, gen_dense, gen_family,
                         parse_graph)
from .optimality_audit import bound_report

FAMILIES = ("broom", "dense", "star", "path", "fan", "random_dag",
            "random_digraph")

CSV_SCHEMA = ("family,n,m,heap,algo,comparisons,additions,cost_I,energy,"
              "log_linearizations,forward_edges,wall_ns")
CSV_HEADER = f"# distorder-bench v1 {CSV_SCHEMA}"


def _size(tok) -> int:
    """Parse one ``--n`` size; every command's sizes go through here."""
    try:
        n = int(tok)
    except ValueError:
        raise UsageError(f"bad size {tok!r}") from None
    if n < 1:
        raise UsageError(f"bad size {n}: sizes start at 1")
    return n


def _build_graph(args, n, seed, audit=False):
    """Resolve a generator family, a size and a seed into a graph."""
    fam = args.family
    n = None if n is None else _size(n)
    if fam == "broom":
        t, r = args.t, args.r
        if t is None or r is None:
            if n is None:
                raise UsageError("broom needs --t and --r, or --n")
            t = t if t is not None else max(1, math.isqrt(n))
            r = r if r is not None else max(1, n - t - 1)
        return gen_broom(t, r, seed=seed, audit=audit)
    if fam == "dense":
        k = args.k
        if k is None:
            if n is None:
                raise UsageError("dense needs --k or --n")
            k = max(1, math.isqrt(n))
        return gen_dense(k, seed=seed, audit=audit)
    if n is None:  # gen_family refuses a family it does not know
        raise UsageError(f"family {fam} needs --n")
    return gen_family(fam, n, seed=seed, audit=audit)


def _load_graph(args, audit=False):
    if args.input:
        with open(args.input, "rb") as fh:
            data = fh.read()
        try:
            return parse_graph(data.decode("ascii"), audit=audit)
        except UnicodeDecodeError as exc:
            # count lines as parse_graph does, which also breaks at a bare \r
            line = len((data[:exc.start] + b"x").decode("ascii").splitlines())
            raise GraphParseError(
                line, f"non-ASCII byte {data[exc.start]:#04x}") from None
    if args.family is None:
        raise UsageError("provide --in FILE or --family")
    return _build_graph(args, args.n, args.seed, audit=audit)


def _solve(g, algo, heap):
    """Run one solver on g, timed: ``(result, wall_ns, run, graph)``, where
    ``run`` and ``graph`` are the Dijkstra run and graph to audit."""
    t0 = time.perf_counter_ns()
    if algo == "optimal":
        res = run_pipeline(g)
        return res, time.perf_counter_ns() - t0, res.run, res.core_graph
    run = run_dijkstra(g, heap)
    return run, time.perf_counter_ns() - t0, run, g


def _row(family, g, heap, algo, res, rep, wall) -> str:
    """One CSV row in ``CSV_SCHEMA`` order."""
    return ",".join(map(str, [
        family, g.n, g.m, heap, algo, res.comparisons, res.additions,
        f"{rep.cost_I:.4f}", f"{rep.energy:.4f}",
        f"{rep.log2_linearizations:.4f}", rep.forward_edges, wall]))


def cmd_gen(args) -> int:
    if args.family is None:
        raise UsageError("gen needs --family")
    text = emit_graph(_build_graph(args, args.n, args.seed))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    g = _load_graph(args, audit=args.audit)
    res, wall, run, graph = _solve(g, args.algo, args.heap)
    optimal = args.algo == "optimal"
    for v in res.linearization:
        print(v)
    lazy = f"lazy_spend {res.lazy_spend} " if optimal else ""
    print(f"# comparisons {res.comparisons} additions {res.additions} "
          f"{lazy}wall_ns {wall}")
    if args.audit:
        rep = bound_report(run, graph)
        label = "audit core" if optimal else "audit"
        print(f"# {label}: {' '.join(map(str, rep.csv_fields()))}")
        if rep.violations:
            return 2
    return 0


def cmd_bench(args) -> int:
    if args.family is None:
        raise UsageError("bench needs --family")
    if args.n is None:
        raise UsageError("bench needs --n SIZE[,SIZE...]")
    sizes = [_size(tok) for tok in args.n.split(",") if tok]
    heaps = [h.strip() for h in args.heaps.split(",") if h.strip()]
    if not sizes or not heaps or args.reps < 1:
        raise UsageError("bench needs a size, a heap and --reps >= 1")
    for h in heaps:
        if h not in HEAP_KINDS:
            raise UsageError(f"unknown heap {h!r}")
    if args.algo == "optimal":
        heaps = ["workset"]  # the pipeline's core SSSP runs this heap
    rows = []
    for n in sizes:
        for i in range(args.reps):
            for heap in heaps:
                g = _build_graph(args, n, args.seed + i)
                res, wall, run, graph = _solve(g, args.algo, heap)
                rows.append(_row(args.family, g, heap, args.algo, res,
                                 bound_report(run, graph), wall))
    if args.out:
        fresh = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
        with open(args.out, "a", encoding="ascii") as fh:
            if fresh:
                fh.write(CSV_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
    else:
        print(CSV_HEADER)
        print("\n".join(rows))
    return 0


def cmd_audit(args) -> int:
    g = _load_graph(args, audit=True)
    run = run_dijkstra(g, args.heap)
    rep = bound_report(run, g)
    print(CSV_HEADER.replace("bench", "audit"))
    print(_row(args.family or "file", g, args.heap, "dijkstra", run, rep, 0))
    for v in rep.violations:
        print(f"# VIOLATION: {v}", file=sys.stderr)
    return 2 if rep.violations else 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="distorder", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, file_input=False):
        sp.add_argument("--family", choices=FAMILIES, default=None)
        sp.add_argument("--n", default=None)
        sp.add_argument("--t", type=int, default=None)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        if file_input:
            sp.add_argument("--in", dest="input", default=None,
                            help="edge-list file instead of a generator")

    sp = sub.add_parser("gen", help="generate a graph file")
    common(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("run", help="solve one instance")
    common(sp, file_input=True)
    sp.add_argument("--algo", choices=("dijkstra", "optimal"), default="dijkstra")
    sp.add_argument("--heap", choices=HEAP_KINDS, default="workset")
    sp.add_argument("--audit", action="store_true")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("bench", help="sweep sizes and heaps into a CSV")
    common(sp)
    sp.add_argument("--heaps", default="workset")
    sp.add_argument("--algo", choices=("dijkstra", "optimal"), default="dijkstra")
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("audit", help="bound report for one instance")
    common(sp, file_input=True)
    sp.add_argument("--heap", choices=HEAP_KINDS, default="workset")
    sp.set_defaults(fn=cmd_audit)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, GraphParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ContractViolation, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
