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


def _build_graph(args, n=None, audit=False):
    """Resolve a generator family plus parameters into a graph."""
    fam = args.family
    seed = args.seed
    n = n if n is not None else args.n
    if n is not None:
        n = int(n)  # bench passes --n as a comma list, resolved upstream
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
    if fam in FAMILIES:
        if n is None:
            raise UsageError(f"family {fam} needs --n")
        return gen_family(fam, n, seed=seed, audit=audit)
    raise UsageError(f"unknown family {args.family!r}")


def _load_graph(args, n=None, audit=False):
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="ascii") as fh:
            return parse_graph(fh.read(), audit=audit)
    if args.family is None:
        raise UsageError("provide --in FILE or --family")
    return _build_graph(args, n=n, audit=audit)


def cmd_gen(args) -> int:
    g = _build_graph(args)
    text = emit_graph(g)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    g = _load_graph(args, audit=args.audit)
    if args.algo == "optimal":
        t0 = time.perf_counter_ns()
        res = run_pipeline(g)
        wall = time.perf_counter_ns() - t0
        for v in res.linearization:
            print(v)
        print(f"# comparisons {res.comparisons} additions {res.additions} "
              f"lazy_spend {res.lazy_spend} wall_ns {wall}")
        if args.audit:
            rep = bound_report(res.run, res.core_graph)
            print(f"# audit core: {' '.join(map(str, rep.csv_fields()))}")
            if rep.violations:
                return 2
        return 0
    t0 = time.perf_counter_ns()
    run = run_dijkstra(g, args.heap)
    wall = time.perf_counter_ns() - t0
    for v in run.linearization:
        print(v)
    print(f"# comparisons {run.comparisons} additions {run.additions} "
          f"wall_ns {wall}")
    if args.audit:
        rep = bound_report(run, g)
        print(f"# audit: {' '.join(map(str, rep.csv_fields()))}")
        if rep.violations:
            return 2
    return 0


def _bench_sizes(args) -> list[int]:
    if args.n is None:
        raise UsageError("bench needs --n SIZE[,SIZE...]")
    try:
        return [int(tok) for tok in str(args.n).split(",") if tok]
    except ValueError:
        raise UsageError(f"bad size list {args.n!r}") from None


def cmd_bench(args) -> int:
    sizes = _bench_sizes(args)
    heaps = [h.strip() for h in args.heaps.split(",") if h.strip()]
    for h in heaps:
        if h not in HEAP_KINDS:
            raise UsageError(f"unknown heap {h!r}")
    rows = []
    for n in sizes:
        for rep in range(args.reps):
            seed = args.seed + rep
            for heap in heaps:
                sub = argparse.Namespace(family=args.family, seed=seed,
                                         n=n, t=args.t, r=args.r, k=args.k)
                g = _build_graph(sub, n=n)
                t0 = time.perf_counter_ns()
                if args.algo == "optimal":
                    res = run_pipeline(g)
                    wall = time.perf_counter_ns() - t0
                    rep_obj = bound_report(res.run, res.core_graph)
                    comparisons, additions = res.comparisons, res.additions
                    fwd = rep_obj.forward_edges
                else:
                    run = run_dijkstra(g, heap)
                    wall = time.perf_counter_ns() - t0
                    rep_obj = bound_report(run, g)
                    comparisons, additions = run.comparisons, run.additions
                    fwd = rep_obj.forward_edges
                rows.append(",".join(map(str, [
                    args.family, g.n, g.m, heap, args.algo, comparisons,
                    additions, f"{rep_obj.cost_I:.4f}", f"{rep_obj.energy:.4f}",
                    f"{rep_obj.log2_linearizations:.4f}", fwd, wall,
                ])))
                if args.algo == "optimal":
                    break  # heap choice is fixed inside the pipeline
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
    print(",".join(map(str, [
        args.family or "file", g.n, g.m, args.heap, "dijkstra",
        rep.comparisons, rep.additions, f"{rep.cost_I:.4f}",
        f"{rep.energy:.4f}", f"{rep.log2_linearizations:.4f}",
        rep.forward_edges, 0,
    ])))
    for v in rep.violations:
        print(f"# VIOLATION: {v}", file=sys.stderr)
    return 2 if rep.violations else 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="distorder", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, gen_only=False):
        sp.add_argument("--family", choices=FAMILIES, default=None)
        sp.add_argument("--n", default=None)
        sp.add_argument("--t", type=int, default=None)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        if not gen_only:
            sp.add_argument("--in", dest="input", default=None,
                            help="edge-list file instead of a generator")

    sp = sub.add_parser("gen", help="generate a graph file")
    common(sp, gen_only=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("run", help="solve one instance")
    common(sp)
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
    common(sp)
    sp.add_argument("--heap", choices=HEAP_KINDS, default="workset")
    sp.set_defaults(fn=cmd_audit)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
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
