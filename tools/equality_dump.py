"""Dump every count and output of a fixed corpus as sorted JSON.

Two checkouts that should behave identically are compared bit for bit by
running this script in each and comparing the outputs:

    PYTHONPATH=src python3 tools/equality_dump.py > out.json
    cmp parent.json out.json

The corpus is 43 graphs: ``random_digraph``, ``random_dag``, star, fan and
path at n in {50, 2000} and seeds {0, 424242}; brooms t in {44, 45, 64} with
a path of t*t - t - 1 vertices; ``gen_dense`` k = 4, 8, ..., 32; fan-200;
the prime-denominator graph; and perfbench's random-sparse, broom-dense and
heap-churn star inputs at seeds 0 and 424242.  Each graph runs Dijkstra on
all four queues and the pipeline in a plain and an audit-mode arena.  The
heap-churn trace is also replayed on all four queues at both seeds, for 438
cases in all.  Every case records comparisons and additions; Dijkstra runs
add ``extract_comparisons``, the linearization, both trees' parents,
``sssp_arcs``, the intervals and (audit runs) the exact distances; pipeline
runs add ``lazy_spend``, the linearization, the tree, ``tree_arc``, the
core graph (n, s, tails and heads in arc order, and each core arc's group
size: how many arcs of ``multi_graph`` it stands for), the count of
``multi_graph``'s distance-forward arcs and (audit runs) the exact
distances.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]

from distorder import (WeightArena, gen_broom, gen_dense, gen_family,  # noqa: E402
                       parse_graph, run_dijkstra, run_pipeline)
from distorder.dijkstra import HEAP_KINDS  # noqa: E402
from distorder.graph_core import forward_edges  # noqa: E402
from helpers import prime_denominator_graph  # noqa: E402
from workloads import QUEUES, make_inputs, replay  # noqa: E402

SEEDS = (0, 424242)


def corpus():
    """(name, build) pairs, where build(audit) returns a fresh graph."""
    out = []
    for kind in ("random_digraph", "random_dag", "star", "fan", "path"):
        for n in (50, 2000):
            for seed in SEEDS:
                out.append((f"{kind}-{n}-s{seed}", lambda a, k=kind, n=n, s=seed:
                            gen_family(k, n, seed=s, audit=a)))
    for t in (44, 45, 64):
        out.append((f"broom-{t}", lambda a, t=t: gen_broom(t, t * t - t - 1, audit=a)))
    for k in range(4, 33, 4):
        out.append((f"dense-{k}", lambda a, k=k: gen_dense(k, audit=a)))
    out.append(("fan-200", lambda a: gen_family("fan", 200, audit=a)))
    out.append(("prime-denominators", lambda a: prime_denominator_graph(audit=a)))
    for seed in SEEDS:
        raws = (make_inputs("random-sparse", seed) + make_inputs("broom-dense", seed)
                + [make_inputs("heap-churn", seed).star])
        for raw in raws:
            out.append((f"perfbench-{raw.name}-s{seed}",
                        lambda a, text=raw.text: parse_graph(text, audit=a)))
    return out


def dijkstra_case(g, kind):
    run = run_dijkstra(g, kind)
    case = {
        "comparisons": run.comparisons,
        "additions": run.additions,
        "extract_comparisons": run.extract_comparisons,
        "linearization": run.linearization,
        "sssp": run.sssp.parent,
        "explore": run.explore.parent,
        "sssp_arcs": run.sssp_arcs,
        "intervals": run.intervals,
    }
    if g.arena.audit:
        case["dist"] = [str(g.arena.audit_value(h)) for h in run.dist]
    return case


def pipeline_case(g):
    p = run_pipeline(g)
    case = {
        "comparisons": p.comparisons,
        "additions": p.additions,
        "lazy_spend": p.lazy_spend,
        "linearization": p.linearization,
        "tree": p.tree.parent,
        "tree_arc": p.tree_arc,
    }
    if g.arena.audit:
        case["dist"] = [str(g.arena.audit_value(h)) for h in p.dist]
    # read after the counts: forward_edges spends comparisons
    core, multi = p.core_graph, p.multi_graph
    size = Counter(zip(multi.tails, multi.heads))
    case["core"] = {"n": core.n, "s": core.s, "tails": core.tails,
                    "heads": core.heads,
                    "group_sizes": [size[a] for a in zip(core.tails, core.heads)]}
    case["multi_forward"] = forward_edges(multi, p.run.dist)
    return case


def main():
    cases = {}
    for name, build in corpus():
        for audit in (False, True):
            g = build(audit)
            mode = "audit" if audit else "plain"
            for kind in HEAP_KINDS:
                cases[f"{name}/{kind}/{mode}"] = dijkstra_case(g, kind)
            if audit:
                cases[f"{name}/pipeline/audit"] = pipeline_case(g)
            else:
                cases[f"{name}/pipeline"] = pipeline_case(g)
    for seed in SEEDS:
        trace = make_inputs("heap-churn", seed)
        arena = WeightArena()
        handles = arena.intern_many(trace.values)
        for kind in HEAP_KINDS:
            q = QUEUES[kind](arena)
            c0 = arena.cmp_count
            order = replay(q, trace.ops, handles)
            cases[f"replay-s{seed}/{kind}"] = {
                "comparisons": arena.cmp_count - c0,
                "extract_comparisons": getattr(q, "extract_comparisons", 0),
                "linearization": order,
            }
    json.dump(cases, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    print(len(cases), "cases", file=sys.stderr)


if __name__ == "__main__":
    main()
