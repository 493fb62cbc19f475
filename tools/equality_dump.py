"""Dump every count and output of a fixed corpus as sorted JSON.

Two checkouts that should behave identically are compared bit for bit by
running this script in each and comparing the outputs:

    PYTHONPATH=src python3 tools/equality_dump.py > out.json
    cmp parent.json out.json

The corpus is 45 graphs: ``random_digraph``, ``random_dag``, star, fan and
path at n in {50, 2000} and seeds {0, 424242}; brooms t in {44, 45, 64} with
a path of t*t - t - 1 vertices; ``gen_dense`` k = 4, 8, ..., 32; fan-200;
the prime-denominator graph; perfbench's random-sparse, broom-dense and
heap-churn star inputs at seeds 0 and 424242; and two graphs with input
parallel arcs, ``NESTED_GROUP_TEXT`` and the n = 2000 chain multigraph of
seed 1, each with an input group nested in a core group.  Each graph runs
Dijkstra on all four queues and the pipeline in a plain and an audit-mode
arena.  The heap-churn trace is also replayed on all four queues at both
seeds, and each of its three audited windows is one interval-only case.
Each graph's plain working-set run also feeds one case of the tree
audits, for 509 cases in all.  Every case records comparisons; all but the
tree audits record additions.  Dijkstra runs add ``extract_comparisons``,
the linearization, both trees' parents, ``sssp_arcs``, the intervals and
(audit runs) the exact distances; pipeline runs add ``lazy_spend``, the
linearization, the tree, ``tree_arc``, the core graph (n, s, tails and heads
in arc order, and each core arc's group size: how many arcs of
``helpers.multi_graph`` it stands for), the count of its
distance-forward arcs and (audit runs) the exact distances.  Working-set
Dijkstra runs and replays add ``rank_extracts``, so a change of the rank
layout shows.  A tree-audit case records ``tree_dp_linearize`` on the
shortest-path tree (its order and its comparisons),
``tree_log_linearizations`` of the exploration tree, the
``greedy_coloring`` of the intervals (classes and witnesses) and what
``verify_barrier_sequence`` says of it.  A churn-window case records
``working_set_sizes`` and the ``greedy_coloring`` (classes and witnesses)
of the window's intervals.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]

from distorder import (WeightArena, gen_broom, gen_dense, gen_family,  # noqa: E402
                       parse_graph, run_dijkstra, run_pipeline)
from distorder.comparison_optimal import tree_dp_linearize  # noqa: E402
from distorder.dijkstra import HEAP_KINDS  # noqa: E402
from distorder.graph_core import forward_edges  # noqa: E402
from distorder.optimality_audit import (greedy_coloring,  # noqa: E402
                                        tree_log_linearizations,
                                        verify_barrier_sequence,
                                        working_set_sizes)
from helpers import (NESTED_GROUP_TEXT, chain_multigraph_text,  # noqa: E402
                     multi_graph, prime_denominator_graph)
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
    multi = chain_multigraph_text(random.Random(1), 2000)
    for name, text in (("nested-group", NESTED_GROUP_TEXT),
                       ("multigraph-2000-s1", multi)):
        out.append((name, lambda a, text=text: parse_graph(text, audit=a)))
    return out


def dijkstra_case(g, run):
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
    if run.heap_kind == "workset":
        case["rank_extracts"] = run.rank_extracts
    if g.arena.audit:
        case["dist"] = [str(g.arena.audit_value(h)) for h in run.dist]
    return case


def tree_audit_case(g, run):
    arena = g.arena
    c0 = arena.cmp_count
    order = tree_dp_linearize(run.sssp, run.dist, arena)
    coloring = greedy_coloring(run.intervals)
    return {
        "comparisons": arena.cmp_count - c0,
        "tree_dp": order,
        "log_linearizations": tree_log_linearizations(run.explore),
        "classes": coloring.classes,
        "witnesses": coloring.witnesses,
        "barrier": verify_barrier_sequence(coloring, run.explore),
    }


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
    core, multi = p.core_graph, multi_graph(p.core_graph, p.core_groups)
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
            runs = {kind: run_dijkstra(g, kind) for kind in HEAP_KINDS}
            for kind, run in runs.items():
                cases[f"{name}/{kind}/{mode}"] = dijkstra_case(g, run)
            if audit:
                cases[f"{name}/pipeline/audit"] = pipeline_case(g)
            else:
                cases[f"{name}/pipeline"] = pipeline_case(g)
                # last, so every other case runs on the arena as before
                cases[f"{name}/tree-audits"] = tree_audit_case(g, runs["workset"])
    for seed in SEEDS:
        trace = make_inputs("heap-churn", seed)
        arena = WeightArena()
        handles = arena.intern_many(trace.values)
        for kind in HEAP_KINDS:
            q = QUEUES[kind](arena)
            c0 = arena.cmp_count
            order = replay(q, trace.ops, handles)
            cases[f"replay-s{seed}/{kind}"] = case = {
                "comparisons": arena.cmp_count - c0,
                "extract_comparisons": getattr(q, "extract_comparisons", 0),
                "linearization": order,
            }
            if kind == "workset":
                case["rank_extracts"] = q.rank_extracts
        for k, intervals in enumerate(trace.windows):
            coloring = greedy_coloring(intervals)
            cases[f"churn-window-s{seed}/{k}"] = {
                "working_set_sizes": working_set_sizes(intervals),
                "classes": coloring.classes,
                "witnesses": coloring.witnesses,
            }
    json.dump(cases, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    print(len(cases), "cases", file=sys.stderr)


if __name__ == "__main__":
    main()
