"""Self-tests of the benchmark's oracles, count guard and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
from pathlib import Path

from distorder import parse_graph, run_dijkstra, run_pipeline

import workloads
from oracle import Checker
from perlayer import per_layer
from tracer import Tracer

BENCH = json.loads((Path(workloads.__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text())


def small_graph(seed=0):
    return workloads.random_sparse(random.Random(seed), 200)


def test_swapped_linearization_raises_failed_frac():
    raw = small_graph()
    run = run_dijkstra(parse_graph(raw.text), "workset")
    check = Checker()
    check.ordering("dijkstra", raw, run.linearization, run.sssp.parent, run.sssp_arcs)
    assert check.failed == 0
    lin = list(run.linearization)
    lin[1], lin[-1] = lin[-1], lin[1]  # the source stays first; distances differ
    check.ordering("swapped", raw, lin, run.sssp.parent, run.sssp_arcs)
    assert check.failed / check.attempted > 0


def test_pipeline_checked_and_loose_tree_arc_fails():
    raw = workloads.dense(random.Random(1), 4)
    p = run_pipeline(parse_graph(raw.text))
    check = Checker()
    check.ordering("pipeline", raw, p.linearization, p.tree.parent, p.tree_arc)
    assert check.failed == 0
    # point one extra vertex at a cross arc from the wrong path vertex
    v = raw.n - 1
    loose = next(i for i, (u, h) in enumerate(zip(raw.tails, raw.heads))
                 if h == v and i != p.tree_arc[v])
    parent, arcs = list(p.tree.parent), list(p.tree_arc)
    parent[v], arcs[v] = raw.tails[loose], loose
    check.ordering("loose", raw, p.linearization, parent, arcs)
    assert check.failed == 1


def test_churn_replay_matches_sorted_replay_on_every_queue():
    trace = workloads.ChurnTrace(random.Random(2), 3000, (500, 500), 300)
    check = Checker()
    p = workloads.Pass(None, check)
    p.churn(trace)
    assert check.failed == 0 and check.attempted == 7  # 4 replays, pipeline, 2 windows
    assert trace.expected and trace.star.n == 301


def test_traced_pass_repeats_counts_and_emits_every_layer():
    raw = small_graph(3)
    untraced = workloads.Pass(None, Checker())
    untraced.graph(raw, audit=True)
    tr = Tracer()
    tr.install()
    try:
        traced = workloads.Pass(tr, Checker())
        traced.graph(raw, audit=True)
    finally:
        tr.uninstall()
    assert traced.calls == untraced.calls
    assert traced.check.failed == 0
    layers = per_layer(tr, traced, 1.0, 2.0, None)
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]}
    assert layers["workset.extract_cmp"] > 0 and layers["trace_overhead"] == 2.0
    # wrappers are gone again: a fresh run is not traced
    before = len(tr.name)
    run_dijkstra(parse_graph(raw.text), "workset")
    assert len(tr.name) == before


def test_bound_report_violations_count_as_failures(monkeypatch):
    real = workloads.bound_report

    def two_violations(run, g):
        rep = real(run, g)
        rep.violations += ["injected 1", "injected 2"]
        return rep
    monkeypatch.setattr(workloads, "bound_report", two_violations)
    p = workloads.Pass(None, Checker())
    p.graph(small_graph(4), audit=True)
    # four Dijkstras and the pipeline pass; two of four inequalities fail
    assert (p.check.attempted, p.check.failed) == (9, 2)


def test_untraced_times_are_scaled_to_reference_speed():
    raw = small_graph(5)
    p = workloads.Pass(None, Checker())
    p.graph(raw, audit=False)
    assert p.times.keys() == p.scaled.keys()
    for k, measured in p.times.items():
        assert len(p.scaled[k]) == len(measured)
        assert all(s > 0 for s in p.scaled[k])
    tr = Tracer()
    tr.install()
    try:
        traced = workloads.Pass(tr, Checker())
        traced.graph(raw, audit=False)
    finally:
        tr.uninstall()
    assert traced.times and not traced.scaled
