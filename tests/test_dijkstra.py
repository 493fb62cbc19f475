import math
import random

import pytest

from distorder.comparison_optimal import run_pipeline
from distorder.dijkstra import HEAP_KINDS, make_queue, run_dijkstra
from distorder.errors import ContractViolation
from distorder.graph_core import gen_broom, gen_dense, gen_family, parse_graph
from distorder.optimality_audit import working_set_sizes
from distorder.weights import WeightArena

from helpers import SortedReplayOracle, bellman_ford, prime_denominator_graph


def test_path_run_shape():
    g = gen_family("path", 5, audit=True)
    run = run_dijkstra(g, "workset")
    assert run.linearization == [0, 1, 2, 3, 4]
    assert run.sssp.parent == run.explore.parent == [-1, 0, 1, 2, 3]


def test_fan_tree_separation():
    n = 16
    g = gen_family("fan", n, seed=0, audit=True)
    run = run_dijkstra(g, "workset")
    assert all(p == 0 for v, p in enumerate(run.explore.parent) if v != 0)
    assert run.sssp.parent[1] == 0
    assert all(run.sssp.parent[v] == v - 1 for v in range(2, n))


def test_random_digraphs_match_bellman_ford():
    rng = random.Random(4)
    for trial in range(120):
        n = rng.randrange(2, 70)
        g = gen_family("random_digraph", n, seed=trial, audit=True)
        run = run_dijkstra(g, "workset")
        d = bellman_ford(g)
        got = [g.arena.audit_value(h) for h in run.dist]
        assert got == d
        lv = [g.arena.audit_value(run.dist[v]) for v in run.linearization]
        assert lv == sorted(lv)
        assert sorted(run.linearization) == list(range(n))
        run.sssp.validate()
        run.explore.validate()


def test_heap_kind_independence_under_distinct_distances():
    rng = random.Random(9)
    done = 0
    trial = 0
    while done < 25:
        trial += 1
        n = rng.randrange(3, 40)
        g = gen_family("random_digraph", n, seed=1000 + trial, audit=True)
        d = bellman_ford(g)
        if len(set(d)) != n:
            continue  # only the distinct-distance regime is heap-independent
        runs = [run_dijkstra(g, kind) for kind in HEAP_KINDS]
        assert all(r.linearization == runs[0].linearization for r in runs)
        done += 1


def test_trace_intervals_are_valid_and_nested():
    rng = random.Random(2)
    for trial in range(40):
        g = gen_family("random_digraph", rng.randrange(2, 60),
                       seed=200 + trial, audit=True)
        run = run_dijkstra(g, "workset")
        ivs = run.intervals
        ends = [t for iv in ivs for t in iv]
        assert len(set(ends)) == 2 * g.n  # all endpoints distinct
        assert all(l < r for l, r in ivs)
        # a vertex enters the queue only after its explore parent leaves it
        for v, p in enumerate(run.explore.parent):
            if p >= 0:
                assert ivs[v][0] > ivs[p][1]


def test_counters_deterministic_and_per_run():
    g1 = gen_family("random_digraph", 30, seed=5)
    g2 = gen_family("random_digraph", 30, seed=5)
    r1 = run_dijkstra(g1, "workset")
    r2 = run_dijkstra(g2, "workset")
    assert (r1.comparisons, r1.additions) == (r2.comparisons, r2.additions)
    # a second run on the same graph reports only its own deltas
    r3 = run_dijkstra(g1, "workset")
    assert r3.comparisons == r1.comparisons


def test_workset_extraction_comparisons_bounded_by_working_sets():
    rng = random.Random(6)
    for trial in range(25):
        g = gen_family("random_digraph", rng.randrange(3, 80),
                       seed=300 + trial, audit=True)
        run = run_dijkstra(g, "workset")
        sizes = working_set_sizes(run.intervals)
        budget = sum(1 + math.log2(w) for w in sizes)
        assert run.extract_comparisons <= 32 * budget


def test_unit_weight_ties_stay_correct_across_heaps():
    # unit weights create masses of equal distances; every heap kind must
    # still produce a distance-sorted order agreeing with Bellman-Ford
    rng = random.Random(33)
    for trial in range(20):
        g = gen_family("random_dag", rng.randrange(3, 50), seed=trial, audit=True)
        # rebuild with unit weights through the parser for exact ties
        from distorder.graph_core import parse_graph
        lines = [f"{g.n} {g.m} 0 directed"]
        lines += [f"{u} {v} 1" for u, v in zip(g.tails, g.heads)]
        gu = parse_graph("\n".join(lines) + "\n", audit=True)
        d = bellman_ford(gu)
        for kind in HEAP_KINDS:
            run = run_dijkstra(gu, kind)
            got = [gu.arena.audit_value(h) for h in run.dist]
            assert got == d
            lv = [d[v] for v in run.linearization]
            assert lv == sorted(lv)


def test_parallel_edges_and_self_loops():
    g = parse_graph("3 4 0 directed\n0 1 5\n0 1 2\n1 1 7\n1 2 1\n", audit=True)
    run = run_dijkstra(g, "workset")
    d = [g.arena.audit_value(h) for h in run.dist]
    assert d == [0, 2, 3]


def test_report_lines():
    g = gen_family("path", 4)
    run = run_dijkstra(g)
    lines = run.report_lines()
    assert lines[0] == "heap workset"
    assert lines[-1].startswith("linearization 0 1 2 3")


def test_broom_binary_vs_workset_comparison_shape():
    # binary pays ~log t per path step; the working-set heap pays O(1)
    t, r = 48, 2000
    g1 = gen_broom(t, r, seed=1)
    g2 = gen_broom(t, r, seed=1)
    ws = run_dijkstra(g1, "workset")
    bi = run_dijkstra(g2, "binary")
    n = g1.n
    assert ws.comparisons <= 12 * n
    assert bi.comparisons >= n * math.log2(t) / 2


@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_stale_and_foreign_handles_raise_and_keep_the_queue(kind):
    arena = WeightArena()
    q = make_queue(kind, arena)
    oracle = SortedReplayOracle()
    values = random.Random(6).sample(range(1, 1000), 12)
    token = {}

    def insert(ident):
        token[ident] = q.insert(arena.intern(values[ident]), ident)
        oracle.insert(values[ident], ident)

    def extract():
        _key, got = q.extract_min()
        assert got == oracle.extract_min()[1]
        return got

    for ident in range(6):
        insert(ident)
    gone = [extract(), extract()]
    with pytest.raises(ContractViolation):
        q.decrease_key(token[gone[0]], arena.zero())
    for ident in range(6, 12):  # may reuse the extracted elements' nodes
        insert(ident)
    for ident in gone:
        with pytest.raises(ContractViolation):
            q.decrease_key(token[ident], arena.zero())
    live = max(token, key=values.__getitem__)
    with pytest.raises(ContractViolation):
        q.decrease_key(token[live], WeightArena().intern(0))
    q.decrease_key(token[live], arena.intern(0))
    oracle.decrease(live, 0)
    while len(oracle):
        extract()
    assert len(q) == 0


@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_foreign_insert_raises_and_keeps_the_queue(kind):
    arena = WeightArena()
    q = make_queue(kind, arena)
    oracle = SortedReplayOracle()
    for ident, v in enumerate((5, 3, 8)):
        q.insert(arena.intern(v), ident)
        oracle.insert(v, ident)
    with pytest.raises(ContractViolation):
        q.insert(WeightArena().intern(1), 3)
    for ident, v in ((4, 4), (5, 9), (6, 1)):
        q.insert(arena.intern(v), ident)
        oracle.insert(v, ident)
    assert len(q) == len(oracle)
    while len(oracle):
        assert q.extract_min()[1] == oracle.extract_min()[1]
    assert len(q) == 0


@pytest.mark.parametrize("make, pinned", [
    # every weight a fraction; the arena scales by one 23-bit denominator
    (lambda: gen_dense(16, seed=0),
     {"workset": (15260, 4351), "fibonacci": (17877, 4351),
      "binary": (19271, 4351), "pairing": (16382, 4351),
      "pipeline": (4218, 4621)}),
    # integer spokes, rim arcs of 1/2
    (lambda: gen_family("fan", 200, seed=0),
     {"workset": (3153, 397), "fibonacci": (1508, 397),
      "binary": (2655, 397), "pairing": (1211, 397),
      "pipeline": (3153, 596)}),
    # a common denominator past the arena's bound: unscaled cells
    (prime_denominator_graph,
     {"workset": (39806, 3989), "fibonacci": (31866, 3989),
      "binary": (41321, 3989), "pairing": (35645, 3989),
      "pipeline": (39829, 6461)}),
], ids=["dense-16", "fan-200", "prime-denominators"])
def test_pinned_counts_on_rational_weights(make, pinned):
    # exact (comparisons, additions); how the arena stores a weight must not
    # move them
    got = {}
    for kind in HEAP_KINDS:
        run = run_dijkstra(make(), kind)
        got[kind] = (run.comparisons, run.additions)
    res = run_pipeline(make())
    got["pipeline"] = (res.comparisons, res.additions)
    assert got == pinned
