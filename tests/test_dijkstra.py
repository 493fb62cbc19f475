import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from distorder import dijkstra as dijkstra_module
from distorder.base_heap import FibonacciQueue
from distorder.comparison_optimal import run_pipeline
from distorder.dijkstra import HEAP_KINDS, make_queue, run_dijkstra
from distorder.errors import ContractViolation
from distorder.graph_core import gen_broom, gen_dense, gen_family, parse_graph
from distorder.optimality_audit import working_set_sizes
from distorder.weights import INFINITY, WeightArena
from distorder.workset_heap import WorkSetHeap

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
    assert "rank_extracts 4" in lines
    assert lines[-1].startswith("linearization 0 1 2 3")


def test_rank_extracts_split_every_extract_by_rank():
    # the working-set heap counts where each extract came from; on a random
    # digraph most come from the top rank, whose extracts are the cheap ones
    g = gen_family("random_digraph", 2000, seed=0)
    run = run_dijkstra(g)
    assert sum(run.rank_extracts) == g.n
    assert run.rank_extracts == [8, 13, 44, 554, 1381]
    assert "rank_extracts 8 13 44 554 1381" in run.report_lines()
    # a replayed trace agrees with the extract ranks read one at a time
    arena = WeightArena()
    q = WorkSetHeap(arena)
    rng = random.Random(3)
    ranks = [0] * 8
    for step in range(3000):
        if len(q) and rng.random() < 0.45:
            q.extract_min()
            ranks[q.last_extract_rank] += 1
        else:
            q.insert(arena.intern(rng.randrange(10**6)), step)
    assert q.rank_extracts == ranks and sum(ranks) > 1000
    for kind in HEAP_KINDS[1:]:
        other = run_dijkstra(gen_family("random_digraph", 200, seed=0), kind)
        assert other.rank_extracts == []
        assert not any(x.startswith("rank_extracts") for x in other.report_lines())


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


def _storage(q):
    """Lengths of the per-element lists a queue grows on insert."""
    if isinstance(q, WorkSetHeap):
        return len(q._pool.key)  # a node pool grows all its lists at once
    if isinstance(q, FibonacciQueue):
        return len(q._heap.pool.key)
    return {name: len(lst) for name, lst in vars(q).items()
            if isinstance(lst, list)}


def _drain(q, oracle):
    while len(oracle):
        assert q.extract_min()[1] == oracle.extract_min()[1]
    assert len(q) == 0


@pytest.mark.parametrize("size", [0, 3])
@pytest.mark.parametrize("bad", ["foreign", 2.5, None])
@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_foreign_insert_raises_and_keeps_the_queue(kind, bad, size):
    # a key the arena did not issue is refused before the queue changes,
    # whether or not a comparison would have met it
    arena = WeightArena()
    q = make_queue(kind, arena)
    oracle = SortedReplayOracle()
    for ident, v in enumerate((5, 3, 8)[:size]):
        q.insert(arena.intern(v), ident)
        oracle.insert(v, ident)
    slots = _storage(q)
    key = WeightArena().intern(1) if bad == "foreign" else bad
    with pytest.raises(ContractViolation):
        q.insert(key, size)
    assert len(q) == size and _storage(q) == slots
    for ident, v in ((4, 4), (5, 9), (6, 1)):
        q.insert(arena.intern(v), ident)
        oracle.insert(v, ident)
    _drain(q, oracle)


@pytest.mark.parametrize("bad", ["foreign", 2.5, None])
@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_bad_decrease_key_raises_and_keeps_the_queue(kind, bad):
    # the key is checked before the first comparison, which meets a parent
    # or the root rather than the element's own key
    arena = WeightArena()
    q = make_queue(kind, arena)
    oracle = SortedReplayOracle()
    token = {}
    for ident, v in enumerate((5, 3, 8)):
        token[ident] = q.insert(arena.intern(v), ident)
        oracle.insert(v, ident)
    key = WeightArena().intern(1) if bad == "foreign" else bad
    for ident in token:
        with pytest.raises(ContractViolation):
            q.decrease_key(token[ident], key)
        assert len(q) == 3
    q.decrease_key(token[2], arena.intern(4))
    oracle.decrease(2, 4)
    _drain(q, oracle)


def _guard_target(q, kind, path, tokens, live):
    """A live vertex whose decrease-key takes the named path."""
    for v in live:
        if kind == "binary":
            fits = (q._pos[tokens[v]] == 0) == (path == "root")
        elif kind == "pairing":
            fits = (q._root == tokens[v]) == (path == "root")
        elif kind == "workset":
            fits = (q._rank_at(tokens[v][1]) > 0) == (path == "higher-rank")
        else:
            heap = q._heap
            nid = tokens[v][0]
            on_root_ring = heap.pool.parent[nid] == -1
            fits = {"child": not on_root_ring,
                    "root": on_root_ring and nid != heap.min,
                    "min": nid == heap.min}[path]
        if fits:
            return v
    raise AssertionError(f"no {kind} element takes the {path} path")


_GUARD_PATHS = [
    ("fibonacci", "child"), ("fibonacci", "root"), ("fibonacci", "min"),
    ("binary", "root"), ("binary", "non-root"),
    ("pairing", "root"), ("pairing", "non-root"),
    ("workset", "rank-0"), ("workset", "higher-rank"),
]


@pytest.mark.parametrize("kind, path", _GUARD_PATHS,
                         ids=[f"{k}-{p}" for k, p in _GUARD_PATHS])
def test_increase_is_refused_before_any_write_on_every_path(kind, path):
    # 8 inserts and one extract leave every path reachable: Fibonacci trees
    # of degree 2, 1 and 0, binary and pairing roots with descendants, and
    # workset elements in rank 0 and above it.  An increase must raise
    # whether or not the element would move, and must leave its key alone.
    arena = WeightArena(audit=True, mask_seed=3)
    q = make_queue(kind, arena)
    oracle = SortedReplayOracle()
    values = [6, 2, 9, 4, 7, 1, 8, 5]
    tokens = []
    for ident, v in enumerate(values):
        tokens.append(q.insert(arena.intern(v), ident))
        oracle.insert(v, ident)
    gone = q.extract_min()[1]
    assert gone == oracle.extract_min()[1]
    live = [v for v in range(len(values)) if v != gone]
    ident = _guard_target(q, kind, path, tokens, live)
    with pytest.raises(ContractViolation, match="would increase"):
        q.decrease_key(tokens[ident], arena.intern(values[ident] + 10))
    assert len(q) == 7
    while len(oracle):
        key, got = q.extract_min()
        v, want = oracle.extract_min()
        assert (got, arena.audit_value(key)) == (want, v)
    assert len(q) == 0


@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_foreign_decrease_of_an_infinite_key_raises_and_keeps_the_queue(kind):
    arena = WeightArena()
    q = make_queue(kind, arena)
    oracle = SortedReplayOracle()
    for ident, v in ((0, 5), (1, 3)):
        q.insert(arena.intern(v), ident)
        oracle.insert(v, ident)
    token = q.insert(INFINITY, 2)
    oracle.insert(math.inf, 2)
    with pytest.raises(ContractViolation):
        q.decrease_key(token, WeightArena().intern(0))
    q.insert(arena.intern(4), 3)
    oracle.insert(4, 3)
    q.decrease_key(token, arena.intern(4))  # ties vertex 3, goes first
    oracle.decrease(2, 4)
    _drain(q, oracle)


# a queue program: ("insert", value, vertex), ("decrease", live pick, amount)
# or ("extract",); value None is +inf, and a decrease from +inf goes to
# amount (None stays +inf), from a finite value v to max(v - amount, 0).
# Vertices are drawn, not counted up, so a later +inf key can win a tie.
_value = st.one_of(st.none(), st.integers(0, 12))
_queue_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), _value, st.integers(0, 40)),
    st.tuples(st.just("decrease"), st.integers(0, 10**6), _value),
    st.tuples(st.just("extract")),
), max_size=60)


@given(_queue_ops)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_infinite_keys_follow_the_sorted_replay_oracle(program):
    # finite and +inf keys mixed, several +inf keys alive at once (ties by
    # vertex), decreases from +inf, and extractions down to empty
    for kind in HEAP_KINDS:
        arena = WeightArena(audit=True, mask_seed=1)
        q = make_queue(kind, arena)
        oracle = SortedReplayOracle()
        token, value = {}, {}

        def handle(v):
            return INFINITY if v == math.inf else arena.intern(v)

        def extract():
            key, got = q.extract_min()
            v, want = oracle.extract_min()
            assert got == want
            assert arena.audit_value(key) == (None if v == math.inf else v)
            del value[got]

        for op in program:
            if op[0] == "insert":
                ident = op[2]
                while ident in token:  # each vertex is inserted once
                    ident += 41
                v = math.inf if op[1] is None else op[1]
                token[ident] = q.insert(handle(v), ident)
                oracle.insert(v, ident)
                value[ident] = v
            elif op[0] == "decrease" and value:
                ident = sorted(value)[op[1] % len(value)]
                old = value[ident]
                if old == math.inf:
                    v = math.inf if op[2] is None else op[2]
                else:
                    v = max(old - (op[2] or 0), 0)
                q.decrease_key(token[ident], handle(v))
                oracle.decrease(ident, v)
                value[ident] = v
            elif op[0] == "extract" and value:
                extract()
            assert len(q) == len(oracle)
            if kind == "workset":
                q.check_invariants()
        while value:
            extract()
        assert len(q) == 0


def test_no_free_comparison_reaches_the_arena(monkeypatch):
    # Dijkstra hands its queues no +inf key, and MinKeeper settles its EMPTY
    # entries' +inf comparisons itself, so the arena, which reaches one only
    # through a caught IndexError, never sees one
    calls = []
    special = WeightArena._compare_special

    def counted(self, a, b):
        calls.append((a, b))
        return special(self, a, b)

    monkeypatch.setattr(WeightArena, "_compare_special", counted)
    makers = [lambda: gen_broom(44, 44 * 44 - 44 - 1, seed=0),
              lambda: gen_broom(45, 45 * 45 - 45 - 1, seed=0),
              lambda: gen_family("random_digraph", 2000, seed=0),
              lambda: gen_dense(8, seed=0),
              lambda: gen_family("star", 500, seed=0)]
    for make in makers:
        for kind in HEAP_KINDS:
            run_dijkstra(make(), kind)
        run_pipeline(make())
    assert calls == []
    a = WeightArena()
    a.compare(a.zero(), INFINITY)  # the guard does see a free comparison
    assert len(calls) == 1


@pytest.mark.parametrize("make, pinned", [
    # every weight a fraction; the arena scales by one 23-bit denominator
    (lambda: gen_dense(16, seed=0),
     {"workset": (12641, 4351), "fibonacci": (15435, 4351),
      "binary": (16481, 4351), "pairing": (16380, 4351),
      "pipeline": (4191, 4604)}),
    # integer spokes, rim arcs of 1/2
    (lambda: gen_family("fan", 200, seed=0),
     {"workset": (2498, 397), "fibonacci": (1508, 397),
      "binary": (2655, 397), "pairing": (1211, 397),
      "pipeline": (2498, 397)}),
    # a common denominator past the arena's bound: unscaled cells
    (prime_denominator_graph,
     {"workset": (32409, 3989), "fibonacci": (29279, 3989),
      "binary": (38654, 3989), "pairing": (31467, 3989),
      "pipeline": (32377, 4569)}),
    # integer weights: the baselines next to the working-set heap
    (lambda: gen_family("random_digraph", 2000, seed=0),
     {"workset": (32447, 4214), "fibonacci": (29228, 4214),
      "binary": (38424, 4214), "pairing": (31072, 4214),
      "pipeline": (32027, 4745)}),
    (lambda: gen_broom(44, 44 * 44 - 44 - 1, seed=0),
     {"workset": (2190, 1935), "fibonacci": (5939, 1935),
      "binary": (26829, 1935), "pairing": (2162, 1935),
      "pipeline": (279, 1935)}),
    (lambda: gen_broom(45, 45 * 45 - 45 - 1, seed=0),
     {"workset": (2266, 2024), "fibonacci": (8182, 2024),
      "binary": (26100, 2024), "pairing": (2267, 2024),
      "pipeline": (284, 2024)}),
], ids=["dense-16", "fan-200", "prime-denominators", "random-digraph-2000",
        "broom-44", "broom-45"])
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


class _SpyQueue:
    """Forwards to a real queue and records every key handed to it: inserted
    keys, and (previous key, new key) pairs for decreases."""

    def __init__(self, q, inserted, decreased):
        self._q = q
        self._inserted = inserted
        self._decreased = decreased
        self._key = {}

    def __len__(self):
        return len(self._q)

    def __getattr__(self, name):
        return getattr(self._q, name)

    def insert(self, key, vertex):
        self._inserted.append(key)
        token = self._q.insert(key, vertex)
        self._key[token] = key
        return token

    def decrease_key(self, token, key):
        self._decreased.append((self._key[token], key))
        self._key[token] = key
        self._q.decrease_key(token, key)


def _spy_on_queues(monkeypatch, inserted, decreased):
    real = dijkstra_module.make_queue
    monkeypatch.setattr(
        dijkstra_module, "make_queue",
        lambda k, arena: _SpyQueue(real(k, arena), inserted, decreased))


@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_each_vertex_is_inserted_once_with_a_finite_key(kind, monkeypatch):
    makers = [lambda: gen_broom(44, 1891, seed=0),
              lambda: gen_family("random_digraph", 200, seed=0)]
    plain = [run_dijkstra(make(), kind).comparisons for make in makers]
    inserted, decreased = [], []
    _spy_on_queues(monkeypatch, inserted, decreased)
    for make, comparisons in zip(makers, plain):
        inserted.clear()
        decreased.clear()
        g = make()
        run = run_dijkstra(g, kind)
        assert len(inserted) == g.n
        assert INFINITY not in inserted
        assert all(new != INFINITY for _old, new in decreased)
        assert run.comparisons == comparisons


@pytest.mark.parametrize("kind", HEAP_KINDS)
def test_every_decrease_key_strictly_lowers_the_key(kind, monkeypatch):
    # the relaxation's own comparison decides; a queue never sees a decrease
    # that leaves the key as it was, and spying costs no comparison
    makers = [lambda: gen_family("random_digraph", 200, seed=0, audit=True),
              lambda: gen_dense(4, seed=0, audit=True)]
    plain = [run_dijkstra(make(), kind).comparisons for make in makers]
    inserted, decreased = [], []
    _spy_on_queues(monkeypatch, inserted, decreased)
    for make, comparisons in zip(makers, plain):
        decreased.clear()
        g = make()
        run = run_dijkstra(g, kind)
        value = g.arena.audit_value
        assert decreased
        assert all(value(new) < value(old) for old, new in decreased)
        assert run.comparisons == comparisons


def _swap_first_strict_pair(g, run):
    """Swap two neighbours of the linearization whose distances differ."""
    d = bellman_ford(g)
    lin = run.linearization
    i = next(i for i in range(len(lin) - 1) if d[lin[i]] < d[lin[i + 1]])
    lin[i], lin[i + 1] = lin[i + 1], lin[i]


def test_audit_order_check_raises_on_a_swapped_linearization():
    g = gen_family("random_digraph", 50, seed=0, audit=True)
    run = run_dijkstra(g)
    dijkstra_module._verify_order(g.arena, run)  # the real order passes
    _swap_first_strict_pair(g, run)
    with pytest.raises(AssertionError, match="out of distance order"):
        dijkstra_module._verify_order(g.arena, run)


def test_audit_order_check_survives_optimize_flag():
    # python -O strips bare asserts; the check must still raise
    code = (
        "import sys\n"
        "from distorder.dijkstra import _verify_order, run_dijkstra\n"
        "from distorder.graph_core import gen_family\n"
        "g = gen_family('star', 20, seed=1, audit=True)\n"
        "run = run_dijkstra(g)\n"
        "lin = run.linearization\n"
        "lin[1], lin[2] = lin[2], lin[1]\n"
        "try:\n"
        "    _verify_order(g.arena, run)\n"
        "except AssertionError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(dijkstra_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
