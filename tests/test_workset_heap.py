import math
import random

import pytest

from distorder.dijkstra import run_dijkstra
from distorder.errors import ContractViolation, EmptyHeapError
from distorder.graph_core import gen_broom, gen_family
from distorder.optimality_audit import working_set_sizes
from distorder.weights import WeightArena
from distorder.workset_heap import CAPS, WorkSetHeap

from helpers import SortedReplayOracle, run_workset_trace


def test_basic_insert_find_extract():
    a = WeightArena()
    h = WorkSetHeap(a)
    for i, v in enumerate((5, 3, 8)):
        h.insert(a.intern(v), i)
    assert h.find_min()[1] == 1
    assert h.extract_min()[1] == 1
    assert len(h) == 2
    assert h.max_rank() <= 1


def test_empty_heap_errors():
    h = WorkSetHeap(WeightArena())
    with pytest.raises(EmptyHeapError):
        h.extract_min()
    with pytest.raises(EmptyHeapError):
        h.find_min()


def test_seven_inserts_occupy_rank_two():
    # caps are 2, 4, 16, ...: the 7th insert must cascade into rank 2
    a = WeightArena()
    h = WorkSetHeap(a)
    for i in range(7):
        h.insert(a.intern(100 + i), i)
    sizes = h.rank_sizes()
    assert len(sizes) >= 3 and sizes[2] > 0
    assert all(s <= cap for s, cap in zip(sizes, CAPS))


def test_insertion_times_strictly_increase():
    a = WeightArena()
    h = WorkSetHeap(a)
    toks = [h.insert(a.intern(9), i) for i in range(20)]
    times = [t for (_nid, t) in toks]
    assert times == sorted(times) and len(set(times)) == 20
    h.extract_min()
    tok = h.insert(a.intern(1), 99)
    assert tok[1] > times[-1]


def test_lifo_pattern_small_working_sets_and_cheap_extracts():
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    intervals = {}
    h.insert(a.intern(10**6), 0)
    intervals[0] = [h._next_time, None]
    events = 1
    per_extract = []
    for i in range(1, 400):
        h.insert(a.intern(10**6 - i), i)
        events += 1
        intervals[i] = [events, None]
        before = a.cmp_count
        _k, got = h.extract_min()
        events += 1
        intervals[got][1] = events
        per_extract.append(a.cmp_count - before)
        assert got == i  # newest is cheapest by construction
    # close the very first element
    before = a.cmp_count
    _k, got = h.extract_min()
    events += 1
    intervals[got][1] = events
    per_extract.append(a.cmp_count - before)
    ivs = [tuple(intervals[i]) for i in sorted(intervals)]
    sizes = working_set_sizes(ivs)
    assert max(sizes) <= 2
    assert max(per_extract) <= 8  # O(1) measured inner cost


def test_matches_oracle_random_trace():
    rng = random.Random(2)
    a = WeightArena()
    h = WorkSetHeap(a)
    out, expect = run_workset_trace(a, h, rng, 20_000)
    assert out == expect


def test_invariants_after_every_operation():
    rng = random.Random(3)
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    out, expect = run_workset_trace(
        a, h, rng, 900, per_op=lambda heap: heap.check_invariants())
    assert out == expect


def test_decrease_below_global_min_and_stale_handles():
    a = WeightArena()
    h = WorkSetHeap(a)
    toks = {}
    for i, v in enumerate((50, 40, 60, 70, 30)):
        toks[i] = h.insert(a.intern(v), i)
    h.decrease_key(toks[3], a.intern(1))
    assert h.find_min()[1] == 3  # find-min tracks the decrease immediately
    assert h.extract_min()[1] == 3
    with pytest.raises(ContractViolation):
        h.decrease_key(toks[3], a.intern(0))  # already extracted
    # decrease to an equal key leaves the minimum unchanged
    cur = h.find_min()[1]
    h.decrease_key(toks[0], a.intern(50))
    assert h.find_min()[1] == cur


def test_u_lookup_matches_shadow_rank_map():
    # after a pile of inserts/extracts, the rank-slot lookup on each live
    # element's time returns the heap actually holding it
    rng = random.Random(5)
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    live = {}
    for i in range(600):
        if rng.random() < 0.6 or not live:
            tok = h.insert(a.intern(rng.randrange(10**6)), i)
            live[i] = tok
        else:
            _k, got = h.extract_min()
            live.pop(got, None)
    shadow = {}
    for r, H in enumerate(h._heaps):
        if H is not None:
            for nid in H.iter_nodes():
                shadow[h._pool.time[nid]] = r
    for i, (nid, t) in live.items():
        assert h._heap_at(t).rank == shadow[t]
    h.check_invariants()


def test_working_set_cost_bound_moderate_trace():
    # total extraction comparisons <= 32 * sum(1 + log2 |W_x|), oracle sizes
    rng = random.Random(8)
    a = WeightArena()
    h = WorkSetHeap(a)
    intervals = []
    extracted = []
    events = 0
    ident = 0
    live = {}
    for _ in range(20_000):
        roll = rng.random()
        if roll < 0.5 or not len(h):
            tok = h.insert(a.intern(rng.randrange(1 << 40)), ident)
            events += 1
            live[ident] = events
            intervals.append((events, None))
            ident += 1
        else:
            _k, got = h.extract_min()
            events += 1
            intervals[got] = (intervals[got][0], events)
            extracted.append((got, h.last_extract_rank))
    for i, (l, r) in enumerate(intervals):
        if r is None:
            intervals[i] = (l, events + 1 + i)  # close leftovers after the end
    sizes = working_set_sizes(intervals)
    budget = sum(1 + math.log2(sizes[v]) for v, _r in extracted)
    assert h.extract_comparisons <= 32 * budget
    # the medium-working-set floor, per extraction
    for v, r in extracted:
        if r >= 2:
            assert sizes[v] >= 2 ** (2 ** (r - 2)), (v, r, sizes[v])


def test_heavily_tied_keys_match_oracle():
    # keys drawn from a tiny range: almost every comparison ties, so the
    # vertex-id order decides everything, across ranks included
    rng = random.Random(21)
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    out, expect = run_workset_trace(a, h, rng, 15_000, key_range=8)
    assert out == expect
    h.check_invariants()


def test_survives_interleaved_patterns():
    # sorted, reverse-sorted and a saw pattern against the oracle
    a = WeightArena()
    for pattern in ("sorted", "reverse", "saw"):
        h = WorkSetHeap(a)
        oracle = SortedReplayOracle()
        n = 3000
        if pattern == "sorted":
            keys = list(range(n))
        elif pattern == "reverse":
            keys = list(range(n, 0, -1))
        else:
            keys = [(-1) ** i * i + n for i in range(n)]
        for i, v in enumerate(keys):
            h.insert(a.intern(v), i)
            oracle.insert(v, i)
        for _ in range(n):
            assert h.extract_min()[1] == oracle.extract_min()[1]


def test_pinned_comparison_counts():
    # exact workset comparison counts on fixed inputs; a change to the rank
    # bookkeeping that moves any of them changes what the heap pays
    def dijkstra_cmp(g):
        return run_dijkstra(g, "workset").comparisons

    assert dijkstra_cmp(gen_family("random_digraph", 2000, seed=0)) == 40692
    assert dijkstra_cmp(gen_broom(44, 44 * 44 - 44 - 1, seed=0)) == 6016
    assert dijkstra_cmp(gen_broom(45, 45 * 45 - 45 - 1, seed=0)) == 2315
    a = WeightArena()
    h = WorkSetHeap(a)
    out, expect = run_workset_trace(a, h, random.Random(0), 20_000)
    assert out == expect
    assert a.cmp_count == 72673
