import math
import random
import sys
from collections import Counter

import pytest

from distorder import workset_heap
from distorder.aux_structures import EMPTY, MinKeeper
from distorder.base_heap import FibonacciHeap
from distorder.dijkstra import run_dijkstra
from distorder.errors import ContractViolation, EmptyHeapError
from distorder.graph_core import gen_broom, gen_family
from distorder.optimality_audit import working_set_sizes
from distorder.weights import INFINITY, WeightArena
from distorder.workset_heap import CAPS, RESIDUE_STREAK, WorkSetHeap

from helpers import (SortedReplayOracle, check_workset, fibonacci_rings,
                     key_value, rank_sizes, run_workset_trace)


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
    sizes = rank_sizes(h)
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
    out, expect = run_workset_trace(a, h, rng, 900, per_op=check_workset)
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
        for nid in fibonacci_rings(H)[1]:
            shadow[h._pool.time[nid]] = r
    for i, (nid, t) in live.items():
        assert h._rank_at(t) == shadow[t]
    check_workset(h)


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
            r = h._M.find_min()  # the rank the extract takes from
            _k, got = h.extract_min()
            events += 1
            intervals[got] = (intervals[got][0], events)
            extracted.append((got, r))
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
    check_workset(h)


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

    assert dijkstra_cmp(gen_family("random_digraph", 2000, seed=0)) == 32447
    assert dijkstra_cmp(gen_broom(44, 44 * 44 - 44 - 1, seed=0)) == 2190
    assert dijkstra_cmp(gen_broom(45, 45 * 45 - 45 - 1, seed=0)) == 2266
    a = WeightArena()
    h = WorkSetHeap(a)
    out, expect = run_workset_trace(a, h, random.Random(0), 20_000)
    assert out == expect
    assert a.cmp_count == 60788


@pytest.mark.parametrize("seed", range(3))
def test_bursts_and_drains_keep_invariants_and_cheap_inserts(seed):
    # insert bursts deep enough for rank 3, drains that fuse the top pair,
    # +inf keys, tied keys and drawn vertex ids; every insert spends at most
    # two comparisons, and the order matches the sorted replay throughout
    rng = random.Random(seed)
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    oracle = SortedReplayOracle()
    ids = rng.sample(range(10**6), 4000)
    live = {}
    top_ranks = []
    fuses = 0
    for _ in range(40):
        for _ in range(rng.randrange(1, 120)):
            inf = rng.random() < 0.15
            v = math.inf if inf else rng.randrange(12)
            vid = ids.pop()
            before = a.cmp_count
            tok = h.insert(INFINITY if inf else a.intern(v), vid)
            assert a.cmp_count - before <= 2
            oracle.insert(v, vid)
            live[vid] = (tok, v)
            check_workset(h)
        top_ranks.append(h.max_rank())
        for vid in rng.sample(sorted(live), len(live) // 8):
            tok, v = live[vid]
            nv = rng.randrange(12) if v == math.inf else rng.randrange(v + 1)
            h.decrease_key(tok, a.intern(nv))
            live[vid] = (tok, nv)
            oracle.decrease(vid, nv)
            check_workset(h)
        for _ in range(rng.randrange(len(h) + 1)):
            R = h.max_rank()
            top_size = rank_sizes(h)[R]
            key, vid = h.extract_min()
            want_v, want = oracle.extract_min()
            assert vid == want
            assert key_value(a, key) == want_v
            del live[vid]
            # one extraction cannot empty a rank of two: a fuse moved it
            fuses += h.max_rank() < R and top_size >= 2
            check_workset(h)
    assert max(top_ranks) >= 3 and fuses > 0


def test_churn_keeps_one_heap_per_rank_slot(monkeypatch):
    # growing and draining stretches: fuses of the top pair into an empty
    # and into a nonempty lower rank, rank 0 emptied and refilled beside
    # older ranks, and decrease-keys on every occupied rank.  Each rank
    # slot keeps its own heap, empty or not, and a carry reuses the heap it
    # leaves empty, so a heap is built only when the slots grow
    made = []

    class CountedHeap(FibonacciHeap):
        __slots__ = ()

        def __init__(self, pool, arena):
            super().__init__(pool, arena)
            made.append(self)

    monkeypatch.setattr(workset_heap, "FibonacciHeap", CountedHeap)
    rng = random.Random(0)
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    oracle = SortedReplayOracle()
    live = {}
    fuses = Counter()
    refills = top = 0
    decreased = set()

    def check():
        assert len(made) == len(h._heaps)
        check_workset(h)

    check()
    for vid in range(3000):
        p_insert = 0.7 if vid // 100 % 2 == 0 else 0.1
        top = max(top, h.max_rank())
        if rng.random() < p_insert or not live:
            refills += len(h) > 0 and rank_sizes(h)[0] == 0
            v = rng.randrange(1000)
            live[vid] = (h.insert(a.intern(v), vid), v)
            oracle.insert(v, vid)
        elif rng.random() < 0.3:
            old = rng.choice(sorted(live))
            tok, v = live[old]
            decreased.add(h._rank_at(tok[1]))
            nv = rng.randrange(v + 1)
            h.decrease_key(tok, a.intern(nv))
            live[old] = (tok, nv)
            oracle.decrease(old, nv)
        else:
            R = h.max_rank()
            r_star = h._M.find_min()
            before = rank_sizes(h)
            before[r_star] -= 1
            key, got = h.extract_min()
            want_v, want = oracle.extract_min()
            assert got == want and key_value(a, key) == want_v
            del live[got]
            if before[R] and not rank_sizes(h)[R]:
                fuses["into nonempty" if before[R - 1] else "into empty"] += 1
        check()
    assert min(fuses["into empty"], fuses["into nonempty"], refills) > 5, (
        fuses, refills)
    assert top >= 3 and decreased == set(range(top + 1))


def fallback_callers(monkeypatch):
    """Count, by calling function, the comparisons the arena settles in its
    free +inf fallback; the caller is two frames up, past ``compare``."""
    callers = Counter()
    special = WeightArena._compare_special

    def traced(self, a, b):
        callers[sys._getframe(2).f_code.co_name] += 1
        return special(self, a, b)

    monkeypatch.setattr(WeightArena, "_compare_special", traced)
    return callers


def test_infinite_keys_are_settled_by_the_arena_fallback(monkeypatch):
    # 15% +inf inserts, decreases from +inf, drains that fuse the top pair
    # and empty the heap: MinKeeper's +inf comparisons reach the arena's
    # free fallback from all three of its comparing methods, and the count
    # is pinned
    callers = fallback_callers(monkeypatch)
    rng = random.Random(21)
    a = WeightArena()
    h = WorkSetHeap(a)
    oracle = SortedReplayOracle()
    live = {}
    vid = 0
    fuses = empties = 0
    for _ in range(60):
        for _ in range(rng.randrange(1, 200)):
            inf = rng.random() < 0.15
            v = math.inf if inf else rng.randrange(1000)
            live[vid] = (h.insert(INFINITY if inf else a.intern(v), vid), v)
            oracle.insert(v, vid)
            vid += 1
        for u in sorted(live):
            tok, v = live[u]
            if v == math.inf and rng.random() < 0.5:
                nv = rng.randrange(1000)
                h.decrease_key(tok, a.intern(nv))
                live[u] = (tok, nv)
                oracle.decrease(u, nv)
        drain = len(h) if rng.random() < 0.3 else rng.randrange(len(h) + 1)
        for _ in range(drain):
            R = h.max_rank()
            top_size = rank_sizes(h)[R]
            _key, got = h.extract_min()
            assert got == oracle.extract_min()[1]
            del live[got]
            # one extraction cannot empty a rank of two: a fuse moved it
            fuses += h.max_rank() < R and top_size >= 2
        empties += not len(h)
    assert fuses and empties
    assert {"set_entry", "decrease", "shift"} <= callers.keys()
    assert a.cmp_count == 59663


def test_decrease_walk_left_of_the_new_run_meets_infinity(monkeypatch):
    # decrease's last loop, which walks the runs left of the decreased
    # entry, compares a +inf witness with the new entry: free in the arena
    callers = fallback_callers(monkeypatch)
    a = WeightArena()
    mk = MinKeeper(a)
    mk.change_prefix([(INFINITY, 5), (INFINITY, 7), EMPTY])
    callers.clear()
    mk.decrease(1, a.intern(3), 7)
    assert callers == {"decrease": 1} and a.cmp_count == 0
    assert mk.find_min() == 1


@pytest.mark.parametrize("case", [*range(12), "residue", "emptied-rank-0"])
def test_foreign_insert_on_every_path_keeps_the_heap(case):
    # after n increasing keys the next insert takes the rank-0 fast path or
    # a carry, by parity (n = 0: a fresh heap's empty rank 0); a stale
    # residue takes the residue carry, and a rank 0 emptied by an extract
    # takes the one-node insert beside a longer M.  A foreign key must be
    # refused before any of them moves anything
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    if case == "residue":
        h.insert(a.intern(10**6), 0)
        for i in range(1, RESIDUE_STREAK + 1):
            h.insert(a.intern(i), i)
            assert h.extract_min()[1] == i
        order, sizes = [0], [1, 1]  # the valid insert below carries 0
    elif case == "emptied-rank-0":
        for i, v in enumerate((30, 20, 10)):
            h.insert(a.intern(v), i)
        assert h.extract_min()[1] == 2
        assert rank_sizes(h) == [0, 2]
        order, sizes = [1, 0], [1, 2]
    else:
        for i in range(case):
            h.insert(a.intern(10 + i), i)
        order, sizes = list(range(case)), None
    with pytest.raises(ContractViolation):
        h.insert(WeightArena().intern(1), 99)
    check_workset(h)
    assert len(h) == len(order)
    h.insert(a.intern(0), 99)
    if sizes is not None:
        assert rank_sizes(h) == sizes
    check_workset(h)
    assert [h.extract_min()[1] for _ in range(len(h))] == [99, *order]


def test_a_streak_ends_with_its_residue():
    # rank 0 holds a residue with a full streak; once the residue is gone,
    # a fuse that moves another lone element into rank 0 starts no streak,
    # so the next insert takes the fast path beside it instead of a carry
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    h.insert(a.intern(50), 0)
    h.insert(a.intern(60), 1)
    residue = h.insert(a.intern(1000), 2)
    for i in range(3, 3 + RESIDUE_STREAK):
        h.insert(a.intern(i), i)
        assert h.extract_min()[1] == i
    assert rank_sizes(h) == [1, 2]
    h.decrease_key(residue, a.intern(0))
    assert h.extract_min()[1] == 2  # empties rank 0
    assert h.extract_min()[1] == 0  # fuses rank 1's last element down
    assert rank_sizes(h) == [1, 0]
    h.insert(a.intern(70), 99)
    assert rank_sizes(h) == [2, 0]
    check_workset(h)
    assert [h.extract_min()[1] for _ in range(2)] == [1, 99]


@pytest.mark.parametrize("seed", range(3))
def test_stale_residue_stretches_keep_invariants_and_cheap_inserts(seed):
    # broom-shaped stretches: insert one small key, extract it, beside
    # larger keys, so rank 0 often keeps one stale element until the
    # residue carry moves it; between stretches, random bursts (tied keys
    # and drawn vertex ids included), decreases and partial drains.  Every
    # insert spends at most two comparisons, and the order matches the
    # sorted replay after every operation
    rng = random.Random(seed)
    a = WeightArena(audit=True)
    h = WorkSetHeap(a)
    oracle = SortedReplayOracle()
    ids = iter(rng.sample(range(10**6), 10**4))
    live = {}
    residue_carries = empty_inserts = 0

    def insert(v):
        nonlocal residue_carries, empty_inserts
        r0 = rank_sizes(h)[0]
        residue_carries += r0 == 1 and h._streak >= RESIDUE_STREAK
        empty_inserts += r0 == 0
        vid = next(ids)
        before = a.cmp_count
        live[vid] = h.insert(a.intern(v), vid), v
        assert a.cmp_count - before <= 2
        oracle.insert(v, vid)
        check_workset(h)

    def extract():
        key, vid = h.extract_min()
        want_v, want = oracle.extract_min()
        assert vid == want and a.audit_value(key) == want_v
        del live[vid]
        check_workset(h)

    for _ in range(25):
        wide = rng.random() < 0.5
        for _ in range(rng.randrange(1, 60)):
            insert(10**6 + rng.randrange(10**6 if wide else 6))
        for _ in range(rng.randrange(len(h) + 1) // 2):
            extract()
        for _ in range(rng.randrange(3 * RESIDUE_STREAK)):
            if live and rng.random() < 0.1:
                vid = rng.choice(sorted(live))
                tok, v = live[vid]
                nv = rng.randrange(v + 1)
                h.decrease_key(tok, a.intern(nv))
                live[vid] = tok, nv
                oracle.decrease(vid, nv)
                check_workset(h)
            insert(rng.randrange(10**6))
            extract()
    while len(h):
        extract()
    assert residue_carries > 0 and empty_inserts > 0


def test_brooms_pay_one_comparison_per_path_vertex_on_every_t():
    """Both sides of the old broom oscillation pay one comparison a path vertex.

    gen_broom(t, r) and gen_broom(t, 2r) have the same leaves in the same
    relative order, and every path vertex is inserted after the leaves and
    extracted before them, so the two runs make the same comparisons but
    for r more path rounds: (cost(t, 2r) - cost(t, r)) / r is one round's
    steady-state cost.  The bound: once rank 0's stale residue has been
    carried (after at most RESIDUE_STREAK rounds), a round is one insert
    into an emptied rank 0, which settles S[0] with one comparison against
    S[1], and one extract that empties rank 0 again for free; so the cost is
    at most 1 on every t.  Without the residue carry, t in
    {32, 44, 64, 90, 128} kept a leaf beside the path in rank 0 and paid 3
    (one in the inner heap beside it, one for S[0], one to rebuild S[0]
    from it), while t in {45, 55, 71, 95, 131} paid 1.
    """
    def marginal(t):
        r = t * t - t - 1
        one = run_dijkstra(gen_broom(t, r, seed=0), "workset").comparisons
        two = run_dijkstra(gen_broom(t, 2 * r, seed=0), "workset").comparisons
        return (two - one) / r

    leaf_kept = [marginal(t) for t in (32, 44, 64, 90, 128)]
    rank0_emptied = [marginal(t) for t in (45, 55, 71, 95, 131)]
    assert max(leaf_kept) <= 1 and max(rank0_emptied) <= 1, (
        leaf_kept, rank0_emptied)
