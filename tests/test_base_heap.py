import math
import random

import pytest

from distorder.base_heap import (BinaryQueue, FibonacciHeap, FibonacciQueue,
                                 HeapNodePool, PairingQueue)
from distorder.errors import ContractViolation, EmptyHeapError
from distorder.weights import WeightArena

from helpers import SortedReplayOracle


def fresh_heap(arena=None):
    arena = arena or WeightArena()
    return FibonacciHeap(HeapNodePool(), arena), arena


def test_insert_find_min():
    h, a = fresh_heap()
    t = 0
    for v in (5, 3, 8):
        t += 1
        h.insert(a.intern(v), t, t)
    nid = h.find_min()
    assert a.compare(h.pool.key[nid], a.intern(3)) == 0


def test_insert_into_empty():
    h, a = fresh_heap()
    h.insert(a.intern(9), 1, 0)
    assert h.pool.vertex[h.find_min()] == 0


def test_heapsort_semantics():
    rng = random.Random(0)
    h, a = fresh_heap()
    vals = [rng.randrange(1000) for _ in range(200)]
    for t, v in enumerate(vals):
        h.insert(a.intern(v), t, t)
    got = [h.extract_min() for _ in range(len(vals))]
    assert [a_ for (_k, _t, a_) in got] == [
        i for _v, i in sorted(zip(vals, range(len(vals))))]
    with pytest.raises(EmptyHeapError):
        h.extract_min()


def test_extract_simple():
    h, a = fresh_heap()
    for t, v in enumerate((7, 2, 9)):
        h.insert(a.intern(v), t, t)
    key, _t, _v = h.extract_min()
    assert a.compare(key, a.intern(2)) == 0
    single, a2 = fresh_heap()
    single.insert(a2.intern(1), 0, 0)
    single.extract_min()
    assert len(single) == 0


def test_decrease_key():
    h, a = fresh_heap()
    toks = {}
    for t, v in enumerate((7, 2, 9)):
        toks[v] = h.insert(a.intern(v), t, t)
    h.decrease_key(toks[9], a.intern(1))
    key, _t, vtx = h.extract_min()
    assert a.compare(key, a.intern(1)) == 0 and vtx == 2
    # decrease to an equal key is a no-op on the order
    h.decrease_key(toks[2], a.intern(2))
    assert h.pool.vertex[h.find_min()] == 1
    with pytest.raises(ContractViolation):
        h.decrease_key(toks[2], a.intern(100))


def test_meld():
    arena = WeightArena()
    pool = HeapNodePool()
    x, y = FibonacciHeap(pool, arena), FibonacciHeap(pool, arena)
    x.insert(arena.intern(1), 1, 1)
    y.insert(arena.intern(2), 2, 2)
    x.meld(y)
    assert len(x) == 2 and len(y) == 0
    assert arena.compare(pool.key[x.find_min()], arena.intern(1)) == 0
    empty = FibonacciHeap(pool, arena)
    x.meld(empty)
    assert len(x) == 2

    with pytest.raises(ContractViolation):
        x.meld(FibonacciHeap(HeapNodePool(), arena))  # different pool


def test_meld_then_drain_merges_sorted():
    rng = random.Random(3)
    arena = WeightArena()
    pool = HeapNodePool()
    x, y = FibonacciHeap(pool, arena), FibonacciHeap(pool, arena)
    xs = sorted(rng.sample(range(10_000), 64))
    ys = sorted(rng.sample(range(10_000, 20_000), 80))
    t = 0
    for v in xs:
        t += 1
        x.insert(arena.intern(v), t, t)
    for v in ys:
        t += 1
        y.insert(arena.intern(v), t, t)
    x.meld(y)
    drained = []
    while len(x):
        _k, _t, vtx = x.extract_min()
        drained.append(vtx)
    order = {}
    t = 0
    for v in xs + ys:
        t += 1
        order[t] = v
    assert [order[v] for v in drained] == sorted(xs + ys)


def test_node_ids_stable_across_melds():
    arena = WeightArena()
    pool = HeapNodePool()
    x, y = FibonacciHeap(pool, arena), FibonacciHeap(pool, arena)
    tok = x.insert(arena.intern(50), 1, 1)
    y.insert(arena.intern(10), 2, 2)
    y.meld(x)
    y.decrease_key(tok, arena.intern(1))  # the node survived the meld
    _k, _t, vtx = y.extract_min()
    assert vtx == 1


@pytest.mark.parametrize("queue_cls", [FibonacciQueue, BinaryQueue, PairingQueue])
def test_queues_match_oracle(queue_cls):
    rng = random.Random(11)
    arena = WeightArena()
    q = queue_cls(arena)
    oracle = SortedReplayOracle()
    live = {}
    ident = 0
    for step in range(12_000):
        roll = rng.random()
        if roll < 0.45 or not live:
            v = rng.randrange(1 << 30)
            live[ident] = (q.insert(arena.intern(v), ident), v)
            oracle.insert(v, ident)
            ident += 1
        elif roll < 0.85:
            _k, got = q.extract_min()
            _v, want = oracle.extract_min()
            assert got == want
            del live[got]
        else:
            vid = next(iter(live))
            tok, v = live[vid]
            nv = max(0, v - rng.randrange(1 << 20))
            q.decrease_key(tok, arena.intern(nv))
            oracle.decrease(vid, nv)
            live[vid] = (tok, nv)
    assert len(q) == len(live)


def test_drain_comparison_bound():
    # fibonacci drain: total comparisons <= c (n log2 n + n) with c = 6
    rng = random.Random(5)
    for n in (100, 1000, 5000):
        h, a = fresh_heap()
        for t in range(n):
            h.insert(a.intern(rng.randrange(1 << 40)), t, t)
        a.reset_counters()
        for _ in range(n):
            h.extract_min()
        cmp, _ = a.counters()
        assert cmp <= 6 * (n * math.log2(n) + n), (n, cmp)
