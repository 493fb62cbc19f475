"""Shared test utilities: independent oracles and trace generators.

Everything here is deliberately simple and separate from the library's own
code paths, so tests compare two unrelated computations of the same answer.
"""

from __future__ import annotations

import heapq
import random
from itertools import permutations

from distorder.graph_core import Graph, SpanningTree


class SortedReplayOracle:
    """Reference priority-queue semantics: extract the least (value, id) pair.

    Backed by a lazy-deletion binary heap over raw values; completely
    independent of the arena, the Fibonacci machinery and the rank structure.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self._current: dict[int, object] = {}  # live id -> current value

    def __len__(self):
        return len(self._current)

    def insert(self, value, ident: int) -> None:
        self._current[ident] = value
        heapq.heappush(self._heap, (value, ident))

    def decrease(self, ident: int, value) -> None:
        self._current[ident] = value
        heapq.heappush(self._heap, (value, ident))

    def extract_min(self) -> tuple:
        cur = self._current
        while True:
            value, ident = heapq.heappop(self._heap)
            if cur.get(ident) == value:
                del cur[ident]
                return value, ident


def bellman_ford(g: Graph) -> list:
    """Raw-value shortest distances; needs an audit-mode arena."""
    w = [g.arena.audit_value(g.arc_weight(i)) for i in range(g.m)]
    dist = [None] * g.n
    dist[g.s] = 0
    for _ in range(g.n):
        changed = False
        for i in range(g.m):
            u, v = g.tails[i], g.heads[i]
            du = dist[u]
            if du is not None:
                nd = du + w[i]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    changed = True
        if not changed:
            break
    return dist


def brute_idoms(g: Graph) -> list[int]:
    """Immediate dominators by vertex-deletion reachability."""
    n, s = g.n, g.s
    unreachable_without: list[list[bool]] = []
    for u in range(n):
        seen = [False] * n
        if u != s:
            seen[s] = True
            stack = [s]
            while stack:
                x = stack.pop()
                for i in g.adj[x]:
                    y = g.heads[i]
                    if y != u and not seen[y]:
                        seen[y] = True
                        stack.append(y)
        unreachable_without.append(seen)
    doms = [set() for _ in range(n)]
    for v in range(n):
        for u in range(n):
            if u != v and not unreachable_without[u][v]:
                doms[v].add(u)
    idom = [-1] * n
    for v in range(n):
        if v == s:
            continue
        # the dominator dominated by all other dominators is the deepest one
        idom[v] = max(doms[v], key=lambda u: len(doms[u]) + (0 if u != v else -1))
    return idom


def random_interval_set(rng: random.Random, n: int,
                        span: int = 10**6) -> list[tuple[int, int]]:
    """A valid interval trace: distinct endpoints, each l < r."""
    pts = rng.sample(range(1, span), 2 * n)
    pts.sort()
    intervals: list = []
    open_slots: list[int] = []
    made = 0
    for t in pts:
        if open_slots and (made >= n or rng.random() < 0.5):
            i = open_slots.pop(rng.randrange(len(open_slots)))
            intervals[i] = (intervals[i][0], t)
        else:
            open_slots.append(len(intervals))
            intervals.append((t, None))
            made += 1
    assert not open_slots
    return intervals


def run_workset_trace(arena, heap, rng: random.Random, n_ops: int,
                      p_ins: float = 0.45, p_ext: float = 0.40,
                      key_range: int = 1 << 40,
                      per_op=None):
    """Drive heap and oracle through one random mixed trace.

    Returns (extracted ids, oracle ids).  ``per_op`` is called after every
    heap operation when provided (used for invariant full scans).
    """
    oracle = SortedReplayOracle()
    live: dict[int, tuple] = {}
    out: list[int] = []
    expect: list[int] = []
    ident = 0
    for k in range(n_ops):
        roll = rng.random()
        if roll < p_ins or not live:
            v = rng.randrange(1, key_range)
            tok = heap.insert(arena.intern(v), ident)
            live[ident] = (tok, v)
            oracle.insert(v, ident)
            ident += 1
        elif roll < p_ins + p_ext:
            _key, got = heap.extract_min()
            out.append(got)
            _v, want = oracle.extract_min()
            expect.append(want)
            live.pop(got, None)
        else:
            vid = next(iter(live))
            tok, v = live[vid]
            nv = max(0, v - rng.randrange(1, key_range))
            heap.decrease_key(tok, arena.intern(nv))
            live[vid] = (tok, nv)
            oracle.decrease(vid, nv)
        if per_op is not None:
            per_op(heap)
    return out, expect


def brute_force_working_sets(intervals: list[tuple[int, int]]) -> list[int]:
    """|W_x| per interval by trying every event time.  For small inputs only."""
    out = []
    times = sorted({t for iv in intervals for t in iv})
    for (lx, rx) in intervals:
        best = 0
        for t in times:
            if lx <= t <= rx:
                cnt = sum(1 for (ly, ry) in intervals if lx <= ly <= t <= ry)
                best = max(best, cnt)
        out.append(best)
    return out


def count_linearizations_exhaustive(tree: SpanningTree) -> int:
    """Count linear extensions by enumeration.  Only for tiny trees."""
    n = tree.n
    if n > 9:
        raise ValueError("exhaustive count is limited to n <= 9")
    count = 0
    verts = list(range(n))
    parent = tree.parent
    for perm in permutations(verts):
        pos = [0] * n
        for p, v in enumerate(perm):
            pos[v] = p
        ok = True
        for v in verts:
            p = parent[v]
            if p >= 0 and pos[p] > pos[v]:
                ok = False
                break
        if ok:
            count += 1
    return count
