"""Shared test utilities: independent oracles, structure checkers and traces.

The oracles (the sorted-replay queue, Bellman-Ford, vertex-deletion
dominators, the three-pass contraction, brute-force working sets, greedy
coloring and barrier check, exhaustive linearization counts) recompute an
answer from its definition; ``rescan_greedy_coloring`` is the greedy
coloring's plain O(n * colors) reference for inputs too large for the
brute force.  The structure checkers (``fibonacci_rings``, ``check_workset``,
``check_min_keeper``, ``check_tree``) scan a data structure's fields and
assert its invariants.  Those that read key values do so through
``arena.audit_value``, so they need an audit-mode arena and spend no arena
comparisons.
Everything here is deliberately simple and separate from the library's own
code paths, so tests compare two unrelated computations of the same answer.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from functools import lru_cache
from itertools import permutations

from distorder.aux_structures import EMPTY
from distorder.comparison_optimal import deduplicate, drop_back_edges
from distorder.graph_core import (Graph, SpanningTree, emit_graph, gen_family,
                                  parse_graph)
from distorder.optimality_audit import IntersectingColoring
from distorder.weights import INFINITY
from distorder.workset_heap import CAPS


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


def key_value(arena, h):
    """Exact value of key handle ``h``, +inf as ``math.inf``; audit mode."""
    return math.inf if h == INFINITY else arena.audit_value(h)


def fibonacci_rings(heap) -> tuple[list[int], list[int]]:
    """Check a FibonacciHeap's node rings; returns (root ring from min, nodes).

    Walks every ring from ``heap.min`` and asserts that ``left`` and
    ``right`` are mutual inverses, that every root's parent is -1 and every
    child points at its parent, that each degree (``degm >> 1``) equals the
    child count, that no child comes before its parent in (key, vertex)
    order, that ``min`` is a root with no root before it, that only live
    (non-stale) nodes are reachable, and that there are ``heap.size`` of
    them.  ``nodes`` lists every node reached.
    """
    pool = heap.pool
    arena = heap.arena

    def order(x):
        return key_value(arena, pool.key[x]), pool.vertex[x]

    def ring(first, parent):
        out, x = [], first
        while True:
            assert len(out) < len(pool.key), "ring does not close"
            assert pool.right[pool.left[x]] == x == pool.left[pool.right[x]], (
                f"node {x}: left and right are not inverses")
            assert pool.parent[x] == parent, f"node {x}: parent is not {parent}"
            assert pool.time[x] != -1, f"node {x}: stale node reachable"
            out.append(x)
            x = pool.right[x]
            if x == first:
                return out

    if heap.min == -1:
        assert heap.size == 0, "empty heap with a nonzero size"
        return [], []
    roots = ring(heap.min, -1)
    best = min(roots, key=order)
    assert order(best) == order(heap.min), "a root comes before min"
    nodes = list(roots)
    for x in nodes:  # grows as each node's children are appended
        c = pool.child[x]
        kids = ring(c, x) if c != -1 else []
        assert pool.degm[x] >> 1 == len(kids), f"node {x}: degree drifted"
        assert all(order(x) < order(y) for y in kids), f"node {x}: heap order"
        nodes.extend(kids)
    assert len(nodes) == heap.size, (
        f"{len(nodes)} reachable nodes, size {heap.size}")
    return roots, nodes


def rank_sizes(heap) -> list[int]:
    """A WorkSetHeap's inner heap sizes by rank, 0 for an empty rank."""
    return [H.size for H in heap._heaps]


def check_workset(heap) -> None:
    """Full scan of a WorkSetHeap: invariants 1-3, spans, streak and M.

    Each rank's inner heap passes ``fibonacci_rings``.  Invariant 1 caps
    its size, invariant 2 keeps the top pair at least CAPS[R-1] when
    R >= 2, and invariant 3 orders the ranks' insertion times oldest-first.
    The top rank stays within the log-log bound, every live time of a rank
    precedes the cached span start of each lower rank, empty or not (what
    decrease-key's rank lookup relies on), rank 0's span start is at most
    the next insertion time, no two slots share a heap, a residue streak
    counts an element that is still in rank 0, and M holds each rank's
    minimum with a valid minimum keeper (``check_min_keeper``).
    """
    pool = heap._pool
    heaps = heap._heaps
    assert len({id(H) for H in heaps}) == len(heaps), "two slots share a heap"
    assert heaps[0].iv_start <= heap._next_time, (
        "rank 0's span starts after the next insertion time")
    spans = {}
    rank0_times = []
    total = 0
    for r, H in enumerate(heaps):
        times = [pool.time[x] for x in fibonacci_rings(H)[1]]
        if not times:
            continue
        assert H.size <= CAPS[r], f"rank {r}: invariant 1 violated"
        if r == 0:
            rank0_times = times
        spans[r] = (min(times), max(times))
        assert H.iv_start <= spans[r][0], (
            f"rank {r}: live times precede the heap's span start")
        total += H.size
    assert total == heap.size, "total size drifted"

    occupied = sorted(spans)
    if occupied:
        R = occupied[-1]
        if R >= 2:
            assert heaps[R].size + heaps[R - 1].size >= CAPS[R - 1], (
                "invariant 2 violated")
        if heap.size >= 4:
            bound = math.ceil(math.log2(math.log2(heap.size))) + 2
            assert R <= bound, f"max rank {R} exceeds loglog bound {bound}"
    for a, b in zip(occupied, occupied[1:]):
        # higher rank b holds strictly older elements than rank a
        assert spans[b][1] < spans[a][0], "invariant 3 violated"
    for b in occupied:
        for a in range(b):
            assert spans[b][1] < heaps[a].iv_start, (
                f"ranks {a} and {b}: cached span starts out of order")

    # a streak counts extracts that left the residue in rank 0, where it
    # still is: a fuse must not hand the count to another element
    if heap._streak:
        assert heap._residue in rank0_times, "stale residue streak"

    m = heap._M._m
    assert len(m) >= (occupied[-1] + 1 if occupied else 0)
    for r, entry in enumerate(m):
        H = heaps[r] if r < len(heaps) else None
        if H is None or not H.size:
            assert entry == EMPTY, f"M[{r}] should be the +inf token"
        else:
            assert entry == (pool.key[H.min], pool.vertex[H.min]), (
                f"M[{r}] is not the minimum of H_{r}")
    check_min_keeper(heap._M)


def check_min_keeper(mk) -> None:
    """A MinKeeper's L, j and stale bits against a brute-force scan of M.

    L[i] is the leftmost minimum of M[i:T] at every fresh position, the
    stale bits lie in [j, T-1), the top beats M[L[i]] exactly for i >= j,
    and so S[i] is the leftmost minimum of M[i:] for every i.
    """
    arena = mk._arena
    m = [(key_value(arena, h), t) for h, t in mk._m]
    l, j, stale = mk._l, mk._j, mk._stale
    T = len(m) - 1
    assert len(l) == max(T, 0)
    if T < 0:
        return

    def leftmost_min(a, b):
        return min(range(a, b), key=m.__getitem__)

    assert 0 <= j <= T, f"j = {j} outside [0, {T}]"
    assert stale >> max(T - 1, 0) == 0, "L[T-1] or above marked stale"
    assert stale & ((1 << j) - 1) == 0, "stale bit below j"
    for i in range(T):
        w = leftmost_min(i, T)
        if not stale >> i & 1:
            assert l[i] == w, f"L[{i}] is not the leftmost minimum of M[{i}:{T}]"
        assert (m[T] < m[w]) == (i >= j), f"j = {j} is wrong at position {i}"
    for i in range(T + 1):
        s = l[i] if i < j else T
        assert s == leftmost_min(i, T + 1), (
            f"S[{i}] is not the leftmost minimum of M[{i}:]")


def check_tree(tree: SpanningTree) -> None:
    """Parent links must form a tree on all vertices rooted at ``tree.root``."""
    assert tree.parent[tree.root] == -1
    seen = [False] * tree.n
    seen[tree.root] = True
    order = [tree.root]
    ch = tree.children()
    for v in order:  # grows as each vertex's children are appended
        for c in ch[v]:
            assert not seen[c], "cycle in parent links"
            seen[c] = True
            order.append(c)
    assert all(seen), "parent links do not cover all vertices"


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


def multi_graph(g: Graph, groups) -> Graph:
    """The core graph g with each of ``groups`` expanded again.

    A group's members take its arc's place, in their input arc order, so
    this is the contracted multigraph before its parallel arcs were
    grouped: the same arcs, in another order.
    """
    grouped = set(groups)
    tails, heads, weights, origin = [], [], [], []
    for u, v, w, o in zip(g.tails, g.heads, g.weights, g.origin):
        if type(w) is not int and w in grouped:
            tails += [u] * len(w.members)
            heads += [v] * len(w.members)
            weights += w.members
            origin += w.origins
        else:
            tails.append(u)
            heads.append(v)
            weights.append(w)
            origin.append(o)
    return Graph(g.n, True, g.s, g.arena, tails, heads, weights, origin)


def dominates(dom: SpanningTree, u: int, v: int) -> bool:
    """True if u dominates v: u is v or an ancestor of v in the dominator
    tree ``dom``, by the range test on its preorder."""
    _, pos, size = dom.preorder()
    return 0 <= pos[v] - pos[u] < size[u]


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


def three_pass_contraction(g0: Graph, dom):
    """The pipeline's contraction as three passes, each building a graph.

    ``drop_back_edges``, then chain contraction over the kept arcs alone,
    then ``deduplicate`` of the contracted multigraph.  Returns (core graph,
    groups, chains, chain origins, rep, multigraph) with the meanings of
    ``contract_chains``' results; the multigraph is the contraction before
    its parallel arcs were grouped.  Contraction spends its additions in the
    same order as ``contract_chains``, and skips its checks.
    """
    g = drop_back_edges(g0, dom)
    n = g.n
    children = dom.children()
    chains = []
    in_chain = [-1] * n
    for v in range(n):
        p = dom.parent[v]
        if len(children[v]) != 1 or (p >= 0 and len(children[p]) == 1):
            continue  # not a chain head
        chain = [v]
        while len(children[chain[-1]]) == 1:
            chain.append(children[chain[-1]][0])
        for u in chain:
            in_chain[u] = len(chains)
        chains.append(chain)

    add = g.arena.add
    arc_into = {v: i for i, v in enumerate(g.heads)}  # unique for chain arcs
    chain_origin, prefix_of = [], {}
    for chain in chains:
        depth = len(chain) - 1  # the deepest member read as a tail
        if not g.adj[chain[depth]]:
            depth -= 1
            while depth and len(g.adj[chain[depth]]) == 1:
                depth -= 1
        pref = None
        for k, b in enumerate(chain[1:], 1):
            arc = arc_into[b]
            chain_origin.append(g.origin[arc])
            if k <= depth:
                w = g.arc_weight(arc)
                pref = w if pref is None else add(pref, w)
                prefix_of[b] = pref

    rep = [v for v in range(n)
           if in_chain[v] < 0 or chains[in_chain[v]][0] == v]
    phi = {v: k for k, v in enumerate(rep)}
    for chain in chains:
        for v in chain[1:]:
            phi[v] = phi[chain[0]]
    tails, heads, weights, origin = [], [], [], []
    for i, (u, v) in enumerate(zip(g.tails, g.heads)):
        if in_chain[u] >= 0 and in_chain[u] == in_chain[v]:
            continue  # a chain arc
        w = g.weights[i]
        if in_chain[u] >= 0 and chains[in_chain[u]][0] != u:
            w = add(prefix_of[u], g.arc_weight(i))
        tails.append(phi[u])
        heads.append(phi[v])
        weights.append(w)
        origin.append(g.origin[i])
    multi = Graph(len(rep), True, phi[g.s], g.arena, tails, heads, weights,
                  origin)
    core, groups = deduplicate(multi)
    return core, groups, chains, chain_origin, rep, multi


# An input parallel pair 1 -> 4 that nests in a core group: once 2 folds into
# 1, the core arc 1 -> 4 also stands for 2 -> 4 (weight 1 + 9)
NESTED_GROUP_TEXT = ("5 7 0 directed\n0 1 1\n0 4 100\n1 2 1\n2 3 1\n"
                     "1 4 7\n1 4 5\n2 4 9\n")


def chain_multigraph_text(rng: random.Random, n: int) -> str:
    """Edge-list text of a reachable n-vertex digraph built to form chains.

    Most spanning-tree parents are the vertex placed just before, so
    dominator chains form; extra arcs bring self-loops, back arcs and arcs
    leaving chain interiors, and copies of drawn arcs bring input parallel
    arcs.  Vertex ids are shuffled, so an interior may precede its head.
    """
    order = list(range(1, n))
    rng.shuffle(order)
    placed = [0]
    arcs = []
    for v in order:
        u = placed[-1] if rng.random() < 0.6 else rng.choice(placed)
        arcs.append((u, v))
        placed.append(v)
    arcs += [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(2 * n))]
    arcs += rng.choices(arcs, k=rng.randrange(2 * n))
    rng.shuffle(arcs)
    return f"{n} {len(arcs)} 0 directed\n" + "".join(
        f"{u} {v} {rng.choice(('1', '2', '3', '5', '1/2', '7/3'))}\n"
        for u, v in arcs)


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


def brute_force_greedy_coloring(intervals: list[tuple[int, int]]):
    """(color, witnesses) of the greedy coloring, from its definition.

    Each round recomputes every remaining working set by brute force; the
    largest wins, the smallest start breaks ties.  The witness is the
    earliest event time at which x's working set reaches that size, and the
    class is the remaining intervals alive then that start no earlier than
    x.  Once every working set is a singleton, each remaining interval
    becomes its own class, in start order.  For small inputs only.
    """
    color = [-1] * len(intervals)
    witnesses: list[int] = []
    remaining = sorted(range(len(intervals)), key=lambda i: intervals[i][0])
    while remaining:
        ivs = [intervals[i] for i in remaining]
        sizes = brute_force_working_sets(ivs)
        best = max(sizes)
        if best <= 1:
            for i in remaining:
                color[i] = len(witnesses)
                witnesses.append(intervals[i][0])
            break
        lx, rx = min((iv for iv, w in zip(ivs, sizes) if w == best),
                     key=lambda iv: iv[0])
        times = sorted({t for iv in ivs for t in iv})
        witness = next(
            t for t in times if lx <= t <= rx
            and sum(1 for (l, r) in ivs if lx <= l <= t <= r) == best)
        for i in remaining:
            l, r = intervals[i]
            if lx <= l <= witness <= r:
                color[i] = len(witnesses)
        witnesses.append(witness)
        remaining = [i for i in remaining if color[i] < 0]
    return color, witnesses


def rescan_greedy_coloring(intervals: list[tuple[int, int]]):
    """The greedy coloring, rescanning every remaining interval per color.

    Each round sorts the remaining intervals' ends, walks their starts for
    the most intervals alive at one start time (the earliest such time is
    the witness), and gives everything alive at the witness one class; once
    no two remaining intervals overlap, each becomes its own class, in start
    order.  O(n * colors); returns an ``IntersectingColoring``.
    """
    color = [-1] * len(intervals)
    classes: list[list[int]] = []
    witnesses: list[int] = []
    remaining = sorted(range(len(intervals)), key=lambda i: intervals[i][0])
    while remaining:
        ls = [intervals[i][0] for i in remaining]
        rs = sorted(intervals[i][1] for i in remaining)
        best = 0
        ended = 0  # intervals ending before the current start time
        for y, l in enumerate(ls):
            while rs[ended] < l:
                ended += 1
            if y + 1 - ended > best:
                best, witness = y + 1 - ended, l
        if best <= 1:
            for i in remaining:
                color[i] = len(classes)
                classes.append([i])
                witnesses.append(intervals[i][0])
            break
        members = [i for i in remaining[: bisect_right(ls, witness)]
                   if intervals[i][1] >= witness]
        for i in members:
            color[i] = len(classes)
        classes.append(members)
        witnesses.append(witness)
        remaining = [i for i in remaining if color[i] < 0]
    return IntersectingColoring(color, classes, witnesses)


def brute_force_barrier(coloring, tree: SpanningTree) -> bool:
    """Whether the coloring's classes, stably sorted by witness, form a
    barrier sequence of ``tree``, from the definition: no vertex has an
    ancestor in its own class or in a later one.  Reads the classes, not
    ``coloring.color``, and walks every vertex's ancestors."""
    order = sorted(range(len(coloring.classes)),
                   key=lambda c: coloring.witnesses[c])
    place = {}  # vertex -> its class's place in the order
    for k, c in enumerate(order):
        for v in coloring.classes[c]:
            place[v] = k
    for u in range(tree.n):
        v = tree.parent[u]
        while v >= 0:
            if place[v] >= place[u]:
                return False
            v = tree.parent[v]
    return True


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


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes, by a sieve that doubles until it has them."""
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
        primes = [i for i in range(limit) if sieve[i]]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


@lru_cache(maxsize=None)
def _prime_denominator_text(n: int, seed: int) -> str:
    header, *body = emit_graph(gen_family("random_digraph", n, seed=seed)).splitlines()
    lines = [header]
    for ln, p in zip(body, first_primes(len(body))):
        lines.append(f"{ln}/{p}")
    return "\n".join(lines) + "\n"


def prime_denominator_graph(n: int = 2000, seed: int = 0,
                            audit: bool = False) -> Graph:
    """``random_digraph``'s arcs with arc i weighing w_i / p_i, p_i the i-th prime.

    The common denominator of these weights is the product of the primes
    (117,466 bits for the 7,992 arcs at n = 2000, seed 0), far past what a
    weight arena scales by.
    """
    return parse_graph(_prime_denominator_text(n, seed), audit=audit)
