"""Dijkstra's algorithm, generic over the priority queue.

Vertices are inserted lazily: the first relaxation of v inserts it with its
first tentative distance, so no queue is handed a +infinity key.  A later
relaxation of a non-finalized endpoint costs one comparison against its
tentative distance and calls decrease-key only when that strictly improves
it, so a queue never sees a decrease that changes nothing.  Edges into
finalized vertices are never touched.

Each run records, besides the linearization, distances and both trees:

* the exploration tree (parent = vertex whose exploration first inserted v),
* the shortest-path tree (parent = first relaxer achieving the final
  distance), and
* the induced interval set: per vertex the closed span [l, r] between its
  insert and extract events, counting every queue insert/extract as one tick.

Runs on audit-mode arenas verify the output order with n-1 comparisons on a
side arena; counters report only this run's comparisons and additions.
"""

from __future__ import annotations

from .base_heap import BinaryQueue, FibonacciQueue, PairingQueue
from .errors import UsageError
from .graph_core import Graph, SpanningTree
from .weights import INFINITY
from .workset_heap import WorkSetHeap

QUEUES = {"workset": WorkSetHeap, "fibonacci": FibonacciQueue,
          "binary": BinaryQueue, "pairing": PairingQueue}
HEAP_KINDS = tuple(QUEUES)


def make_queue(kind: str, arena):
    cls = QUEUES.get(kind)
    if cls is None:
        raise UsageError(f"unknown heap kind {kind!r}")
    return cls(arena)


class DijkstraRun:
    """Everything one run produces, ready for auditing."""

    __slots__ = ("linearization", "dist", "sssp", "explore", "intervals",
                 "comparisons", "additions", "heap_kind", "sssp_arcs",
                 "extract_comparisons", "rank_extracts")

    def __init__(self, linearization, dist, sssp, explore, intervals,
                 comparisons, additions, heap_kind, sssp_arcs=None):
        self.linearization = linearization
        self.dist = dist
        self.sssp = sssp
        self.explore = explore
        self.intervals = intervals
        self.comparisons = comparisons
        self.additions = additions
        self.heap_kind = heap_kind
        self.sssp_arcs = sssp_arcs  # arc index behind each sssp parent link
        self.extract_comparisons = 0  # workset runs: comparisons inside extracts
        self.rank_extracts: list[int] = []  # workset runs: extracts per rank

    def report_lines(self) -> list[str]:
        lines = [
            f"heap {self.heap_kind}",
            f"comparisons {self.comparisons}",
            f"additions {self.additions}",
        ]
        if self.rank_extracts:
            lines.append("rank_extracts " + " ".join(map(str, self.rank_extracts)))
        return lines + [
            "sssp_edges " + " ".join(
                f"{p}->{v}" for v, p in enumerate(self.sssp.parent) if p >= 0),
            "explore_edges " + " ".join(
                f"{p}->{v}" for v, p in enumerate(self.explore.parent) if p >= 0),
            "linearization " + " ".join(map(str, self.linearization)),
        ]


def run_dijkstra(g: Graph, heap_kind: str = "workset") -> DijkstraRun:
    """Run Dijkstra on g with the chosen queue; all weight access is counted."""
    arena = g.arena
    cmp0, add0 = arena.counters()
    q = make_queue(heap_kind, arena)
    n = g.n
    s = g.s
    dist: list[int] = [INFINITY] * n
    token: list = [None] * n
    lo = [0] * n
    hi = [0] * n
    sssp = [-1] * n
    sssp_arc = [-1] * n
    explore = [-1] * n
    order: list[int] = []
    adj = g.adj
    heads = g.heads
    weights = g.weights
    compare = arena.compare
    add = arena.add
    q_insert = q.insert
    q_extract = q.extract_min
    q_decrease = q.decrease_key

    event = 1
    dist[s] = arena.zero()
    lo[s] = event
    token[s] = q_insert(dist[s], s)
    while len(q):
        du, u = q_extract()
        event += 1
        hi[u] = event  # nonzero from here on: u is finalized
        order.append(u)
        for i in adj[u]:
            v = heads[i]
            if hi[v]:
                continue
            w = weights[i]
            if type(w) is not int:
                w = w.resolve()
            if token[v] is None:
                event += 1
                lo[v] = event
                # the first sum is v's first tentative distance, no comparison
                dist[v] = add(du, w)
                token[v] = q_insert(dist[v], v)
                explore[v] = u
                sssp[v] = u
                sssp_arc[v] = i
            else:
                nd = add(du, w)
                if compare(nd, dist[v]) < 0:
                    dist[v] = nd
                    sssp[v] = u
                    sssp_arc[v] = i
                    q_decrease(token[v], nd)

    cmp1, add1 = arena.counters()
    run = DijkstraRun(
        linearization=order,
        dist=dist,
        sssp=SpanningTree(sssp, s, "sssp"),
        explore=SpanningTree(explore, s, "exploration"),
        intervals=[(lo[v], hi[v]) for v in range(n)],
        comparisons=cmp1 - cmp0,
        additions=add1 - add0,
        heap_kind=heap_kind,
        sssp_arcs=sssp_arc,
    )
    if heap_kind == "workset":
        run.extract_comparisons = q.extract_comparisons
        counts = q.rank_extracts
        top = len(counts)
        while top and not counts[top - 1]:
            top -= 1
        run.rank_extracts = counts[:top]
    if arena.audit:
        _verify_order(arena, run)
    return run


def _verify_order(arena, run: DijkstraRun) -> None:
    """n-1 comparisons on a side arena: the output is sorted by distance.

    Raises AssertionError explicitly, so the check also runs under ``-O``.
    """
    handles = [run.dist[v] for v in run.linearization]
    side, side_handles = arena.fork_values(handles)
    for a, b in zip(side_handles, side_handles[1:]):
        if side.compare(a, b) > 0:
            raise AssertionError("linearization out of distance order")
