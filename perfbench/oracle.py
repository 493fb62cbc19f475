"""Independent oracles and output checks.

Nothing here calls into the package: distances come from a heapq Dijkstra
over the raw weights the benchmark generated (exact ints and Fractions), and
queue traces are replayed against a sorted (value, id) heap.
"""

from __future__ import annotations

import heapq


def dijkstra_distances(n: int, s: int, tails, heads, weights) -> list:
    """Exact shortest distances from s over the raw arc weights."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, u in enumerate(tails):
        adj[u].append(i)
    dist: list = [None] * n
    dist[s] = 0
    pq = [(0, s)]
    done = [False] * n
    while pq:
        d, u = heapq.heappop(pq)
        if done[u]:
            continue
        done[u] = True
        for i in adj[u]:
            v = heads[i]
            nd = d + weights[i]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


class Checker:
    """Tallies checked outputs and failures; failures keep a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)

    def ordering(self, label, graph, linearization, parent, parent_arc) -> None:
        """A linearization plus shortest-path tree, against the oracle.

        The order must be a permutation of the vertices in non-decreasing
        oracle distance, and every tree arc must be tight.
        """
        self.record(order_ok(graph, linearization)
                    and tree_ok(graph, parent, parent_arc), label)

    def equal(self, label, got, want) -> None:
        self.record(got == want, label)


def order_ok(graph, linearization) -> bool:
    n, dist = graph.n, graph.dist
    if len(linearization) != n or sorted(linearization) != list(range(n)):
        return False
    return all(dist[a] <= dist[b]
               for a, b in zip(linearization, linearization[1:]))


def tree_ok(graph, parent, parent_arc) -> bool:
    dist, tails, heads, w = graph.dist, graph.tails, graph.heads, graph.weights
    for v in range(graph.n):
        if v == graph.s:
            if parent[v] != -1:
                return False
            continue
        i = parent_arc[v]
        if not 0 <= i < len(tails) or tails[i] != parent[v] or heads[i] != v:
            return False
        if dist[tails[i]] + w[i] != dist[v]:
            return False
    return True
