"""Directed weighted multigraphs, generators, and edge-list I/O.

Weights are interned into a :class:`~distorder.weights.WeightArena` at
construction; algorithms only ever see handles.  The raw values are kept
privately for file emission and are never read by any algorithm.

Edge-list format::

    n m s directed|undirected
    u v w        (m lines; w a positive decimal like "3" or "2.5", or "p/q")

Undirected inputs are doubled into two arcs sharing one weight cell.  Every
vertex must be reachable from the source s and all weights must be strictly
positive; both are checked at load, positivity on each parsed value before
it is interned, so no arena counter moves.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ContractViolation, GraphParseError, UsageError
from .weights import WeightArena


class Graph:
    """Directed multigraph with a source; weights held as arena handles.

    ``origin[i]`` names what arc i stands for in the graph that was parsed or
    generated: that graph's arc id, or the ``LazyMin`` of a parallel group
    whose resolved winner leads to one.  It defaults to ``range(m)``.
    """

    __slots__ = ("n", "directed", "s", "arena", "tails", "heads", "weights",
                 "origin", "adj", "_source_values")

    def __init__(self, n, directed, s, arena, tails, heads, weights,
                 origin=None, source_values=None):
        self.n = n
        self.directed = directed
        self.s = s
        self.arena = arena
        self.tails = tails
        self.heads = heads
        self.weights = weights
        self.origin = range(len(tails)) if origin is None else origin
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, u in enumerate(tails):
            adj[u].append(i)
        self.adj = adj
        self._source_values = source_values  # emission only; not for algorithms

    @property
    def m(self) -> int:
        return len(self.tails)

    def arc_weight(self, i: int) -> int:
        """Weight handle of arc i, materializing a lazy minimum if present."""
        w = self.weights[i]
        if type(w) is int:
            return w
        return w.resolve()


def _reachable_from(n, adj, heads, s) -> list[bool]:
    seen = [False] * n
    seen[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for i in adj[u]:
            v = heads[i]
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def _build(n, directed, s, pairs, values, audit=False):
    """Intern values, double undirected edges, and validate the result."""
    arena = WeightArena(audit=audit)
    handles = arena.intern_many(values)
    tails, heads, weights = [], [], []
    for (u, v), h in zip(pairs, handles):
        tails.append(u)
        heads.append(v)
        weights.append(h)
        if not directed:
            tails.append(v)
            heads.append(u)
            weights.append(h)
    g = Graph(n, directed, s, arena, tails, heads, weights,
              source_values=list(values))
    seen = _reachable_from(n, g.adj, g.heads, s)
    if not all(seen):
        bad = seen.index(False)
        raise GraphParseError(1, f"vertex {bad} unreachable from source {s}")
    return g


def _parse_weight(tok: str):
    if "/" in tok:
        num, den = tok.split("/", 1)
        return Fraction(int(num), int(den))
    if "." in tok or "e" in tok or "E" in tok:
        f = Fraction(tok)
        return f
    return int(tok)


def _format_weight(v) -> str:
    if isinstance(v, int):
        return str(v)
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def parse_graph(text: str, audit: bool = False) -> Graph:
    """Parse the edge-list format; raises GraphParseError with a line number."""
    lines = text.splitlines()
    if not lines:
        raise GraphParseError(1, "empty input")
    head = lines[0].split()
    if len(head) != 4 or head[3] not in ("directed", "undirected"):
        raise GraphParseError(1, "header must be 'n m s directed|undirected'")
    try:
        n, m, s = int(head[0]), int(head[1]), int(head[2])
    except ValueError as exc:
        raise GraphParseError(1, f"bad header field: {exc}") from None
    if n < 1 or not 0 <= s < n:
        raise GraphParseError(1, f"bad vertex count {n} or source {s}")
    if m < n - 1:  # checked before anything of size n is built
        raise GraphParseError(
            1, f"{m} edges cannot reach all {n} vertices from source {s}")
    body = [(k, ln) for k, ln in enumerate(lines[1:], 2) if ln.strip()]
    if len(body) != m:
        raise GraphParseError(1, f"expected {m} edge lines, found {len(body)}")
    pairs, values = [], []
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphParseError(lineno, f"expected 'u v w', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = _parse_weight(parts[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphParseError(lineno, f"bad edge line: {exc}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(lineno, f"vertex out of range in {ln!r}")
        # a Fraction's sign is its numerator's; a Fraction compared with an
        # int would dispatch through the numbers.Rational ABC
        if (w if type(w) is int else w.numerator) <= 0:
            raise GraphParseError(lineno, f"weight {w} is not positive")
        pairs.append((u, v))
        values.append(w)
    return _build(n, head[3] == "directed", s, pairs, values, audit=audit)


def emit_graph(g: Graph) -> str:
    """Inverse of parse_graph; parse(emit(g)) reproduces g exactly."""
    if g._source_values is None:
        raise UsageError("graph carries no source values to emit")
    kind = "directed" if g.directed else "undirected"
    m = len(g._source_values)
    out = [f"{g.n} {m} {g.s} {kind}"]
    step = 1 if g.directed else 2  # undirected arcs come in mirrored pairs
    for e, v in enumerate(g._source_values):
        i = e * step
        out.append(f"{g.tails[i]} {g.heads[i]} {_format_weight(v)}")
    return "\n".join(out) + "\n"


class SpanningTree:
    """Rooted spanning tree as a parent array, -1 at the root.

    The constructor checks nothing.  ``children`` raises
    :class:`ContractViolation` unless ``parent[root]`` is -1 and every other
    parent is a vertex, and ``preorder``, the one traversal, also unless
    every vertex hangs off the root.
    """

    __slots__ = ("parent", "root")

    def __init__(self, parent: list[int], root: int):
        self.parent = parent
        self.root = root

    @property
    def n(self) -> int:
        return len(self.parent)

    def children(self) -> list[list[int]]:
        parent, root = self.parent, self.root
        n = len(parent)
        if not 0 <= root < n or parent[root] != -1:
            raise ContractViolation(f"root {root} does not have parent -1")
        if parent.count(-1) != 1 or min(parent) < -1 or max(parent) >= n:
            raise ContractViolation("a non-root parent is not a vertex")
        ch: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v != root:
                ch[p].append(v)
        return ch

    def preorder(self) -> tuple[list[int], list[int], list[int]]:
        """(order, pos, size): a preorder that enters children last first,
        each vertex's place in it and each subtree's size.

        A subtree is a run of the order: u is v or an ancestor of v iff
        ``0 <= pos[v] - pos[u] < size[u]``.
        """
        parent, root = self.parent, self.root
        n = len(parent)
        ch = self.children()
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(ch[v])
        if len(order) != n:
            raise ContractViolation(
                f"{n - len(order)} vertices do not hang off root {root}")
        pos = [0] * n
        for k, v in enumerate(order):
            pos[v] = k
        size = [1] * n
        for v in order[:0:-1]:  # children before parents, root left out
            size[parent[v]] += size[v]
        return order, pos, size


# -- generators -----------------------------------------------------------


def gen_broom(t: int, r: int, seed: int = 0, audit: bool = False) -> Graph:
    """Star of t expensive leaves at the source plus a cheap path of length r.

    Path edges weigh 1; leaf edges get distinct seeded values above r + 1, so
    the whole path is finalized before any leaf.
    """
    if t < 1 or r < 1:
        raise UsageError("broom needs t >= 1 and r >= 1")
    n = 1 + r + t
    rng = random.Random(seed)
    offsets = rng.sample(range(10 * t), t)
    pairs, values = [], []
    pairs.append((0, 1))
    values.append(1)
    for i in range(1, r):
        pairs.append((i, i + 1))
        values.append(1)
    for j in range(t):
        pairs.append((0, r + 1 + j))
        values.append(n + 42 + offsets[j])
    return _build(n, True, 0, pairs, values, audit=audit)


def gen_dense(k: int, seed: int = 0, audit: bool = False) -> Graph:
    """Oriented path of k*k vertices, each with an edge to k extra vertices.

    Path edges weigh eps = 1/(100 n^2); the cross edge from path position i
    (1-based) to extra vertex j weighs n - i + a_i[j]/n for a seeded random
    permutation a_i of 1..k, which makes every cross edge distance-forward.
    """
    if k < 1:
        raise UsageError("dense family needs k >= 1")
    n = k * k
    rng = random.Random(seed)
    eps = Fraction(1, 100 * n * n)
    pairs, values = [], []
    for i in range(n - 1):
        pairs.append((i, i + 1))
        values.append(eps)
    base = list(range(1, k + 1))
    for i in range(n):
        perm = base[:]
        rng.shuffle(perm)
        for j in range(k):
            pairs.append((i, n + j))
            values.append(n - (i + 1) + Fraction(perm[j], n))
    return _build(n + k, True, 0, pairs, values, audit=audit)


def gen_family(kind: str, n: int, seed: int = 0, audit: bool = False) -> Graph:
    """Named graph families used by the benchmarks and tests."""
    if n < 1:
        raise UsageError("families need n >= 1")
    rng = random.Random(seed)
    pairs, values = [], []
    if kind == "star":
        ws = rng.sample(range(1, 10 * n + 10), n - 1)
        for v in range(1, n):
            pairs.append((0, v))
            values.append(ws[v - 1])
    elif kind == "path":
        for v in range(n - 1):
            pairs.append((v, v + 1))
            values.append(1)
    elif kind == "fan":
        # spoke weights grow linearly while rim edges are cheap, so the
        # shortest-path tree is a path but exploration fans out from s
        for i in range(1, n):
            pairs.append((0, i))
            values.append(i)
        for i in range(1, n - 1):
            pairs.append((i, i + 1))
            values.append(Fraction(1, 2))
    elif kind in ("random_dag", "random_digraph"):
        # a random arborescence from 0, then up to 3n extra arcs: forward
        # ones (u < v) for a DAG, any non-loop for a digraph
        seen = set()
        for v in range(1, n):
            u = rng.randrange(v)
            pairs.append((u, v))
            values.append(rng.randrange(1, 1 << 20))
            seen.add((u, v))
        for _ in range(3 * n if n > 1 else 0):
            if kind == "random_dag":
                u = rng.randrange(n - 1)
                v = rng.randrange(u + 1, n)
            else:
                u = rng.randrange(n)
                v = rng.randrange(n)
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                pairs.append((u, v))
                values.append(rng.randrange(1, 1 << 20))
    else:
        raise UsageError(f"unknown family {kind!r}")
    return _build(n, True, 0, pairs, values, audit=audit)


def forward_edges(g: Graph, dist: list[int]) -> int:
    """Count distance-forward arcs: compare(d[u], d[v]) < 0, one per arc.

    For undirected graphs each doubled edge contributes exactly one forward
    arc when endpoint distances differ, matching the undirected definition.
    """
    cmp = g.arena.compare
    count = 0
    for u, v in zip(g.tails, g.heads):
        if cmp(dist[u], dist[v]) < 0:
            count += 1
    return count
