"""Executable lower-bound machinery for interval traces.

A run of the queue induces one closed interval per element, spanning its
insert and extract events.  The working set of interval x at time t collects
the intervals that start no earlier than x and contain t; its maximum size
|W_x| prices x's extraction at log2 |W_x| comparisons.  This module computes:

* working-set sizes (a vectorized sweep),
* cost(I) = sum of log2 |W_x|,
* the greedy intersecting coloring, whose energy 2 * sum c_i log2 c_i is a
  certified lower bound on cost(I),
* barrier-sequence validation of that coloring against the exploration tree,
* linear-extension counts of rooted trees (hook length form), and
* BFS-layer lower bounds,

and assembles them into a per-run report with every checkable inequality
flagged.  All logarithms are base 2 and 0 * log 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import Graph, SpanningTree, forward_edges

# float-sum guard for inequalities whose two sides are independent float
# accumulations of exact quantities; never applied to the greedy-energy bound
_EPS = 1e-7


def working_set_sizes(intervals: list[tuple[int, int]]) -> list[int]:
    """|W_x| for every interval, by a sweep over insertion events.

    The maximum of |W_{x,t}| is always attained at an insertion time, where
    it equals x's suffix position among alive intervals ordered by start.
    """
    n = len(intervals)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: intervals[i][0])
    events = []  # (time, is_insert, slot in start order)
    for slot, i in enumerate(order):
        l, r = intervals[i]
        events.append((l, 1, slot))
        events.append((r, 0, slot))
    events.sort()
    alive = np.zeros(n, dtype=np.int32)
    hist = np.zeros(n, dtype=np.int32)
    for _t, is_ins, slot in events:
        if is_ins:
            alive[slot] = 1
            head = alive[: slot + 1]
            cand = np.cumsum(head[::-1])[::-1]
            cand *= head
            seg = hist[: slot + 1]
            np.maximum(seg, cand, out=seg)
        else:
            alive[slot] = 0
    out = [0] * n
    for slot, i in enumerate(order):
        out[i] = int(hist[slot])
    return out


def cost(intervals: list[tuple[int, int]], sizes: list[int] | None = None) -> float:
    """cost(I) = sum over intervals of log2 |W_x|."""
    if sizes is None:
        sizes = working_set_sizes(intervals)
    return float(sum(math.log2(w) for w in sizes if w > 1))


@dataclass
class IntersectingColoring:
    """Color classes of intervals, each sharing a common witness time."""

    color: list[int]              # per interval index
    classes: list[list[int]]      # interval indices per color
    witnesses: list[int]          # per color: least time all members overlap

    def class_sizes(self) -> list[int]:
        return [len(c) for c in self.classes]


def greedy_coloring(intervals: list[tuple[int, int]]) -> IntersectingColoring:
    """Repeatedly give the largest working set a fresh color and recurse.

    The returned coloring always satisfies energy(C) >= cost(I).  Small
    residual sets use a dense alive matrix; large ones fall back to the
    event sweep, and once every working set is a singleton the rest of the
    intervals become singleton classes outright.
    """
    n = len(intervals)
    color = [-1] * n
    classes: list[list[int]] = []
    witnesses: list[int] = []
    remaining = list(range(n))
    while remaining:
        idx = sorted(remaining, key=lambda i: intervals[i][0])
        k = len(idx)
        ls = [intervals[i][0] for i in idx]
        rs = [intervals[i][1] for i in idx]
        if k <= 512:
            la = np.array(ls, dtype=np.int64)
            ra = np.array(rs, dtype=np.int64)
            # alive[y, j]: interval y (start order) is alive at start time la[j]
            alive = (la[None, :] >= la[:, None]) & (la[None, :] <= ra[:, None])
            suffix = np.cumsum(alive[::-1, :], axis=0)[::-1, :]
            scores = np.where(alive, suffix, 0)
            best = scores.max(axis=1)
            x = int(best.argmax())  # smallest start among maximizers
            best_size = int(best[x])
            j = int(scores[x].argmax())
            witness = int(la[j])
            members = [idx[y] for y in range(x, k) if alive[y, j]]
        else:
            sizes = working_set_sizes([intervals[i] for i in idx])
            x = max(range(k), key=lambda y: (sizes[y], -y))
            best_size = sizes[x]
            witness, members = _witness_and_members(ls, rs, idx, x)
        if best_size <= 1:
            # every residual working set is a singleton; finish in one shot
            for i in idx:
                cnum = len(classes)
                color[i] = cnum
                classes.append([i])
                witnesses.append(intervals[i][0])
            break
        cnum = len(classes)
        for i in members:
            color[i] = cnum
        classes.append(members)
        witnesses.append(witness)
        gone = set(members)
        remaining = [i for i in remaining if i not in gone]
    return IntersectingColoring(color, classes, witnesses)


def _witness_and_members(ls, rs, idx, pos):
    """Best time for interval at ``pos`` (start order) and who overlaps there."""
    lx, rx = ls[pos], rs[pos]
    events = []
    for y in range(pos, len(idx)):
        if ls[y] > rx:
            break  # starts are sorted; later intervals cannot matter
        events.append((ls[y], 1))
        events.append((rs[y], -1))
    events.sort()
    count = 0
    best = (0, lx)
    for t, delta in events:
        if t > rx:
            break
        count += delta
        if delta > 0 and lx <= t and count > best[0]:
            best = (count, t)
    witness = best[1]
    members = [idx[y] for y in range(pos, len(idx))
               if ls[y] <= witness <= rs[y]]
    return witness, members


def energy(coloring: IntersectingColoring) -> float:
    """2 * sum over color classes of c_i log2 c_i."""
    return float(sum(2 * c * math.log2(c) for c in coloring.class_sizes() if c > 1))


def verify_barrier_sequence(coloring: IntersectingColoring,
                            explore: SpanningTree,
                            vertex_of=None):
    """Check the coloring's classes, by witness time, form a barrier sequence.

    Classes must be antichains of the exploration tree, and no vertex of a
    later class may be an ancestor of a vertex of an earlier (or the same)
    class.  Returns None when valid, otherwise the offending pair
    ((class_i, u), (class_j, v)) with v an ancestor of u and i <= j.

    DFS intervals are laminar, so "v is an ancestor of some seen u" reduces
    to "some seen entry time lies strictly inside v's interval", answered
    with two bisections against the sorted entry times seen so far.
    """
    from bisect import bisect_right, insort

    if vertex_of is None:
        vertex_of = lambda i: i
    tin, tout = explore.dfs_times()
    order = sorted(range(len(coloring.classes)),
                   key=lambda c: coloring.witnesses[c])
    seen_tins: list[int] = []
    owner: dict[int, tuple[int, int]] = {}  # tin -> (class, vertex)

    def offender(v, tins):
        """Some entry time in ``tins`` strictly inside v's DFS interval."""
        i = bisect_right(tins, tin[v])
        if i < len(tins) and tins[i] < tout[v]:
            return tins[i]
        return None

    for c in order:
        vs = [vertex_of(i) for i in coloring.classes[c]]
        class_tins = sorted(tin[v] for v in vs)
        back = {tin[v]: v for v in vs}
        for v in vs:
            hit = offender(v, seen_tins)
            if hit is not None:
                pc, u = owner[hit]
                return ((pc, u), (c, v))
            hit = offender(v, class_tins)
            if hit is not None:
                return ((c, back[hit]), (c, v))
        for v in vs:
            insort(seen_tins, tin[v])
            owner[tin[v]] = (c, v)
    return None


def tree_log_linearizations(tree: SpanningTree) -> float:
    """log2 of the number of linear extensions, by the hook length form.

    Linearizations(T) = n! / prod over vertices of |subtree(v)|.
    """
    n = tree.n
    total = math.lgamma(n + 1) / math.log(2)
    for s in tree.subtree_sizes():
        total -= math.log2(s)
    return max(0.0, total)  # a count >= 1 never logs negative; clamp fp noise


def bfs_layers(g: Graph) -> list[list[int]]:
    """Vertices grouped by unweighted distance from the source."""
    from collections import deque

    dist = [-1] * g.n
    dist[g.s] = 0
    dq = deque([g.s])
    heads = g.heads
    while dq:
        u = dq.popleft()
        for i in g.adj[u]:
            v = heads[i]
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                dq.append(v)
    depth = max(dist)
    layers: list[list[int]] = [[] for _ in range(depth + 1)]
    for v, d in enumerate(dist):
        layers[d].append(v)
    return layers


def bfs_layer_bound(g: Graph) -> float:
    """sum over BFS layers of |B| log2 |B|: a constructive barrier bound."""
    return float(sum(len(b) * math.log2(len(b)) for b in bfs_layers(g) if len(b) > 1))


@dataclass
class BoundReport:
    """Constructive lower bounds for one run, with consistency flags.

    OPT is not computable; these are the certified lower bounds the proofs
    supply, reported next to the measured counters.
    """

    cost_I: float
    energy: float
    log2_linearizations: float
    bfs_layer_bound: float
    forward_edges: int
    forward_edge_bound: int
    comparisons: int
    additions: int
    class_sizes: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def csv_fields(self) -> list:
        return [f"{self.cost_I:.6f}", f"{self.energy:.6f}",
                f"{self.log2_linearizations:.6f}",
                f"{self.bfs_layer_bound:.6f}", self.forward_edges,
                self.comparisons, self.additions,
                "ok" if not self.violations else ";".join(self.violations)]


def bound_report(run, g: Graph) -> BoundReport:
    """Assemble every constructive bound for a finished run.

    Recounting forward edges spends comparisons on the graph's arena, so this
    runs only after the run's own counters were snapshotted.
    """
    intervals = run.intervals
    sizes = working_set_sizes(intervals)
    c = cost(intervals, sizes)
    coloring = greedy_coloring(intervals)
    e = energy(coloring)
    ll = tree_log_linearizations(run.explore)
    bb = bfs_layer_bound(g)
    fwd = forward_edges(g, run.dist)
    report = BoundReport(
        cost_I=c,
        energy=e,
        log2_linearizations=ll,
        bfs_layer_bound=bb,
        forward_edges=fwd,
        forward_edge_bound=max(0, fwd - g.n + 1),
        comparisons=run.comparisons,
        additions=run.additions,
        class_sizes=coloring.class_sizes(),
    )
    if e < c:
        report.violations.append(f"energy {e:.4f} below cost {c:.4f}")
    bad = verify_barrier_sequence(coloring, run.explore)
    if bad is not None:
        report.violations.append(f"barrier violation {bad}")
    fact_sum = sum(math.lgamma(s + 1) / math.log(2) for s in coloring.class_sizes())
    if fact_sum > ll + _EPS:
        report.violations.append(
            f"sum log2(c!)={fact_sum:.4f} exceeds log2 linearizations {ll:.4f}")
    # c log2 c <= 2 log2(c!) since c^c <= (c!)^2, so energy <= 4 sum log2(c_i!)
    if e > 4 * fact_sum + _EPS:
        report.violations.append("energy exceeds 4x factorial barrier bound")
    return report
