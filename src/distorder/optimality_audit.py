"""Executable lower-bound machinery for interval traces.

A run of the queue induces one closed interval per element, spanning its
insert and extract events.  The working set of interval x at time t collects
the intervals that start no earlier than x and contain t; its maximum size
|W_x| prices x's extraction at log2 |W_x| comparisons.  This module computes:

* working-set sizes (one sweep with a Fenwick tree, O(n log n)),
* cost(I) = sum of log2 |W_x|,
* the greedy intersecting coloring, whose energy 2 * sum c_i log2 c_i is a
  certified lower bound on cost(I); each class splits what remains into
  the intervals before its witness and those after it, which never overlap,
  so each side is swept on its own (about one sweep per level of splits;
  still O(n * colors) at worst, as on the staircase [i, i + 1]),
* barrier-sequence validation of that coloring against the exploration tree,
* linear-extension counts of rooted trees (hook length form), and
* BFS-layer lower bounds,

and assembles them into a per-run report with every checkable inequality
flagged.  All logarithms are base 2 and 0 * log 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import ContractViolation
from .graph_core import Graph, SpanningTree, forward_edges

# float-sum guard for inequalities whose two sides are independent float
# accumulations of exact quantities; never applied to the greedy-energy bound
_EPS = 1e-7


def _check_intervals(intervals: list[tuple[int, int]]) -> None:
    """Raise :class:`ContractViolation` at the first interval with r < l."""
    for i, (l, r) in enumerate(intervals):
        if r < l:
            raise ContractViolation(
                f"interval {i} ends before it starts: ({l}, {r})")


def working_set_sizes(intervals: list[tuple[int, int]]) -> list[int]:
    """|W_x| for every interval, by one O(n log n) sweep over its events.

    Slots number the intervals from 1 in start order (ties by index), and
    inserts arrive in slot order.  While x is live, cur(x) counts the live
    slots at or after x's, |W_x| = peak(x) is the most cur(x) has been, and
    slack(x) = peak(x) - cur(x).  Two facts carry the sweep:

    * at an extract no live peak changes: extracting y lowers cur and raises
      slack by 1 for each older live x, and leaves newer ones alone;
    * at an insert the peaks that rise form a suffix: along the live slots,
      oldest to newest, slack never increases, and the insert raises cur
      for every live slot, hence the peak exactly of those of slack 0.

    Each slot j keeps a count c[j] such that the slack of every live x is
    the sum of c over the slots at or after x's, live or not.  Extracting y
    adds 1 to c[y]: y is dead from then on, and only the older live slots
    sum over it.  Let b be the newest slot of positive c (0 if none; a
    positive c is always a dead slot's).  The live slots after b have slack
    0 and the others positive slack, so an insert takes 1 from c[b] and
    records "+1 from slot b + 1 on" in a Fenwick tree (in one counter when
    b is 0).  A heap holds every slot whose c may be positive; b is its top
    once the zeros are popped.  At slot y the adds sum to one per older
    slot, one for y's own insert and one per rise of y's peak, so |W_y| is
    that prefix sum less y, plus 1, read when y is extracted.  Intervals
    are closed: at equal times inserts come before extracts, so only the
    ends are sorted, and every start at or before an end is inserted ahead
    of it.  Raises :class:`ContractViolation` at the first interval that
    ends before it starts.
    """
    _check_intervals(intervals)
    n = len(intervals)
    ls = [l for l, _ in intervals]
    order = sorted(range(n), key=ls.__getitem__)
    starts = [ls[i] for i in order]
    starts.append(math.inf)
    ends = sorted([(intervals[i][1], y) for y, i in enumerate(order, 1)])
    tree = [0] * (n + 1)  # Fenwick tree of the "+1 from slot b + 1 on" adds
    c = [0] * (n + 1)  # index 0 unused, as in tree
    cand: list[int] = []  # heap of -j, for the slots j whose c may be positive
    out = [0] * n
    everyone = 1  # the adds from slot 1 on, plus the 1 of |W_y|
    inserted = 0
    for r, y in ends:
        while starts[inserted] <= r:
            inserted += 1
            while cand and not c[-cand[0]]:
                heappop(cand)
            if cand:
                b = -cand[0]
                c[b] -= 1
                i = b + 1
                while i <= n:
                    tree[i] += 1
                    i += i & -i
            else:
                everyone += 1
        s = everyone
        i = y
        while i:
            s += tree[i]
            i &= i - 1
        out[order[y - 1]] = s - y
        if not c[y]:
            heappush(cand, -y)
        c[y] += 1
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

    No working set is computed.  The largest |W_x| among the remaining
    intervals equals the largest number of them alive at one start time:
    W_{x,t} holds only intervals alive at t, and the oldest interval alive at
    t has all of them.  The oldest live interval only moves forward in time,
    so the greedy's x (largest working set, earliest start) is the oldest
    interval alive at the earliest time t* of that maximum; t* is the
    witness, and the class is everything alive at t*.  Once no two remaining
    intervals overlap, each becomes its own class.  The returned coloring
    always satisfies energy(C) >= cost(I).  Raises
    :class:`ContractViolation` at the first interval that ends before it
    starts.

    Removing the class at t* leaves intervals that end before t* and
    intervals that start after it, and no interval of one side overlaps one
    of the other; so the greedy splits into time-disjoint parts.  Each part
    is swept once (sort its ends, walk its starts) when it is made, for its
    peak and the earliest time of that peak, and waits in a heap keyed by
    (-peak, witness).  Live parts cover disjoint stretches of time, so their
    witnesses differ and the heap pops exactly the class the greedy picks
    over all remaining intervals.  A part whose peak is 1 holds pairwise
    disjoint intervals: it waits, in start order, until every other part is
    done, and then its intervals become singleton classes.  Typically each
    level of the split tree sweeps every interval once; the worst case is
    still O(n * colors): on the staircase [i, i + 1] each class takes two
    intervals and one side is always empty.
    """
    _check_intervals(intervals)
    color = [-1] * len(intervals)
    classes: list[list[int]] = []
    witnesses: list[int] = []
    parts: list = []  # heap of (-peak, witness, members in start order, cut)
    runs: list[list[int]] = []  # parts of peak 1

    def add_part(part):
        if not part:
            return
        ls = [intervals[i][0] for i in part]
        rs = sorted(intervals[i][1] for i in part)
        best = 0
        ended = 0  # intervals ending before the current start time
        for y, l in enumerate(ls):
            while rs[ended] < l:
                ended += 1
            if y + 1 - ended > best:
                best, witness, cut = y + 1 - ended, l, y + 1
        if best <= 1:
            runs.append(part)
        else:
            # part[:cut] starts no later than the witness: no start ties it
            # past cut, or the count would have risen there
            heappush(parts, (-best, witness, part, cut))

    add_part(sorted(range(len(intervals)), key=lambda i: intervals[i][0]))
    while parts:
        _, witness, part, cut = heappop(parts)
        members, before = [], []
        for i in part[:cut]:
            if intervals[i][1] < witness:
                before.append(i)
            else:
                color[i] = len(classes)
                members.append(i)
        classes.append(members)
        witnesses.append(witness)
        add_part(before)
        add_part(part[cut:])
    runs.sort(key=lambda run: intervals[run[0]][0])
    for run in runs:
        for i in run:
            color[i] = len(classes)
            classes.append([i])
            witnesses.append(intervals[i][0])
    return IntersectingColoring(color, classes, witnesses)


def energy(coloring: IntersectingColoring) -> float:
    """2 * sum over color classes of c_i log2 c_i."""
    return float(sum(2 * c * math.log2(c) for c in coloring.class_sizes() if c > 1))


def verify_barrier_sequence(coloring: IntersectingColoring,
                            explore: SpanningTree):
    """Check the coloring's classes, by witness time, form a barrier sequence.

    Interval i is vertex i's, as in ``DijkstraRun.intervals``; every vertex
    needs a class, and every class a witness.  No vertex may be an ancestor
    of a vertex of the same or an earlier class.  Ranked by (witness, class
    index), that holds iff the rank rises strictly along every arc of the
    exploration tree.  Returns None when valid, otherwise ((class_i, u),
    (class_j, v)) for the first arc v->u, by v and then u, whose rank does
    not rise: i ranks no later than j.
    """
    ch = explore.children()
    color = coloring.color
    if len(coloring.witnesses) != len(coloring.classes):
        raise ContractViolation("classes and witnesses differ in number")
    if (len(color) != len(ch) or min(color) < 0
            or max(color) >= len(coloring.classes)):
        raise ContractViolation("a tree vertex has no class")
    rank = [0] * len(coloring.classes)
    order = sorted(range(len(rank)), key=lambda c: coloring.witnesses[c])
    for k, c in enumerate(order):
        rank[c] = k
    for v, kids in enumerate(ch):
        r = rank[color[v]]
        for u in kids:
            if rank[color[u]] <= r:
                explore.preorder()  # raises unless every vertex hangs off the root
                return ((color[u], u), (color[v], v))
    return None


def tree_log_linearizations(tree: SpanningTree) -> float:
    """log2 of the number of linear extensions, by the hook length form.

    Linearizations(T) = n! / prod over vertices of |subtree(v)|.
    """
    _, _, size = tree.preorder()
    total = math.lgamma(tree.n + 1) / math.log(2)
    for s in size:
        total -= math.log2(s)
    return max(0.0, total)  # a count >= 1 never logs negative; clamp fp noise


def bfs_layers(g: Graph) -> list[list[int]]:
    """Vertices grouped by unweighted distance from the source.

    Raises :class:`ContractViolation` naming the first vertex the source
    does not reach.
    """
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
    if -1 in dist:
        raise ContractViolation(
            f"vertex {dist.index(-1)} unreachable from source {g.s}")
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
