"""Comparison-optimal distance ordering for directed graphs.

The pipeline contracts away everything whose order is forced, runs the
working-set Dijkstra on the remaining core, and rebuilds the answer:

1. dominator tree of the input (iterative Lengauer-Tarjan),
2. drop every edge that points from a vertex into one of its dominators,
3. contract each maximal chain of outdegree-1 dominator-tree nodes into one
   vertex, rebuilding the weights of edges leaving chain interiors as
   protected prefix sums (additions only, zero comparisons),
4. lazily deduplicate parallel edges: a group's minimum is paid for with
   group-size - 1 comparisons the first time anything looks at it,
5. Dijkstra with the working-set heap on the contracted core,
6. uncontract: every arc carries its origin (an input arc id, or the lazy
   group whose resolved winner names one), so each core tree arc and each
   contracted chain edge maps straight back to an input arc, and
7. order the tree by a bottom-up merge using Hwang-Lin binary merging, whose
   total comparison count is at most 2 log2 of the tree's linearization count.

Ties between equal distances merge the accumulated list before the incoming
child list, so the output is one deterministic valid linearization.
Undirected inputs are rejected; the contraction argument needs directions.
"""

from __future__ import annotations

from .dijkstra import run_dijkstra
from .errors import ContractViolation, UsageError
from .graph_core import Graph, SpanningTree
from .weights import WeightArena


# -- dominator trees --------------------------------------------------------


class DominatorTree:
    """Immediate dominators plus DFS times for O(1) dominance queries."""

    __slots__ = ("idom", "tree", "_tin", "_tout")

    def __init__(self, idom: list[int], root: int):
        self.idom = idom
        self.tree = SpanningTree(idom, root, "dominator")
        self._tin, self._tout = self.tree.dfs_times()

    def dominates(self, u: int, v: int) -> bool:
        """True if every path from the source to v passes through u."""
        if u == v:
            return True
        return self._tin[u] < self._tin[v] and self._tout[v] < self._tout[u]


def dominator_tree(g: Graph) -> DominatorTree:
    """Lengauer-Tarjan with path compression; all loops iterative."""
    n = g.n
    s = g.s
    out_adj = g.adj
    heads = g.heads
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(heads):
        preds[v].append(g.tails[i])

    dfnum = [-1] * n
    order: list[int] = []
    parent = [-1] * n
    ptr = [0] * n
    dfnum[s] = 0
    order.append(s)
    stack = [s]
    while stack:
        u = stack[-1]
        arcs = out_adj[u]
        advanced = False
        while ptr[u] < len(arcs):
            v = heads[arcs[ptr[u]]]
            ptr[u] += 1
            if dfnum[v] < 0:
                dfnum[v] = len(order)
                order.append(v)
                parent[v] = u
                stack.append(v)
                advanced = True
                break
        if not advanced:
            stack.pop()
    if len(order) != n:
        raise ContractViolation("graph has vertices unreachable from the source")

    semi = dfnum[:]  # per vertex, as DFS numbers
    ancestor = [-1] * n
    label = list(range(n))
    idom = [-1] * n
    samedom = [-1] * n
    bucket: list[list[int]] = [[] for _ in range(n)]

    def compress_to(v: int) -> None:
        path = []
        u = v
        while ancestor[ancestor[u]] != -1:
            path.append(u)
            u = ancestor[u]
        for u in reversed(path):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]

    def evaluate(v: int) -> int:
        if ancestor[v] == -1:
            return v
        compress_to(v)
        return label[v]

    for w in reversed(order[1:]):
        p = parent[w]
        best = semi[w]
        for u in preds[w]:
            if dfnum[u] < 0:
                continue
            if dfnum[u] <= dfnum[w]:
                cand = dfnum[u]
            else:
                cand = semi[evaluate(u)]
            if cand < best:
                best = cand
        semi[w] = best
        bucket[order[best]].append(w)
        ancestor[w] = p
        for v in bucket[p]:
            y = evaluate(v)
            if semi[y] == semi[v]:
                idom[v] = p
            else:
                samedom[v] = y
        bucket[p] = []
    for w in order[1:]:
        if samedom[w] != -1:
            idom[w] = idom[samedom[w]]
    return DominatorTree(idom, s)


# -- lazy deduplication ------------------------------------------------------


class LazyMin:
    """Minimum of a parallel-edge group, paid for on first access.

    ``resolve`` spends exactly (flat group size - 1) comparisons once, then
    caches the winning handle and the index of the winning member.
    """

    __slots__ = ("arena", "members", "origins", "handle", "winner", "spent")

    def __init__(self, arena: WeightArena, members: list, origins: list):
        self.arena = arena
        self.members = members  # weight handles or nested LazyMin objects
        self.origins = origins  # members' origins: input arc ids or LazyMins
        self.handle: int | None = None
        self.winner: int | None = None
        self.spent = 0

    def resolve(self) -> int:
        if self.handle is not None:
            return self.handle
        cmp0 = self.arena.cmp_count
        compare = self.arena.compare
        members = self.members
        w = members[0]
        best = w if type(w) is int else w.resolve()
        win = 0
        for k in range(1, len(members)):
            w = members[k]
            h = w if type(w) is int else w.resolve()
            if compare(h, best) < 0:
                best = h
                win = k
        self.handle = best
        self.winner = win
        self.spent = self.arena.cmp_count - cmp0
        return best


def deduplicate(g: Graph):
    """Collapse parallel arcs into lazy-minimum groups.

    Returns (simple graph, groups).  A group's LazyMin is both the new arc's
    weight and its origin; it names the winning member once resolved.  Costs
    zero comparisons now.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(g.tails, g.heads)):
        if key in groups:
            groups[key].append(i)
        else:
            groups[key] = [i]
    tails, heads, weights, origin = [], [], [], []
    lazies: list[LazyMin] = []
    gw, go = g.weights, g.origin
    for (u, v), arcs in groups.items():
        tails.append(u)
        heads.append(v)
        if len(arcs) == 1:
            weights.append(gw[arcs[0]])
            origin.append(go[arcs[0]])
        else:
            lm = LazyMin(g.arena, [gw[i] for i in arcs], [go[i] for i in arcs])
            weights.append(lm)
            origin.append(lm)
            lazies.append(lm)
    g2 = Graph(g.n, True, g.s, g.arena, tails, heads, weights, origin)
    return g2, lazies


def _has_parallel_arcs(g: Graph) -> bool:
    return len(set(zip(g.tails, g.heads))) != g.m


# -- edge dropping and chain contraction -------------------------------------


def drop_back_edges(g: Graph, dom: DominatorTree):
    """Remove arcs u->v where v dominates u (self-loops included).

    Such arcs can never lie on a path that first reaches their head, so
    reachability from the source is untouched.
    """
    tails, heads, weights, origin = [], [], [], []
    dominates = dom.dominates
    gw, go = g.weights, g.origin
    for i, (u, v) in enumerate(zip(g.tails, g.heads)):
        if dominates(v, u):
            continue
        tails.append(u)
        heads.append(v)
        weights.append(gw[i])
        origin.append(go[i])
    return Graph(g.n, True, g.s, g.arena, tails, heads, weights, origin)


def contract_chains(g: Graph, dom: DominatorTree):
    """Collapse every maximal outdegree-1 dominator-tree chain to one vertex.

    Requires back edges to be dropped already.  Edges leaving chain interiors
    get weights prefix + w built with protected additions; no comparisons.
    Verifies on every chain that the chain edge is its head's unique in-edge
    and that no edge skips from a chain vertex into the child's subtree.
    Returns (graph, chains, the origins of the contracted chain edges).
    """
    n = g.n
    children_count = [0] * n
    for v, p in enumerate(dom.idom):
        if p >= 0:
            children_count[p] += 1
    only_child = [-1] * n
    for v, p in enumerate(dom.idom):
        if p >= 0 and children_count[p] == 1:
            only_child[p] = v

    in_chain = [-1] * n  # vertex -> chain index
    chains: list[list[int]] = []
    for v in range(n):
        if children_count[v] != 1:
            continue
        p = dom.idom[v]
        if p >= 0 and children_count[p] == 1:
            continue  # interior, not a chain head
        chain = [v]
        cur = only_child[v]
        while children_count[cur] == 1:
            chain.append(cur)
            cur = only_child[cur]
        chain.append(cur)
        ci = len(chains)
        for u in chain:
            in_chain[u] = ci
        chains.append(chain)

    in_arcs: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(g.heads):
        in_arcs[v].append(i)

    arena = g.arena
    add = arena.add
    tin, tout = dom._tin, dom._tout
    chain_arcs: set[int] = set()
    chain_origin = []
    prefix_of = {}  # original vertex -> handle of chain-start -> vertex distance
    for chain in chains:
        pref = None
        for a, b in zip(chain, chain[1:]):
            cand = in_arcs[b]
            if len(cand) != 1 or g.tails[cand[0]] != a:
                raise ContractViolation(
                    f"chain edge {a}->{b} is not the unique in-edge of {b}")
            # no other arc may leave a into b's dominated subtree
            for i in g.adj[a]:
                z = g.heads[i]
                if z != b and tin[b] <= tin[z] and tout[z] <= tout[b]:
                    raise ContractViolation(
                        f"arc {a}->{z} skips into the subtree of {b}")
            arc = cand[0]
            chain_arcs.add(arc)
            chain_origin.append(g.origin[arc])
            w = g.arc_weight(arc)
            pref = w if pref is None else add(pref, w)
            prefix_of[b] = pref

    # number heads and non-chain vertices first: an interior may have a
    # smaller id than its chain head
    phi = [-1] * n
    nxt = 0
    for v in range(n):
        ci = in_chain[v]
        if ci < 0 or chains[ci][0] == v:
            phi[v] = nxt
            nxt += 1
    for chain in chains:
        for v in chain[1:]:
            phi[v] = phi[chain[0]]

    tails, heads, weights, origin = [], [], [], []
    for i, (u, v) in enumerate(zip(g.tails, g.heads)):
        ci, cj = in_chain[u], in_chain[v]
        if ci >= 0 and ci == cj:
            if i not in chain_arcs:
                raise ContractViolation(
                    f"unexpected intra-chain arc {u}->{v}")
            continue
        w = g.weights[i]
        if ci >= 0 and u != chains[ci][0]:
            # interior tail: new weight is (chain prefix to u) + w
            wh = w if type(w) is int else w.resolve()
            w = add(prefix_of[u], wh)
        tails.append(phi[u])
        heads.append(phi[v])
        weights.append(w)
        origin.append(g.origin[i])
    g2 = Graph(nxt, True, phi[g.s], arena, tails, heads, weights, origin)
    return g2, chains, chain_origin


# -- merging and tree DP -----------------------------------------------------


def hwang_lin_merge(arena: WeightArena, a: list[int], b: list[int],
                    dist: list[int]) -> list[int]:
    """Merge two distance-sorted vertex lists with few comparisons.

    Binary merging: probe the longer list at a power-of-two offset from its
    top, swallow the whole block when it clears the shorter list's top,
    otherwise binary-insert.  Uses at most 2 log2 C(|a|+|b|, min) comparisons.
    Ties place elements of ``a`` first.
    """
    compare = arena.compare
    i = len(a) - 1
    j = len(b) - 1
    out: list[int] = []
    while i >= 0 and j >= 0:
        m = i + 1
        n = j + 1
        if m <= n:
            t = (n // m).bit_length() - 1
            probe = j - (1 << t) + 1
            if compare(dist[a[i]], dist[b[probe]]) <= 0:
                # the whole block b[probe..j] goes after a[i] in the order
                out.extend(b[probe : j + 1][::-1])
                j = probe - 1
            else:
                lo, hi = probe, j  # largest q with b[q] < a[i], b[probe] < a[i]
                while lo < hi:
                    mid = (lo + hi + 1) >> 1
                    if compare(dist[b[mid]], dist[a[i]]) < 0:
                        lo = mid
                    else:
                        hi = mid - 1
                out.extend(b[lo + 1 : j + 1][::-1])
                out.append(a[i])
                j = lo
                i -= 1
        else:
            t = (m // n).bit_length() - 1
            probe = i - (1 << t) + 1
            if compare(dist[b[j]], dist[a[probe]]) < 0:
                out.extend(a[probe : i + 1][::-1])
                i = probe - 1
            else:
                lo, hi = probe, i  # largest q with a[q] <= b[j]
                while lo < hi:
                    mid = (lo + hi + 1) >> 1
                    if compare(dist[a[mid]], dist[b[j]]) <= 0:
                        lo = mid
                    else:
                        hi = mid - 1
                out.extend(a[lo + 1 : i + 1][::-1])
                out.append(b[j])
                i = lo
                j -= 1
    if i >= 0:
        out.extend(a[i::-1])
    if j >= 0:
        out.extend(b[j::-1])
    out.reverse()
    return out


def tree_distances(g: Graph, tree: SpanningTree, arc_of: list[int]) -> list[int]:
    """Distance handles along tree paths, built with additions only."""
    arena = g.arena
    add = arena.add
    d = [0] * tree.n
    d[tree.root] = arena.zero()
    ch = tree.children()
    stack = [tree.root]
    while stack:
        u = stack.pop()
        for v in ch[u]:
            d[v] = add(d[u], g.arc_weight(arc_of[v]))
            stack.append(v)
    return d


def tree_dp_linearize(tree: SpanningTree, dist: list[int],
                      arena: WeightArena) -> list[int]:
    """Linearize a tree by bottom-up merges of child orderings.

    Total comparisons are bounded by 2 log2 Linearizations(tree).
    """
    ch = tree.children()
    post = tree._postorder()
    lists: list = [None] * tree.n
    for v in post:
        acc: list[int] = []
        for c in ch[v]:
            acc = hwang_lin_merge(arena, acc, lists[c], dist)
            lists[c] = None
        lists[v] = [v] + acc
    return lists[tree.root]


# -- the full pipeline -------------------------------------------------------


class PipelineResult:
    """Everything the contraction pipeline produced, for auditing."""

    __slots__ = ("tree", "tree_arc", "linearization", "dist", "run",
                 "core_graph", "multi_graph",
                 "comparisons", "additions", "lazy_spend",
                 "sssp_comparisons", "dp_comparisons")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def run_pipeline(g: Graph) -> PipelineResult:
    """Contract, solve the core, uncontract, and linearize."""
    if not g.directed:
        raise UsageError("the contraction pipeline handles directed graphs only")
    arena = g.arena
    cmp0, add0 = arena.counters()

    if _has_parallel_arcs(g):
        g0, lazies0 = deduplicate(g)
    else:
        g0, lazies0 = g, []
    dom = dominator_tree(g0)
    g1 = drop_back_edges(g0, dom)
    g2, _, chain_origin = contract_chains(g1, dom)
    g3, lazies3 = deduplicate(g2)
    run = run_dijkstra(g3, "workset")

    # uncontract: follow each tree arc's origin down to an input arc; every
    # group met here was resolved by the core Dijkstra or contract_chains
    tails, heads = g.tails, g.heads
    parent = [-1] * g.n
    parent_arc = [-1] * g.n
    core_origin = g3.origin
    for o in [core_origin[a] for a in run.sssp_arcs if a >= 0] + chain_origin:
        while type(o) is not int:
            o.resolve()
            o = o.origins[o.winner]
        v = heads[o]
        parent[v] = tails[o]
        parent_arc[v] = o
    tree = SpanningTree(parent, g.s, "sssp")
    cmp_sssp = arena.cmp_count - cmp0

    dist = tree_distances(g, tree, parent_arc)
    lin = tree_dp_linearize(tree, dist, arena)
    cmp1, add1 = arena.counters()
    return PipelineResult(
        tree=tree,
        tree_arc=parent_arc,
        linearization=lin,
        dist=dist,
        run=run,
        core_graph=g3,
        multi_graph=g2,
        comparisons=cmp1 - cmp0,
        additions=add1 - add0,
        lazy_spend=sum(lm.spent for lm in lazies0) + sum(lm.spent for lm in lazies3),
        sssp_comparisons=cmp_sssp,
        dp_comparisons=cmp1 - cmp0 - cmp_sssp,
    )

