"""Comparison-optimal distance ordering for directed graphs.

The pipeline contracts away everything whose order is forced, runs the
working-set Dijkstra on the remaining core, and rebuilds the answer:

1. dominator tree of the input (iterative semi-NCA), a ``SpanningTree`` of
   immediate dominators, after its parallel edges are lazily deduplicated
   as in step 4,
2. drop every edge that points from a vertex into one of its dominators,
   its ancestors in that tree,
3. contract each maximal chain of outdegree-1 dominator-tree nodes into one
   vertex, rebuilding the weights of edges leaving chain interiors as
   protected prefix sums (additions only, zero comparisons), built only as
   deep as the last interior that such an edge leaves,
4. lazily deduplicate parallel edges: a group's minimum is paid for with
   group-size - 1 comparisons the first time anything looks at it,
5. Dijkstra with the working-set heap on the contracted core,
6. uncontract: every arc carries its origin (an input arc id, or the lazy
   group whose resolved winner names one), so each core tree arc and each
   contracted chain edge maps straight back to an input arc; a core vertex
   keeps the distance handle the core Dijkstra paid for, and only chain
   interiors are added up, one addition each down from their head, and
7. linearize from the core Dijkstra's extraction order, which is sorted and
   already paid for: each chain's interiors, sorted by their prefix sums,
   go into the part of that order after their head, spliced in with one
   comparison when they all precede it, Hwang-Lin merged otherwise.

Steps 2-4 run in one pass over the arcs, in ``contract_chains``, which
builds the core graph alone; ``drop_back_edges`` and ``deduplicate`` do steps
2 and 4 on their own.

Ties among core vertices follow the working-set heap's extraction order, and
a chain interior goes after every existing element of equal distance, so the
output is one deterministic valid linearization.  ``tree_dp_linearize``, a
bottom-up merge over the whole tree within 2 log2 of its linearization count,
is kept as a standalone routine.
Undirected inputs are rejected; the contraction argument needs directions.
"""

from __future__ import annotations

from .dijkstra import run_dijkstra
from .errors import ContractViolation, UsageError
from .graph_core import Graph, SpanningTree
from .weights import WeightArena


# -- dominator trees --------------------------------------------------------


def dominator_tree(g: Graph) -> SpanningTree:
    """The dominator tree, as immediate dominators in ``parent``.

    Semi-NCA (Georgiadis, Tarjan and Werneck 2006); all loops iterative.
    u dominates v iff u is v or an ancestor of v in this tree.
    """
    n = g.n
    s = g.s
    out_adj = g.adj
    heads = g.heads
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(heads):
        preds[v].append(g.tails[i])

    dfnum = [-1] * n
    dfnum[s] = 0
    order = [s]  # DFS preorder
    parent = [-1] * n
    ptr = [0] * n
    stack = [s]
    while stack:
        u = stack[-1]
        arcs = out_adj[u]
        while ptr[u] < len(arcs):
            v = heads[arcs[ptr[u]]]
            ptr[u] += 1
            if dfnum[v] < 0:
                dfnum[v] = len(order)
                order.append(v)
                parent[v] = u
                stack.append(v)
                break
        else:
            stack.pop()
    if len(order) != n:
        raise ContractViolation("graph has vertices unreachable from the source")

    semi = dfnum[:]  # per vertex, as DFS numbers
    ancestor = [-1] * n  # the linked forest, compressed as it is searched
    label = list(range(n))  # least-semi vertex on the compressed path
    for d in range(n - 1, 0, -1):
        w = order[d]
        best = d
        for u in preds[w]:
            if ancestor[u] != -1:
                # u is linked: compress its forest path so label[u] is exact
                path = []
                x = u
                while ancestor[ancestor[x]] != -1:
                    path.append(x)
                    x = ancestor[x]
                for x in reversed(path):
                    a = ancestor[x]
                    if semi[label[a]] < semi[label[x]]:
                        label[x] = label[a]
                    ancestor[x] = ancestor[a]
            cand = semi[label[u]]
            if cand < best:
                best = cand
        semi[w] = best
        ancestor[w] = parent[w]

    # in preorder, climb the dominator tree from w's DFS parent to the first
    # vertex numbered at most semi[w]; idom[w] is w's DFS parent until then
    idom = parent
    for w in order[1:]:
        x = idom[w]
        while dfnum[x] > semi[w]:
            x = idom[x]
        idom[w] = x
    return SpanningTree(idom, s)


# -- lazy deduplication ------------------------------------------------------


class LazyMin:
    """Minimum of a parallel-edge group, paid for on first access.

    ``resolve`` spends exactly (flat group size - 1) comparisons once, then
    caches the winning handle and the index of the winning member.  Nested
    members are resolved first, so ``spent`` counts only the group's own
    (size - 1) comparisons, never a nested group's.
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
        hs = [w if type(w) is int else w.resolve() for w in self.members]
        cmp0 = self.arena.cmp_count
        compare = self.arena.compare
        best = hs[0]
        win = 0
        for k in range(1, len(hs)):
            h = hs[k]
            if compare(h, best) < 0:
                best = h
                win = k
        self.handle = best
        self.winner = win
        self.spent = self.arena.cmp_count - cmp0
        return best


def deduplicate(g: Graph):
    """Collapse parallel arcs into lazy-minimum groups.

    Returns (simple graph, groups); a graph without parallel arcs is returned
    as it is, with no groups.  A group's LazyMin is both the new arc's weight
    and its origin; it names the winning member once resolved.  Costs zero
    comparisons now.
    """
    if not _has_parallel_arcs(g):
        return g, []
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


def drop_back_edges(g: Graph, dom: SpanningTree):
    """Remove arcs u->v where v dominates u (self-loops included).

    Such arcs can never lie on a path that first reaches their head, so
    reachability from the source is untouched.  ``run_pipeline`` no longer
    calls this: ``contract_chains`` drops the same arcs as it reads them.  It
    stays as the tests' reference for that step, and perfbench's tracer still
    wraps it and ``deduplicate`` by name; its ``drop_back_edges`` and
    ``dedup_core`` spans now read 0.
    """
    _, pos, size = dom.preorder()
    tails, heads, weights, origin = [], [], [], []
    gw, go = g.weights, g.origin
    for i, (u, v) in enumerate(zip(g.tails, g.heads)):
        if 0 <= pos[u] - pos[v] < size[v]:
            continue
        tails.append(u)
        heads.append(v)
        weights.append(gw[i])
        origin.append(go[i])
    return Graph(g.n, True, g.s, g.arena, tails, heads, weights, origin)


def contract_chains(g: Graph, dom: SpanningTree):
    """Drop back arcs, contract chains and group parallel core arcs in one pass.

    An arc u->v whose head dominates its tail (a self-loop included) is
    dropped: it never lies on a path that first reaches its head, so
    reachability from the source is untouched.  Every maximal outdegree-1
    dominator-tree chain then collapses to one vertex.  Kept edges leaving
    chain interiors get weights prefix + w built with protected additions; no
    comparisons.  A chain's prefix sums stop at its deepest member with a
    kept out-arc besides its chain arc, since no deeper prefix is read.
    ``dom`` is the dominator tree as a ``SpanningTree``; one preorder of it
    gives the chains and the back-arc and skip tests.  Verifies on every
    chain that the chain edge is its head's unique kept in-edge and that no
    edge skips from a chain vertex into the child's subtree, which leaves the
    chain arcs the only kept arcs inside a chain.  Chain heads and vertices
    in no chain become core vertices 0, 1, ... in id order.

    Core arcs keep the order of their first input arc.  Kept arcs that land
    on the same core tail and head become one core arc whose weight and origin
    is a ``LazyMin`` of their weights and origins in input arc order, paid for
    on first access as ``deduplicate``'s groups are.  Returns (core graph,
    groups, chains, the origins of the contracted chain edges, rep), where
    groups lists those LazyMins in core arc order and rep[k] is the input
    vertex behind core vertex k.
    """
    n = g.n
    order, pos, size = dom.preorder()
    # v has exactly one child iff the vertex after it in preorder is that
    # child, whose subtree is v's without v; so a chain is a maximal run of
    # the preorder in which each size is one less than the one before
    chains: list[list[int]] = []
    chain = None
    for v, c in zip(order, order[1:]):
        if size[c] == size[v] - 1:
            if chain is None:
                chain = [v]
                chains.append(chain)
            chain.append(c)
        else:
            chain = None
    chains.sort()  # by head id
    in_chain = [-1] * n  # vertex -> chain index
    for ci, chain in enumerate(chains):
        for u in chain:
            in_chain[u] = ci

    # drop u->v when v dominates u; in-arcs and out-degrees count kept arcs
    gt, gh = g.tails, g.heads
    kept: list[int] = []
    in_arcs: list[list[int]] = [[] for _ in range(n)]
    out_deg = [0] * n
    for i, (u, v) in enumerate(zip(gt, gh)):
        if 0 <= pos[u] - pos[v] < size[v]:
            continue
        kept.append(i)
        in_arcs[v].append(i)
        out_deg[u] += 1

    arena = g.arena
    add = arena.add
    adj = g.adj
    chain_origin = []
    prefix: list = [None] * n  # handle of chain-start -> vertex distance
    for chain in chains:
        # only arcs leaving interiors read prefix sums: stop at the deepest
        # member with a kept out-arc besides its own chain arc
        depth = len(chain) - 1
        if not out_deg[chain[depth]]:
            depth -= 1
            while depth and out_deg[chain[depth]] == 1:
                depth -= 1
        pref = None
        for k, (a, b) in enumerate(zip(chain, chain[1:]), 1):
            cand = in_arcs[b]
            if len(cand) != 1 or gt[cand[0]] != a:
                raise ContractViolation(
                    f"chain edge {a}->{b} is not the unique in-edge of {b}")
            # no other arc may leave a into b's dominated subtree below b (a
            # dropped arc points at a or above it, so it never does)
            for i in adj[a]:
                z = gh[i]
                if 0 < pos[z] - pos[b] < size[b]:
                    raise ContractViolation(
                        f"arc {a}->{z} skips into the subtree of {b}")
            arc = cand[0]
            chain_origin.append(g.origin[arc])
            if k <= depth:
                w = g.arc_weight(arc)
                pref = w if pref is None else add(pref, w)
                prefix[b] = pref

    # number heads and non-chain vertices first: an interior may have a
    # smaller id than its chain head
    phi = [-1] * n
    rep: list[int] = []
    for v in range(n):
        ci = in_chain[v]
        if ci < 0 or chains[ci][0] == v:
            phi[v] = len(rep)
            rep.append(v)
    for chain in chains:
        for v in chain[1:]:
            phi[v] = phi[chain[0]]

    tails, heads, weights, origin = [], [], [], []
    gw, go = g.weights, g.origin
    slot: dict[tuple[int, int], int] = {}  # (core tail, core head) -> arc
    grouped: dict[int, LazyMin] = {}  # arc -> its group, from its second member
    for i in kept:
        u = gt[i]
        v = gh[i]
        c = in_chain[u]
        if c >= 0 and c == in_chain[v]:
            continue  # a chain arc, the only kind the checks above let in
        w = gw[i]
        pre = prefix[u]
        if pre is not None:
            # interior tail: new weight is (chain prefix to u) + w
            w = add(pre, w if type(w) is int else w.resolve())
        key = (phi[u], phi[v])
        m = len(tails)
        k = slot.setdefault(key, m)
        if k == m:
            tails.append(key[0])
            heads.append(key[1])
            weights.append(w)
            origin.append(go[i])
        elif k in grouped:
            lm = grouped[k]
            lm.members.append(w)
            lm.origins.append(go[i])
        else:
            grouped[k] = weights[k] = origin[k] = LazyMin(
                arena, [weights[k], w], [origin[k], go[i]])
    groups = [grouped[k] for k in sorted(grouped)]
    core = Graph(len(rep), True, phi[g.s], arena, tails, heads, weights, origin)
    return core, groups, chains, chain_origin, rep


# -- merging and tree DP -----------------------------------------------------


def hwang_lin_merge(arena: WeightArena, a: list[int], b: list[int],
                    dist: list[int]) -> list[int]:
    """Merge two distance-sorted vertex lists with few comparisons.

    Binary merging, from the tops down.  Each step names the shorter
    remaining list x (``a`` when they are as long) and the longer list y,
    and probes y at the power-of-two offset 2^t below its top, t =
    floor(log2(|y| / |x|)).  When x's top comes first the whole block of y
    from the probe up goes out; otherwise a binary search of that block
    places x's top.  Ties place elements of ``a`` first, so x's top comes
    first iff ``compare(x_top, y_probe) < lim``, with ``lim`` 1 when x is
    ``a`` and 0 when x is ``b``.  Uses at most 2 log2 C(|a|+|b|, min)
    comparisons.
    """
    compare = arena.compare
    x, xi, y, yi, lim = a, len(a) - 1, b, len(b) - 1, 1
    out: list[int] = []  # the merged tops, largest first
    while xi >= 0 and yi >= 0:
        if xi - lim >= yi:  # keep x the shorter list, and a on equal lengths
            x, xi, y, yi, lim = y, yi, x, xi, 1 - lim
        t = ((yi + 1) // (xi + 1)).bit_length() - 1
        probe = yi - (1 << t) + 1
        top = dist[x[xi]]
        if compare(top, dist[y[probe]]) < lim:
            # the whole block y[probe..yi] goes after x's top in the order
            out.extend(y[probe : yi + 1][::-1])
            yi = probe - 1
        else:
            lo, hi = probe, yi  # the last q whose y[q] comes before x's top
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if compare(dist[y[mid]], top) < 1 - lim:
                    lo = mid
                else:
                    hi = mid - 1
            out.extend(y[lo + 1 : yi + 1][::-1])
            out.append(x[xi])
            yi = lo
            xi -= 1
    out.reverse()
    return x[: xi + 1] + y[: yi + 1] + out


def tree_distances(g: Graph, chains: list[list[int]], arc_of: list[int],
                   dist: list) -> list[int]:
    """Distance handles down each chain, built with additions only.

    ``dist`` holds the handles already paid for: every chain head's, and
    None at exactly the chain interiors.  Each interior's tree parent is its
    chain predecessor, so walking a chain down from its head fills each
    interior with its predecessor's handle plus the weight of its tree arc
    ``arc_of[v]``, one addition, and ``dist`` is returned.
    """
    add = g.arena.add
    for chain in chains:
        h = dist[chain[0]]
        for v in chain[1:]:
            h = dist[v] = add(h, g.arc_weight(arc_of[v]))
    return dist


def tree_dp_linearize(tree: SpanningTree, dist: list[int],
                      arena: WeightArena) -> list[int]:
    """Linearize a tree by bottom-up merges of child orderings.

    Reverse preorder finishes each vertex's children in increasing id order,
    and each child's ordering is merged into its parent's as it finishes.
    Total comparisons are bounded by 2 log2 Linearizations(tree).
    """
    order, _, _ = tree.preorder()
    parent = tree.parent
    merged: list = [[] for _ in order]  # v -> its finished children, merged
    for v in reversed(order):
        lst = [v] + merged[v]
        merged[v] = None
        p = parent[v]
        if p < 0:
            return lst
        merged[p] = hwang_lin_merge(arena, merged[p], lst, dist)


def merge_chains(core_order: list[int], rep: list[int],
                 chains: list[list[int]], dist: list[int],
                 arena: WeightArena) -> list[int]:
    """Linearize the input graph from the core Dijkstra's extraction order.

    Core id k stands for input vertex rep[k], as ``contract_chains`` numbered
    them.  Each chain's interiors are sorted already and belong after their
    head: the last head goes first, so earlier heads keep their positions.
    Existing elements come first on ties.  A lone interior is placed by
    binary insertion over everything after its head.  Longer chains are
    spliced in with one comparison when they all precede everything after
    the head; otherwise Hwang-Lin merges them in.
    """
    lin = [rep[c] for c in core_order]
    pos = {v: i for i, v in enumerate(lin)}
    compare = arena.compare
    for chain in sorted(chains, key=lambda c: pos[c[0]], reverse=True):
        p = pos[chain[0]] + 1
        inner = chain[1:]
        if len(inner) == 1:
            x = dist[inner[0]]
            lo, hi = p, len(lin)  # x goes after every element it ties
            while lo < hi:
                mid = (lo + hi) >> 1
                if compare(x, dist[lin[mid]]) < 0:
                    hi = mid
                else:
                    lo = mid + 1
            lin.insert(lo, inner[0])
        elif p == len(lin) or compare(dist[inner[-1]], dist[lin[p]]) < 0:
            lin[p:p] = inner
        else:
            lin[p:] = hwang_lin_merge(arena, lin[p:], inner, dist)
    return lin


# -- the full pipeline -------------------------------------------------------


class PipelineResult:
    """Everything the contraction pipeline produced, for auditing.

    ``dist`` holds the core run's own handles at core vertices (every handle
    of ``run.dist`` appears in it) and fresh sums at chain interiors, so
    ``additions`` pays for each distance once.  ``sssp_comparisons`` covers
    everything up to the uncontracted tree; ``dp_comparisons`` is the rest,
    the linearization's comparisons.  ``core_groups`` are the core graph's
    parallel-arc groups, as ``contract_chains`` returns them.
    """

    __slots__ = ("tree", "tree_arc", "linearization", "dist", "run",
                 "core_graph", "core_groups",
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

    g0, lazies0 = deduplicate(g)
    dom = dominator_tree(g0)
    core, groups, chains, chain_origin, rep = contract_chains(g0, dom)
    run = run_dijkstra(core, "workset")

    # uncontract: follow each tree arc's origin down to an input arc; every
    # group met here was resolved by the core Dijkstra or contract_chains
    tails, heads = g.tails, g.heads
    parent = [-1] * g.n
    parent_arc = [-1] * g.n
    core_origin = core.origin
    for o in [core_origin[a] for a in run.sssp_arcs if a >= 0] + chain_origin:
        while type(o) is not int:
            o.resolve()
            o = o.origins[o.winner]
        v = heads[o]
        parent[v] = tails[o]
        parent_arc[v] = o
    tree = SpanningTree(parent, g.s)
    cmp_sssp = arena.cmp_count - cmp0

    # a core vertex's distance is the core run's, already paid for; only
    # chain interiors are added up, down from their head
    dist = [None] * g.n
    for k, h in enumerate(run.dist):
        dist[rep[k]] = h
    dist = tree_distances(g, chains, parent_arc, dist)
    lin = merge_chains(run.linearization, rep, chains, dist, arena)
    cmp1, add1 = arena.counters()
    return PipelineResult(
        tree=tree,
        tree_arc=parent_arc,
        linearization=lin,
        dist=dist,
        run=run,
        core_graph=core,
        core_groups=groups,
        comparisons=cmp1 - cmp0,
        additions=add1 - add0,
        lazy_spend=sum(lm.spent for lm in lazies0) + sum(lm.spent for lm in groups),
        sssp_comparisons=cmp_sssp,
        dp_comparisons=cmp1 - cmp0 - cmp_sssp,
    )

