import math
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from distorder import comparison_optimal
from distorder.comparison_optimal import (contract_chains, deduplicate,
                                          dominator_tree, drop_back_edges,
                                          hwang_lin_merge, run_pipeline,
                                          tree_dp_linearize)
from distorder.dijkstra import run_dijkstra
from distorder.errors import ContractViolation, UsageError
from distorder.graph_core import (SpanningTree, emit_graph, gen_broom,
                                  gen_dense, gen_family, parse_graph)
from distorder.optimality_audit import (energy, greedy_coloring,
                                        tree_log_linearizations)
from distorder.weights import WeightArena
from distorder.graph_core import forward_edges

from helpers import (NESTED_GROUP_TEXT, bellman_ford, brute_idoms,
                     chain_multigraph_text, check_tree, dominates,
                     multi_graph, three_pass_contraction)

BUDGET_C1 = 64  # documented constant for the end-to-end query budget


def relabel(g, rng):
    """Re-parse g with its non-source vertex ids randomly permuted.

    Every generator gives idom(v) < v; relabelling breaks that order.
    """
    rest = [v for v in range(g.n) if v != g.s]
    perm = rest[:]
    rng.shuffle(perm)
    new_id = dict(zip(rest, perm))
    new_id[g.s] = g.s
    header, *body = emit_graph(g).splitlines()
    lines = [header]
    for ln in body:
        u, v, w = ln.split()
        lines.append(f"{new_id[int(u)]} {new_id[int(v)]} {w}")
    return parse_graph("\n".join(lines) + "\n", audit=True)


weight_tokens = st.one_of(
    st.integers(1, 12).map(str),
    st.tuples(st.integers(1, 40), st.integers(2, 6)).map(lambda t: f"{t[0]}/{t[1]}"))


@st.composite
def reachable_multigraphs(draw):
    """Edge-list text of a reachable digraph with duplicated arcs.

    A spanning tree in a drawn vertex order keeps everything reachable from
    the source 0; extra arcs (self-loops too) and copies of drawn arcs with
    fresh weights make the parallel groups.
    """
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(1, n)))
    arcs = []
    for k, v in enumerate(order):
        u = draw(st.sampled_from((0,) + tuple(order[:k])))
        arcs.append((u, v, draw(weight_tokens)))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        arcs.append((u, v, draw(weight_tokens)))
    for _ in range(draw(st.integers(1, 2 * n))):
        u, v, _w = draw(st.sampled_from(arcs))
        arcs.append((u, v, draw(weight_tokens)))
    arcs = draw(st.permutations(arcs))
    return f"{n} {len(arcs)} 0 directed\n" + "".join(
        f"{u} {v} {w}\n" for u, v, w in arcs)


def assert_matches_bellman_ford(g, res):
    d = bellman_ford(g)
    assert [g.arena.audit_value(h) for h in res.dist] == d
    lv = [d[v] for v in res.linearization]
    assert lv == sorted(lv)
    assert sorted(res.linearization) == list(range(g.n))


class TestDominators:
    def test_path(self):
        g = parse_graph("3 2 0 directed\n0 1 1\n1 2 1\n")
        dt = dominator_tree(g)
        assert dt.parent == [-1, 0, 1]

    def test_diamond(self):
        g = parse_graph("4 4 0 directed\n0 1 1\n0 2 1\n1 3 1\n2 3 1\n")
        dt = dominator_tree(g)
        assert dt.parent[3] == 0
        assert dominates(dt, 0, 3) and not dominates(dt, 1, 3)

    def test_small_digraphs_vs_oracle(self):
        rng = random.Random(0)
        for trial in range(800):
            n = rng.randrange(2, 7)
            g = gen_family("random_digraph", n, seed=trial)
            dt = dominator_tree(g)
            assert dt.parent == brute_idoms(g), (trial,)

    def test_medium_digraphs_vs_oracle(self):
        rng = random.Random(1)
        for trial in range(25):
            n = rng.randrange(10, 120)
            g = gen_family("random_digraph", n, seed=5000 + trial)
            dt = dominator_tree(g)
            assert dt.parent == brute_idoms(g), (trial,)

    def test_structured_families_vs_oracle(self):
        rng = random.Random(3)
        graphs = [gen_dense(k, seed=k) for k in range(2, 7)]
        graphs += [gen_broom(t, r, seed=t) for t in (1, 3, 6) for r in (1, 4, 9)]
        graphs += [gen_family(kind, n, seed=n) for kind in
                   ("path", "fan", "star", "random_dag") for n in (2, 5, 17)]
        graphs.append(gen_family("path", 1))
        for trial in range(60):
            # a random spanning tree keeps everything reachable; extra arcs
            # bring self-loops, parallel copies and back arcs
            n = rng.randrange(2, 14)
            arcs = [(rng.randrange(v), v) for v in range(1, n)]
            arcs += [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randrange(2 * n))]
            arcs += rng.choices(arcs, k=rng.randrange(1, n))
            g = parse_graph(f"{n} {len(arcs)} 0 directed\n" + "".join(
                f"{u} {v} {rng.randrange(1, 9)}\n" for u, v in arcs), audit=True)
            graphs.append(relabel(g, rng))
        for i, g in enumerate(graphs):
            assert dominator_tree(g).parent == brute_idoms(g), (i,)


class TestDropBackEdges:
    def test_path_with_back_edge(self):
        g = parse_graph("3 3 0 directed\n0 1 1\n1 2 1\n2 1 5\n")
        dt = dominator_tree(g)
        g2 = drop_back_edges(g, dt)
        assert g2.m == 2 and g2.origin == [0, 1]

    def test_dag_unchanged(self):
        g = gen_family("random_dag", 40, seed=3)
        dt = dominator_tree(g)
        g2 = drop_back_edges(g, dt)
        assert g2.m == g.m

    def test_no_dominated_heads_remain(self):
        rng = random.Random(2)
        for trial in range(30):
            g = gen_family("random_digraph", rng.randrange(3, 60), seed=trial)
            dt = dominator_tree(g)
            g2 = drop_back_edges(g, dt)
            for u, v in zip(g2.tails, g2.heads):
                assert not dominates(dt, v, u)


class TestContraction:
    def test_pure_path_collapses_to_point(self):
        g = gen_family("path", 9)
        dt = dominator_tree(g)
        g1 = drop_back_edges(g, dt)
        g2, _, chains, chain_origin, rep = contract_chains(g1, dt)
        assert g2.n == 1 and g2.m == 0
        assert chains == [list(range(9))]
        assert chain_origin == list(range(8))
        assert rep == [0]

    def test_broom_keeps_star_collapses_path(self):
        t, r = 5, 12
        g = gen_broom(t, r, seed=0)
        dt = dominator_tree(g)
        g1 = drop_back_edges(g, dt)
        g2, _, chains, _, rep = contract_chains(g1, dt)
        assert g2.n == t + 2  # s, the path supernode, and the leaves
        assert chains == [list(range(1, r + 1))]
        assert rep == [0, 1] + list(range(r + 1, r + t + 1))

    @pytest.mark.parametrize("leaver, adds", [(1, 0), (2, 1), (3, 2), (4, 3)])
    def test_prefix_sums_stop_at_the_last_leaving_arc(self, leaver, adds):
        # chain 1 -> 2 -> 3 -> 4 with one arc leaving member `leaver` for 5:
        # prefixes reach only that member (the first is the arc weight
        # itself), plus one addition for the leaving arc's new weight
        g = parse_graph(f"6 6 0 directed\n0 1 1\n1 2 2\n2 3 3\n3 4 4\n"
                        f"0 5 100\n{leaver} 5 1\n", audit=True)
        dt = dominator_tree(g)
        g1 = drop_back_edges(g, dt)
        a0 = g.arena.add_count
        g2, _, chains, _, _ = contract_chains(g1, dt)
        assert chains == [[1, 2, 3, 4]]
        assert g.arena.add_count - a0 == adds
        w = {(g2.tails[i], g2.heads[i]): g.arena.audit_value(g2.arc_weight(i))
             for i in range(g2.m)}
        assert w[1, 2] == 1 + [0, 2, 5, 9][leaver - 1]
        assert_matches_bellman_ford(g, run_pipeline(g))

    def test_contracted_domtree_matches_recomputation(self):
        rng = random.Random(4)
        for trial in range(40):
            g = gen_family("random_digraph", rng.randrange(2, 80), seed=trial)
            dt = dominator_tree(g)  # simple input: no pre-deduplication needed
            g1 = drop_back_edges(g, dt)
            g2, _, chains, _, core_rep = contract_chains(g1, dt)
            # collapse each chain onto its head; survivors keep id order
            rep = list(range(g.n))
            for chain in chains:
                for v in chain[1:]:
                    rep[v] = chain[0]
            new_id = {v: k for k, v in enumerate(
                v for v in range(g.n) if rep[v] == v)}
            assert core_rep == list(new_id)
            idom2 = [-1] * len(new_id)
            for v, p in enumerate(dt.parent):
                if p >= 0 and rep[v] != rep[p]:
                    idom2[new_id[rep[v]]] = new_id[rep[p]]
            assert dominator_tree(g2).parent == idom2
            # no outdegree-1 nodes remain
            ch = SpanningTree(idom2, new_id[g.s]).children()
            assert all(len(c) != 1 for c in ch)
            # vertex count drops by exactly the number of contracted edges
            contracted_edges = sum(len(c) - 1 for c in chains)
            assert g2.n == g1.n - contracted_edges

    def test_rejects_a_second_in_arc_of_a_chain_vertex(self):
        # the parallel arcs 0->1 are left ungrouped, so 1 has two in-arcs
        g = parse_graph("3 3 0 directed\n0 1 1\n0 1 2\n1 2 1\n")
        with pytest.raises(ContractViolation,
                           match="chain edge 0->1 is not the unique in-edge of 1"):
            contract_chains(g, dominator_tree(g))

    def test_rejects_an_arc_that_skips_down_the_chain(self):
        # in the path tree 0 -> 1 -> 2 the arc 0->2 skips over 1, which a
        # dominator tree of this graph would not allow
        g = parse_graph("3 3 0 directed\n0 1 1\n1 2 1\n0 2 5\n")
        with pytest.raises(ContractViolation,
                           match="arc 0->2 skips into the subtree of 1"):
            contract_chains(g, SpanningTree([-1, 0, 1], 0))


def weight_data(arena, w):
    """A weight as plain data: a handle as its cell index, so two arenas that
    did the same work agree, and a LazyMin as its members' and origins' data
    in order."""
    if type(w) is int:
        return w - arena.zero()
    return (tuple(weight_data(arena, m) for m in w.members),
            tuple(origin_data(arena, o) for o in w.origins))


def origin_data(arena, o):
    return o if type(o) is int else weight_data(arena, o)


def contraction_data(g, core, groups, chains, chain_origin, rep):
    """A contraction's results as plain data, with the arena's counters."""
    a = g.arena
    return {"n": core.n, "s": core.s, "tails": core.tails, "heads": core.heads,
            "weights": [weight_data(a, w) for w in core.weights],
            "origins": [origin_data(a, o) for o in core.origin],
            "groups": [weight_data(a, lm) for lm in groups], "chains": chains,
            "chain_origin": [origin_data(a, o) for o in chain_origin],
            "rep": rep, "additions": a.add_count, "comparisons": a.cmp_count}


def arc_multiset(g):
    return Counter((u, v, weight_data(g.arena, w), origin_data(g.arena, o))
                   for u, v, w, o in zip(g.tails, g.heads, g.weights, g.origin))


def contract_both_ways(text):
    """``contract_chains`` and the three-pass reference on fresh parses."""
    out = []
    for contract in (contract_chains,
                     lambda g0, dom: three_pass_contraction(g0, dom)[:5]):
        g = parse_graph(text)
        g0, _ = deduplicate(g)
        out.append(contraction_data(g, *contract(g0, dominator_tree(g0))))
    return out


class TestOnePassContraction:
    """``contract_chains`` equals drop_back_edges, contraction, deduplicate."""

    def test_matches_three_passes_on_random_digraphs(self):
        rng = random.Random(20)
        seen = {"back arcs": 0, "input groups": 0, "core groups": 0,
                "nested groups": 0, "additions": 0}
        for trial in range(200):
            text = chain_multigraph_text(rng, rng.randrange(2, 16))
            new, ref = contract_both_ways(text)
            assert new == ref, (trial, text)
            g = parse_graph(text)
            g0, lazies0 = deduplicate(g)
            dom = dominator_tree(g0)
            core, groups = contract_chains(g0, dom)[:2]
            seen["back arcs"] += drop_back_edges(g0, dom).m < g0.m
            seen["input groups"] += bool(lazies0)
            seen["core groups"] += bool(groups)
            seen["nested groups"] += any(type(w) is not int for lm in groups
                                         for w in lm.members)
            seen["additions"] += new["additions"] > 0
        # the corpus reaches every case the one pass merges
        assert min(seen.values()) >= 10, seen

    def test_lazy_spend_counts_a_nested_group_once(self):
        # one comparison inside the input pair, one in the core group
        res = run_pipeline(parse_graph(NESTED_GROUP_TEXT))
        [group] = res.core_groups
        assert type(group.members[0]) is comparison_optimal.LazyMin
        assert [group.spent, group.members[0].spent] == [1, 1]
        assert res.lazy_spend == 2

    def test_lazy_spend_is_what_the_outermost_resolves_compare(
            self, monkeypatch):
        resolve = comparison_optimal.LazyMin.resolve
        depth = [0]
        inside = [0]

        def outermost(lm):
            cmp0 = lm.arena.cmp_count
            depth[0] += 1
            h = resolve(lm)
            depth[0] -= 1
            if not depth[0]:
                inside[0] += lm.arena.cmp_count - cmp0
            return h

        monkeypatch.setattr(comparison_optimal.LazyMin, "resolve", outermost)
        rng = random.Random(20)
        nested = 0
        for trial in range(200):
            text = chain_multigraph_text(rng, rng.randrange(2, 16))
            inside[0] = 0
            res = run_pipeline(parse_graph(text))
            assert res.lazy_spend == inside[0], (trial, text)
            nested += any(type(w) is not int for lm in res.core_groups
                          for w in lm.members)
        assert nested >= 10

    def test_back_arcs_leaving_a_chain_are_not_out_arcs(self):
        # chain 1 -> 2 -> 3 -> 4; 2 -> 5 is the only kept arc leaving an
        # interior, so prefixes stop at 2 and only 2 -> 5 costs an addition.
        # The back arcs 3 -> 1 and 4 -> 2 would each deepen the prefixes if
        # they counted as out-arcs, and 3 -> 2 would break 2's unique in-arc
        text = ("6 8 0 directed\n0 1 1\n1 2 2\n2 3 3\n3 4 4\n0 5 100\n"
                "2 5 1\n3 1 5\n4 2 5\n")
        new, ref = contract_both_ways(text)
        assert new == ref
        assert new["chains"] == [[1, 2, 3, 4]] and new["additions"] == 1
        text = text.replace("6 8", "6 9") + "3 2 1\n"
        assert contract_both_ways(text)[0]["additions"] == 1
        g = parse_graph(text, audit=True)
        assert_matches_bellman_ford(g, run_pipeline(g))

    def test_parallel_arcs_made_by_contraction_group_in_arc_order(self):
        # 2 -> 5 and 1 -> 5 both become core arc 1 -> 3 once chain
        # 1 -> 2 -> 3 collapses; the input pair 0 -> 5 is one input group
        text = ("6 8 0 directed\n0 5 9\n2 5 1\n0 1 1\n1 2 1\n2 3 1\n"
                "1 5 4\n0 5 8\n0 4 1\n")
        new, ref = contract_both_ways(text)
        assert new == ref
        g = parse_graph(text)
        g0, _ = deduplicate(g)
        core, groups, chains, _, rep = contract_chains(g0, dominator_tree(g0))
        assert chains == [[1, 2, 3]] and rep == [0, 1, 4, 5]
        assert list(zip(core.tails, core.heads)) == [(0, 3), (1, 3), (0, 1),
                                                      (0, 2)]
        assert [lm.origins for lm in groups] == [[1, 5]]
        assert groups[0] is core.weights[1] is core.origin[1]
        assert core.weights[0].origins == [0, 6]  # the input group


class TestDedup:
    def test_parallel_pair_lazy_cost(self):
        g = parse_graph("2 2 0 directed\n0 1 3\n0 1 5\n", audit=True)
        g2, lazies = deduplicate(g)
        assert g2.m == 1 and len(lazies) == 1
        assert g2.origin == lazies and lazies[0].origins == [0, 1]
        assert g.arena.cmp_count == 0  # nothing spent yet
        h = g2.arc_weight(0)
        assert g.arena.cmp_count == 1 and lazies[0].spent == 1
        assert g.arena.audit_value(h) == 3
        g2.arc_weight(0)
        assert g.arena.cmp_count == 1  # cached

    def test_no_parallels_zero_cost(self):
        g = gen_family("random_dag", 30, seed=5)
        g2, lazies = deduplicate(g)
        assert g2 is g and not lazies

    def test_grouped_random_spend(self):
        rng = random.Random(6)
        lines = []
        m = 0
        groups = {}
        for _ in range(40):
            u, v = rng.randrange(5), rng.randrange(1, 6)
            if u == v:
                continue
            lines.append(f"{u} {v} {rng.randrange(1, 100)}")
            groups[(u, v)] = groups.get((u, v), 0) + 1
            m += 1
        lines = [f"0 1 1"] + lines  # keep everything reachable via a cheap arc
        groups[(0, 1)] = groups.get((0, 1), 0) + 1
        m += 1
        text = f"6 {m + 4} 0 directed\n" + "\n".join(
            lines + [f"1 2 9", f"2 3 9", f"3 4 9", f"4 5 9"])
        for k in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            groups[k] = groups.get(k, 0) + 1
        g = parse_graph(text, audit=True)
        g2, lazies = deduplicate(g)
        for lm in lazies:
            lm.resolve()
        want = sum(c - 1 for c in groups.values() if c > 1)
        assert sum(lm.spent for lm in lazies) == want


class TestHwangLin:
    def bound(self, a, b):
        return 2 * math.log2(math.comb(len(a) + len(b), min(len(a), len(b))))

    def merge(self, avals, bvals):
        arena = WeightArena()
        dist = [arena.intern(v) for v in avals + bvals]
        a = list(range(len(avals)))
        b = [len(avals) + i for i in range(len(bvals))]
        arena.reset_counters()
        out = hwang_lin_merge(arena, a, b, dist)
        vals = [(avals + bvals)[i] for i in out]
        return out, vals, arena.cmp_count

    def test_empty_side_costs_nothing(self):
        out, vals, cmp = self.merge([], [3, 4, 5])
        assert vals == [3, 4, 5] and cmp == 0

    def test_single_into_seven(self):
        out, vals, cmp = self.merge([4], [1, 2, 3, 5, 6, 7, 8])
        assert vals == sorted(vals)
        assert cmp <= 6  # 2 log2 C(8, 1)

    def test_random_pairs_sorted_and_bounded(self):
        rng = random.Random(8)
        for _ in range(400):
            la = rng.randrange(0, 80)
            lb = rng.randrange(1, 80)
            avals = sorted(rng.randrange(10**6) for _ in range(la))
            bvals = sorted(rng.randrange(10**6) for _ in range(lb))
            out, vals, cmp = self.merge(avals, bvals)
            assert vals == sorted(avals + bvals)
            if la or lb:
                assert cmp <= self.bound(avals, bvals) + 1e-9

    def test_ties_keep_first_list_first(self):
        out, vals, cmp = self.merge([5, 5], [5, 5, 5])
        assert out == [0, 1, 2, 3, 4]  # both a's precede every equal b
        out, vals, cmp = self.merge([5, 5, 5], [5, 5])
        assert out == [0, 1, 2, 3, 4]  # and so they do when a is the longer
        rng = random.Random(29)
        for _ in range(2000):
            # few distinct values, so most comparisons tie
            avals = sorted(rng.randrange(3) for _ in range(rng.randrange(12)))
            bvals = sorted(rng.randrange(3) for _ in range(rng.randrange(12)))
            out, vals, cmp = self.merge(avals, bvals)
            # a stable sort of a + b is the reference merge: a first on ties
            ids = range(len(avals) + len(bvals))
            assert out == sorted(ids, key=(avals + bvals).__getitem__)


class TestTreeDP:
    def test_path_tree_zero(self):
        g = gen_family("path", 30)
        res = run_pipeline(g)
        assert res.dp_comparisons == 0

    def test_star_tree_sorts(self):
        n = 64
        g = gen_family("star", n, seed=9, audit=True)
        res = run_pipeline(g)
        assert res.dp_comparisons <= 2 * math.log2(math.factorial(n - 1))
        d = bellman_ford(g)
        assert [d[v] for v in res.linearization] == sorted(d)

    def test_random_trees_within_linearization_budget(self):
        rng = random.Random(10)
        for trial in range(60):
            n = rng.randrange(2, 300)
            parent = [-1] + [rng.randrange(v) for v in range(1, n)]
            tree = SpanningTree(parent, 0)
            arena = WeightArena()
            arc_w = [None] + [arena.intern(rng.randrange(1, 1 << 30))
                              for _ in range(n - 1)]
            # distances along tree edges, additions only
            d = [None] * n
            d[0] = arena.zero()
            order = [0]
            ch = tree.children()
            for v in order:
                for c in ch[v]:
                    d[c] = arena.add(d[v], arc_w[c])
                    order.append(c)
            arena.reset_counters()
            lin = tree_dp_linearize(tree, d, arena)
            assert arena.cmp_count <= 2 * tree_log_linearizations(tree) + 1e-9
            pos = {v: i for i, v in enumerate(lin)}
            assert all(pos[parent[v]] < pos[v] for v in range(1, n))


class TestPipeline:
    def test_rejects_undirected(self):
        g = parse_graph("2 1 0 undirected\n0 1 1\n")
        with pytest.raises(UsageError):
            run_pipeline(g)

    def test_path_zero_comparisons(self):
        for n in (2, 3, 50, 700):
            g = gen_family("path", n)
            res = run_pipeline(g)
            assert res.comparisons == 0
            assert res.linearization == list(range(n))

    def test_broom_cost_stays_near_t_log_n(self):
        t = 32
        costs = {}
        sssp_costs = {}
        for r in (252, 4032):
            g = gen_broom(t, r, seed=3)
            res = run_pipeline(g)
            n = g.n
            costs[r] = res.comparisons
            sssp_costs[r] = res.sssp_comparisons
            assert res.comparisons <= 4 * t * math.log2(n)
        # the SSSP phase never looks at the contracted path: exactly r-free
        assert sssp_costs[252] == sssp_costs[4032]
        # the ordering phase pays only the log r merge factor on top
        assert costs[4032] <= 2 * costs[252]
        assert costs[4032] <= gen_broom(t, 4032, seed=3).n / 4  # sublinear in n

    def test_random_digraphs_match_bellman_ford(self):
        rng = random.Random(11)
        for trial in range(80):
            n = rng.randrange(2, 90)
            g = gen_family("random_digraph", n, seed=700 + trial, audit=True)
            res = run_pipeline(g)
            d = bellman_ford(g)
            got = [g.arena.audit_value(h) for h in res.dist]
            assert got == d
            check_tree(res.tree)
            lv = [d[v] for v in res.linearization]
            assert lv == sorted(lv)
            assert sorted(res.linearization) == list(range(n))

    def test_matches_reference_dijkstra_under_distinct_distances(self):
        rng = random.Random(12)
        done = 0
        trial = 0
        while done < 30:
            trial += 1
            g = gen_family("random_digraph", rng.randrange(2, 60),
                           seed=900 + trial, audit=True)
            d = bellman_ford(g)
            if len(set(d)) != g.n:
                continue
            res = run_pipeline(g)
            ref = run_dijkstra(gen_family("random_digraph", g.n,
                                          seed=900 + trial, audit=True))
            assert res.linearization == ref.linearization
            done += 1

    def test_dedup_budget_against_forward_recount(self):
        rng = random.Random(13)
        for trial in range(40):
            g = gen_family("random_digraph", rng.randrange(2, 70),
                           seed=1300 + trial, audit=True)
            res = run_pipeline(g)
            g2 = multi_graph(res.core_graph, res.core_groups)
            dist2 = res.run.dist  # same vertex ids as the multigraph
            fwd = forward_edges(g2, dist2)
            assert res.lazy_spend <= max(0, fwd - g2.n + 1)

    def test_multi_graph_expands_the_core_groups(self):
        # the acceptance suite's pipeline corpus and criterion 12's dense
        # graphs, against the multigraph of the three-pass contraction
        rng = random.Random(7)
        graphs = [gen_family("random_digraph", rng.randrange(2, 301),
                             seed=90_000 + trial, audit=True)
                  for trial in range(500)]
        graphs += [gen_dense(4, seed=1, audit=True),
                   gen_dense(6, seed=2, audit=True)]
        grouped = 0
        for g in graphs:
            ref = parse_graph(emit_graph(g), audit=True)
            g0, _ = deduplicate(ref)
            multi = three_pass_contraction(g0, dominator_tree(g0))[5]
            res = run_pipeline(g)
            g2 = multi_graph(res.core_graph, res.core_groups)
            assert (g2.n, g2.s) == (multi.n, multi.s)
            assert arc_multiset(g2) == arc_multiset(multi)
            dist, compare = res.run.dist, g.arena.compare
            assert forward_edges(g2, dist) == sum(
                compare(dist[u], dist[v]) < 0
                for u, v in zip(multi.tails, multi.heads))
            grouped += bool(res.core_groups)
        assert grouped >= 200  # 236 of the 502 runs group core arcs

    def test_query_budget_for_sssp_phase(self):
        rng = random.Random(14)
        for trial in range(40):
            fam = ("random_digraph", "random_dag", "star", "fan")[trial % 4]
            g = gen_family(fam, rng.randrange(2, 80), seed=1500 + trial,
                           audit=True)
            res = run_pipeline(g)
            e = energy(greedy_coloring(res.run.intervals))
            fwd = forward_edges(g, res.dist)
            bound = BUDGET_C1 * (e + res.core_graph.n + max(0, fwd - g.n + 1) + 1)
            assert res.sssp_comparisons <= bound
            full_bound = bound + BUDGET_C1 * 2 * tree_log_linearizations(res.tree)
            assert res.comparisons <= full_bound

    def test_dense_counterexample_structure(self):
        k = 5
        g = gen_dense(k, seed=1, audit=True)
        res = run_pipeline(g)
        # the whole path beyond the source collapses into one supernode
        assert res.core_graph.n == k + 2
        d = bellman_ford(g)
        assert [g.arena.audit_value(h) for h in res.dist] == d

    def test_chain_interior_numbered_before_head(self):
        # chain 3 -> 2 -> 1 has its head 3 after its interiors 2 and 1
        g = parse_graph("5 5 0 directed\n0 3 1\n3 2 1\n2 1 1\n0 4 10\n"
                        "2 4 1/2\n", audit=True)
        res = run_pipeline(g)
        assert res.linearization == [0, 3, 2, 4, 1]
        assert_matches_bellman_ford(g, res)

    def test_relabelled_graphs_match_bellman_ford(self):
        rng = random.Random(15)
        for trial in range(60):
            g = gen_family("random_digraph", rng.randrange(3, 60),
                           seed=1700 + trial)
            g = relabel(g, rng)
            assert_matches_bellman_ford(g, run_pipeline(g))
        for t, r in ((3, 5), (5, 19), (7, 41)):
            g = relabel(gen_broom(t, r, seed=t), rng)
            assert_matches_bellman_ford(g, run_pipeline(g))

    @given(reachable_multigraphs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_parallel_input_arcs_match_bellman_ford(self, text):
        g = parse_graph(text, audit=True)
        res = run_pipeline(g)
        assert_matches_bellman_ford(g, res)
        d = bellman_ford(g)
        for v in range(g.n):
            if v == g.s:
                continue
            a, p = res.tree_arc[v], res.tree.parent[v]
            assert 0 <= a < g.m
            assert (g.tails[a], g.heads[a]) == (p, v)
            assert g.arena.audit_value(g.weights[a]) + d[p] == d[v]

    @pytest.mark.parametrize("make", [
        partial(gen_family, "path", 200),
        partial(gen_family, "star", 300, seed=2),
        partial(gen_broom, 44, 44 * 44 - 44 - 1, seed=0),
        partial(gen_broom, 45, 45 * 45 - 45 - 1, seed=0),
    ], ids=["path-200", "star-300", "broom-44", "broom-45"])
    def test_each_distance_is_added_once(self, make):
        # no arc leaves a chain interior, so no prefix sum is built, and the
        # core vertices keep the core run's distances
        g = make()
        res = run_pipeline(g)
        assert res.additions == g.n - 1

    def test_core_run_handles_are_reused(self):
        rng = random.Random(16)
        for trial in range(30):
            g = gen_family("random_digraph", rng.randrange(2, 80),
                           seed=1900 + trial, audit=True)
            res = run_pipeline(g)
            assert set(res.run.dist) <= set(res.dist)
            assert_matches_bellman_ford(g, res)
        g = gen_dense(6, seed=0, audit=True)
        res = run_pipeline(g)
        assert set(res.run.dist) <= set(res.dist)
        assert_matches_bellman_ford(g, res)

    def test_linearization_sorted_by_distance(self):
        g = gen_family("star", 12, seed=4, audit=True)
        lin = run_pipeline(g).linearization
        d = bellman_ford(g)
        assert [d[v] for v in lin] == sorted(d)


class TestLinearization:
    """The order comes from the core Dijkstra plus one merge per chain."""

    def test_pinned_comparison_counts(self):
        # exact pipeline comparison counts on fixed inputs; a change to the
        # contraction or to the chain merges moves them
        def pipeline_cmp(g):
            return run_pipeline(g).comparisons

        assert pipeline_cmp(gen_family("random_digraph", 2000, seed=0)) == 32027
        assert pipeline_cmp(gen_broom(44, 44 * 44 - 44 - 1, seed=0)) == 279
        assert pipeline_cmp(gen_broom(45, 45 * 45 - 45 - 1, seed=0)) == 284
        assert pipeline_cmp(gen_dense(16, seed=0)) == 4191
        assert pipeline_cmp(gen_family("star", 1501, seed=0)) == 21655

    def test_no_more_than_workset_dijkstra(self):
        makers = [partial(gen_family, kind, 2000, seed=seed)
                  for kind in ("random_digraph", "random_dag")
                  for seed in range(3)]
        makers += [partial(gen_broom, t, t * t - t - 1, seed=0) for t in (44, 45)]
        makers += [partial(gen_dense, k, seed=0) for k in (8, 16)]
        for make in makers:
            res = run_pipeline(make())
            assert res.comparisons <= run_dijkstra(make(), "workset").comparisons

    def test_star_linearization_is_free(self):
        # no chains: the core order is the answer
        res = run_pipeline(gen_family("star", 1501, seed=0))
        assert res.dp_comparisons == 0
        assert res.linearization == res.run.linearization

    def test_brooms_splice_with_one_comparison(self):
        for t in (44, 45):
            g = gen_broom(t, t * t - t - 1, seed=0, audit=True)
            res = run_pipeline(g)
            assert res.dp_comparisons == 1
            assert_matches_bellman_ford(g, res)

    def test_interiors_interleave_with_core(self, monkeypatch):
        # chain 1 -> 2 -> 3 (distances 1, 3, 5) against the core vertices
        # 4 and 5 (distances 3, 5): the splice test fails and the interiors
        # are merged in, each after the core vertex of equal distance
        calls = []

        def merge(arena, a, b, dist):
            calls.append((list(a), list(b)))
            return hwang_lin_merge(arena, a, b, dist)
        monkeypatch.setattr(comparison_optimal, "hwang_lin_merge", merge)
        g = parse_graph("6 5 0 directed\n0 1 1\n1 2 2\n2 3 2\n0 4 3\n"
                        "0 5 5\n", audit=True)
        res = run_pipeline(g)
        assert calls == [([4, 5], [2, 3])]
        assert res.linearization == [0, 1, 4, 2, 5, 3]
        assert_matches_bellman_ford(g, res)
