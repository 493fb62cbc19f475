import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from distorder import graph_core
from distorder.comparison_optimal import tree_dp_linearize
from distorder.errors import ContractViolation, GraphParseError, UsageError
from distorder.graph_core import (SpanningTree, emit_graph, forward_edges,
                                  gen_broom, gen_dense, gen_family,
                                  parse_graph)
from distorder.dijkstra import run_dijkstra
from distorder.optimality_audit import (IntersectingColoring,
                                        tree_log_linearizations,
                                        verify_barrier_sequence)
from distorder.weights import WeightArena

from helpers import bellman_ford


def _decimal_token(whole, frac):
    tok = f"{whole}.{frac:03d}"
    return tok, Fraction(tok)


weight_tokens = st.one_of(
    st.integers(1, 10**12).map(lambda v: (str(v), v)),
    st.builds(_decimal_token, st.integers(0, 10**6), st.integers(1, 999)),
    # denominators up to 2**70 push the arena past its bound, onto the
    # unscaled fallback
    st.builds(lambda p, q: (f"{p}/{q}", Fraction(p, q)), st.integers(1, 10**9),
              st.one_of(st.integers(1, 60), st.integers(1, 2**70))),
)


class TestParse:
    def test_minimal_directed(self):
        g = parse_graph("2 1 0 directed\n0 1 3.5\n")
        assert g.n == 2 and g.m == 1 and g.directed

    def test_zero_weight_rejected(self):
        for w, shown in (("0", "0"), ("-3", "-3"), ("-1/2", "-1/2"),
                         ("0/3", "0"), ("-2.5", "-5/2"), ("-4/2", "-2")):
            with pytest.raises(GraphParseError,
                               match=f"weight {shown} is not positive") as ei:
                parse_graph(f"3 2 0 directed\n0 1 1\n1 2 {w}\n")
            assert ei.value.lineno == 3

    def test_line_numbers_count_blank_lines(self):
        cases = (("2 1 0 directed\n\n0 1 -3\n", 3),  # non-positive weight
                 ("3 2 0 directed\n0 1 1\n\n\n1 2 0\n", 5),
                 ("2 1 0 directed\n\n0 x 1\n", 3),  # bad token
                 ("3 2 0 directed\n0 1 1\n \n1 2 1/0\n", 4))
        for text, lineno in cases:
            with pytest.raises(GraphParseError) as ei:
                parse_graph(text)
            assert ei.value.lineno == lineno, text

    def test_unreachable_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("3 1 0 directed\n0 1 1\n")

    def test_too_few_edges_rejected_before_building(self, monkeypatch):
        # fewer than n - 1 edges leave a vertex unreachable: the header says
        # so, and nothing of size n may be built first
        def build(*args, **kwargs):
            raise AssertionError("_build called")

        monkeypatch.setattr(graph_core, "_build", build)
        with pytest.raises(GraphParseError) as ei:
            parse_graph("1000000000 0 0 directed\n")
        assert ei.value.lineno == 1

    def test_malformed_lines(self):
        with pytest.raises(GraphParseError):
            parse_graph("2 1 0 nonsense\n0 1 1\n")
        with pytest.raises(GraphParseError) as ei:
            parse_graph("2 2 0 directed\n0 1 1\n0 x 1\n")
        assert ei.value.lineno == 3
        with pytest.raises(GraphParseError):
            parse_graph("2 1 0 directed\n0 5 1\n")

    def test_undirected_doubles_arcs(self):
        g = parse_graph("3 2 0 undirected\n0 1 1\n1 2 2\n")
        assert g.m == 4 and not g.directed

    def test_parallel_edges_allowed(self):
        g = parse_graph("2 2 0 directed\n0 1 3\n0 1 5\n")
        assert g.m == 2

    def test_fraction_tokens(self):
        g = parse_graph("2 1 0 directed\n0 1 7/2\n", audit=True)
        assert g.arena.audit_value(g.weights[0]) == Fraction(7, 2)


class TestRoundTrip:
    @pytest.mark.parametrize("maker", [
        lambda: gen_broom(5, 9, seed=3),
        lambda: gen_dense(3, seed=1),
        lambda: gen_family("star", 12, seed=2),
        lambda: gen_family("fan", 9, seed=0),
        lambda: gen_family("random_digraph", 25, seed=4),
        lambda: parse_graph("3 2 0 undirected\n0 1 1\n1 2 2.25\n"),
    ])
    def test_parse_emit_roundtrip(self, maker):
        g = maker()
        text = emit_graph(g)
        g2 = parse_graph(text)
        assert emit_graph(g2) == text
        assert (g2.n, g2.m, g2.s, g2.directed) == (g.n, g.m, g.s, g.directed)
        assert g2.tails == g.tails and g2.heads == g.heads

    @given(st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_exact_weights_survive_parse_and_emit(self, data):
        # every arc reads back its source value, before and after a round trip
        n = data.draw(st.integers(1, 8))
        directed = data.draw(st.booleans())
        pairs = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        pairs += data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                              st.integers(0, n - 1)), max_size=8))
        tokens = [data.draw(weight_tokens) for _ in pairs]
        lines = [f"{n} {len(pairs)} 0 {'directed' if directed else 'undirected'}"]
        lines += [f"{u} {v} {tok}" for (u, v), (tok, _) in zip(pairs, tokens)]
        text = "\n".join(lines) + "\n"
        step = 1 if directed else 2
        for src in (text, emit_graph(parse_graph(text))):
            g = parse_graph(src, audit=True)
            assert g.m == step * len(pairs)
            got = [g.arena.audit_value(g.weights[i]) for i in range(g.m)]
            assert got == [w for _, w in tokens for _ in range(step)]
        assert emit_graph(parse_graph(emit_graph(g))) == emit_graph(g)

    def test_same_seed_same_bytes(self):
        a = emit_graph(gen_broom(7, 11, seed=9))
        b = emit_graph(gen_broom(7, 11, seed=9))
        c = emit_graph(gen_broom(7, 11, seed=10))
        assert a == b and a != c


class TestBroom:
    def test_counts(self):
        g = gen_broom(2, 3)
        assert g.n == 6 and g.m == 5

    def test_leaves_beyond_path(self):
        g = gen_broom(6, 20, seed=1, audit=True)
        d = bellman_ford(g)
        path_d = d[1 : 21]
        leaf_d = d[21:]
        assert max(path_d) < min(leaf_d)

    def test_linearization_path_then_sorted_leaves(self):
        g = gen_broom(6, 20, seed=1, audit=True)
        run = run_dijkstra(g, "workset")
        L = run.linearization
        assert L[: 21] == list(range(21))  # s then the path in order
        leaves = L[21:]
        d = bellman_ford(g)
        assert [d[v] for v in leaves] == sorted(d[v] for v in leaves)

    def test_bad_params(self):
        with pytest.raises(UsageError):
            gen_broom(0, 5)


class TestDense:
    def test_counts_small(self):
        g = gen_dense(2)
        assert g.n == 6 and g.m == 3 + 8

    def test_edge_count_formula(self):
        for k in (3, 5):
            g = gen_dense(k)
            n = k * k
            assert g.m == (n - 1) + n * k

    def test_prefix_best_distance_decreases_along_path(self):
        k = 4
        g = gen_dense(k, seed=2, audit=True)
        n = k * k
        w = {}
        for i in range(g.m):
            w[(g.tails[i], g.heads[i])] = g.arena.audit_value(g.weights[i])
        eps = w[(0, 1)]
        for j in range(k):
            x = n + j
            best = None
            prev = None
            for i in range(n):
                cand = i * eps + w[(i, x)]
                best = cand if best is None or cand < best else best
                if prev is not None:
                    assert best < prev  # strictly better as the path advances
                prev = best


class TestFamilies:
    def test_path_unique_linearization(self):
        g = gen_family("path", 9, audit=True)
        run = run_dijkstra(g)
        assert run.linearization == list(range(9))

    def test_star_all_leaves_incomparable(self):
        # the exploration tree is the star itself: (n-1)! linearizations
        from distorder.optimality_audit import tree_log_linearizations
        g = gen_family("star", 9, seed=1, audit=True)
        run = run_dijkstra(g)
        want = math.log2(math.factorial(8))
        assert abs(tree_log_linearizations(run.explore) - want) < 1e-9

    def test_fan_tree_split(self):
        g = gen_family("fan", 14, seed=0, audit=True)
        run = run_dijkstra(g)
        assert all(p == 0 for v, p in enumerate(run.explore.parent) if v != 0)
        path_parents = run.sssp.parent
        assert path_parents[1] == 0
        assert all(path_parents[v] == v - 1 for v in range(2, 14))

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            gen_family("torus", 5)

    @pytest.mark.parametrize("kind", ["star", "path", "fan", "random_dag",
                                      "random_digraph"])
    def test_one_vertex_family(self, kind):
        g = gen_family(kind, 1, seed=3)
        assert (g.n, g.m) == (1, 0)
        assert run_dijkstra(g).linearization == [0]

    @pytest.mark.parametrize("kind", ["random_dag", "random_digraph"])
    def test_random_families_reachable_and_positive(self, kind):
        g = gen_family(kind, 40, seed=6, audit=True)
        d = bellman_ford(g)
        assert all(x is not None for x in d)


class TestForwardEdges:
    def test_path_all_forward(self):
        g = gen_family("path", 8, audit=True)
        run = run_dijkstra(g)
        assert forward_edges(g, run.dist) == 7

    def test_star_all_forward(self):
        g = gen_family("star", 8, seed=1, audit=True)
        run = run_dijkstra(g)
        assert forward_edges(g, run.dist) == 7

    def test_matches_raw_recount(self):
        rng = random.Random(0)
        for trial in range(20):
            g = gen_family("random_digraph", rng.randrange(2, 40),
                           seed=trial, audit=True)
            run = run_dijkstra(g)
            d = bellman_ford(g)
            want = sum(1 for u, v in zip(g.tails, g.heads) if d[u] < d[v])
            assert forward_edges(g, run.dist) == want

    def test_undirected_counts_pairs_once(self):
        g = parse_graph("3 2 0 undirected\n0 1 1\n1 2 2\n", audit=True)
        run = run_dijkstra(g)
        assert forward_edges(g, run.dist) == 2


class TestDfsTimes:
    """``SpanningTree.preorder``: a vertex's position is its DFS entry time
    and position + subtree size its exit time, counting entries only."""

    def test_pinned_times_on_a_small_tree(self):
        # children are entered last first: 0 (2 (5) 1 (4 3))
        tree = SpanningTree([-1, 0, 0, 1, 1, 2], 0)
        order, pos, size = tree.preorder()
        assert order == [0, 2, 5, 1, 4, 3]
        assert pos == [0, 3, 1, 5, 4, 2]
        assert size == [6, 3, 2, 1, 1, 1]

    def test_ancestry_matches_parent_walk(self):
        rng = random.Random(21)
        for trial in range(60):
            n = rng.randrange(1, 60)
            # random labels, so parents may carry larger ids than children
            label = list(range(n))
            rng.shuffle(label)
            parent = [-1] * n
            for k in range(1, n):
                parent[label[k]] = label[rng.randrange(k)]
            tree = SpanningTree(parent, label[0])
            order, pos, size = tree.preorder()
            assert sorted(order) == list(range(n))
            assert all(order[pos[v]] == v for v in range(n))
            for v in range(n):
                above = set()
                x = v
                while x >= 0:
                    above.add(x)
                    x = parent[x]
                for u in range(n):
                    assert (0 <= pos[v] - pos[u] < size[u]) == (u in above)

    def test_rejects_a_root_with_a_parent(self):
        for parent, root in (([0, 0], 0), ([1, -1], 0), ([-1, 0], 2)):
            with pytest.raises(ContractViolation, match="root"):
                SpanningTree(parent, root).preorder()

    def test_rejects_a_parent_that_is_not_a_vertex(self):
        # a negative parent would otherwise file vertex 1 under vertex 2
        for parent in ([-1, -1, 0], [-1, -2, 0], [-1, 3, 0]):
            tree = SpanningTree(parent, 0)
            with pytest.raises(ContractViolation, match="not a vertex"):
                tree.preorder()
            with pytest.raises(ContractViolation, match="not a vertex"):
                tree.children()
            with pytest.raises(ContractViolation):
                tree_log_linearizations(tree)
            col = IntersectingColoring([0, 1, 2], [[0], [1], [2]], [0, 1, 2])
            with pytest.raises(ContractViolation, match="not a vertex"):
                verify_barrier_sequence(col, tree)

    def test_rejects_vertices_that_hang_off_nothing(self):
        # 1 and 2 are each other's parent: a cycle below no root
        tree = SpanningTree([-1, 2, 1], 0)
        with pytest.raises(ContractViolation, match="2 vertices"):
            tree.preorder()
        with pytest.raises(ContractViolation):
            tree_log_linearizations(tree)
        with pytest.raises(ContractViolation):
            tree_dp_linearize(tree, [0, 0, 0], WeightArena())
        col = IntersectingColoring([0, 1, 2], [[0], [1], [2]], [0, 1, 2])
        with pytest.raises(ContractViolation):
            verify_barrier_sequence(col, tree)
