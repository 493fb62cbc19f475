import math
import random

from distorder.dijkstra import run_dijkstra
from distorder.graph_core import SpanningTree, gen_broom, gen_family
from distorder.optimality_audit import (bfs_layer_bound, bfs_layers,
                                        bound_report, cost, energy,
                                        greedy_coloring,
                                        tree_log_linearizations,
                                        verify_barrier_sequence,
                                        working_set_sizes)

from helpers import (brute_force_working_sets,
                     count_linearizations_exhaustive, random_interval_set)


class TestWorkingSets:
    def test_single_interval(self):
        assert working_set_sizes([(1, 2)]) == [1]

    def test_nested_lifo(self):
        k = 6
        ivs = [(i, 2 * k + 1 - i) for i in range(1, k + 1)]
        sizes = working_set_sizes(ivs)
        assert sizes == [k - i for i in range(k)]  # outermost k, innermost 1

    def test_matches_brute_force(self):
        rng = random.Random(0)
        for _ in range(150):
            ivs = random_interval_set(rng, rng.randrange(1, 16), span=200)
            assert working_set_sizes(ivs) == brute_force_working_sets(ivs)


class TestCost:
    def test_disjoint_zero(self):
        ivs = [(2 * i, 2 * i + 1) for i in range(1, 9)]
        assert cost(ivs) == 0.0

    def test_fifo_gives_log_factorial(self):
        n = 24
        ivs = [(i, n + i) for i in range(1, n + 1)]  # insert all, extract in order
        want = math.log2(math.factorial(n))
        assert abs(cost(ivs) - want) < 1e-9

    def test_deleting_intervals_lemma(self):
        # cost(I) <= cost(I \ {x}) + log2 |W_x| + log2 k, for every x
        rng = random.Random(3)
        for _ in range(60):
            ivs = random_interval_set(rng, rng.randrange(2, 14), span=300)
            sizes = working_set_sizes(ivs)
            k = max(sizes)
            total = cost(ivs, sizes)
            for x in range(len(ivs)):
                rest = ivs[:x] + ivs[x + 1 :]
                bound = cost(rest) + math.log2(sizes[x]) + math.log2(k)
                assert total <= bound + 1e-9


class TestGreedy:
    def test_fully_overlapping_single_color(self):
        k = 8
        ivs = [(i, 100 + i) for i in range(1, k + 1)]
        col = greedy_coloring(ivs)
        assert len(col.classes) == 1 and len(col.classes[0]) == k
        assert energy(col) == 2 * k * math.log2(k)

    def test_disjoint_singletons(self):
        ivs = [(3 * i, 3 * i + 2) for i in range(1, 7)]
        col = greedy_coloring(ivs)
        assert all(len(c) == 1 for c in col.classes)
        assert energy(col) == 0.0 == cost(ivs)

    def test_energy_dominates_cost_random(self):
        rng = random.Random(1)
        for _ in range(120):
            ivs = random_interval_set(rng, rng.randrange(1, 40))
            assert energy(greedy_coloring(ivs)) >= cost(ivs)

    def test_energy_examples(self):
        ivs = [(1, 10), (2, 11), (3, 12), (4, 13)]
        col = greedy_coloring(ivs)
        assert energy(col) == 16.0  # one class of four: 2 * 4 * log2 4
        sizes = col.class_sizes()
        assert energy(col) == sum(2 * c * math.log2(c) for c in sizes if c > 1)


class TestBarriers:
    def test_star_single_color_ok(self):
        g = gen_family("star", 10, seed=2, audit=True)
        run = run_dijkstra(g)
        col = greedy_coloring(run.intervals)
        assert verify_barrier_sequence(col, run.explore) is None

    def test_path_singletons_ok(self):
        g = gen_family("path", 10, audit=True)
        run = run_dijkstra(g)
        col = greedy_coloring(run.intervals)
        assert all(len(c) == 1 for c in col.classes)
        assert verify_barrier_sequence(col, run.explore) is None

    def test_detects_fabricated_violation(self):
        # a path tree with both vertices in one "class" is not an antichain
        tree = SpanningTree([-1, 0, 1], 0, "exploration")
        from distorder.optimality_audit import IntersectingColoring
        col = IntersectingColoring([0, 0, 0], [[0, 1, 2]], [1])
        assert verify_barrier_sequence(col, tree) is not None

    def test_random_families_always_valid(self):
        rng = random.Random(5)
        fams = ["star", "path", "fan", "random_dag", "random_digraph"]
        for trial in range(60):
            fam = fams[trial % len(fams)]
            g = gen_family(fam, rng.randrange(2, 50), seed=trial, audit=True)
            run = run_dijkstra(g)
            col = greedy_coloring(run.intervals)
            assert verify_barrier_sequence(col, run.explore) is None


class TestTreeCounts:
    def test_path_tree(self):
        t = SpanningTree([-1, 0, 1, 2], 0, "sssp")
        assert tree_log_linearizations(t) == 0.0

    def test_star_tree(self):
        n = 9
        t = SpanningTree([-1] + [0] * (n - 1), 0, "sssp")
        want = math.log2(math.factorial(n - 1))
        assert abs(tree_log_linearizations(t) - want) < 1e-9

    def test_all_small_trees_match_enumeration(self):
        rng = random.Random(7)
        seen = 0
        for n in range(1, 9):
            for _ in range(40):
                parent = [-1] + [rng.randrange(v) for v in range(1, n)]
                t = SpanningTree(parent, 0, "sssp")
                hook = tree_log_linearizations(t)
                exact = count_linearizations_exhaustive(t)
                assert abs(hook - math.log2(exact)) < 1e-9
                seen += 1
        assert seen == 8 * 40


class TestBfsBound:
    def test_star(self):
        n = 9
        g = gen_family("star", n, seed=0)
        assert abs(bfs_layer_bound(g) - (n - 1) * math.log2(n - 1)) < 1e-9

    def test_path(self):
        assert bfs_layer_bound(gen_family("path", 11)) == 0.0

    def test_broom_layer_recount(self):
        t, r = 16, 40
        g = gen_broom(t, r, seed=1)
        layers = bfs_layers(g)
        want = sum(len(b) * math.log2(len(b)) for b in layers if len(b) > 1)
        got = bfs_layer_bound(g)
        assert abs(got - want) < 1e-12
        assert got >= t * math.log2(t)  # the leaf layer dominates


class TestBoundReport:
    def test_path_all_zero(self):
        g = gen_family("path", 12, audit=True)
        run = run_dijkstra(g)
        rep = bound_report(run, g)
        assert rep.cost_I == rep.energy == 0.0
        assert not rep.violations

    def test_star_cost_close_to_sorting(self):
        n = 40
        g = gen_family("star", n, seed=3, audit=True)
        run = run_dijkstra(g)
        rep = bound_report(run, g)
        want = math.log2(math.factorial(n - 1))
        assert abs(rep.cost_I - want) < 1e-6
        assert rep.energy == 2 * (n - 1) * math.log2(n - 1)
        assert not rep.violations

    def test_broom_linear_comparisons_vs_leaf_energy(self):
        t = 32
        r = 4000
        g = gen_broom(t, r, seed=2, audit=True)
        run = run_dijkstra(g, "workset")
        rep = bound_report(run, g)
        n = g.n
        assert rep.comparisons <= 12 * n  # measured cost stays linear
        assert rep.energy >= 2 * t * math.log2(t)  # the t-leaf barrier shows up
        assert not rep.violations

    def test_report_nonnegative_and_csv(self):
        g = gen_family("random_digraph", 30, seed=8, audit=True)
        run = run_dijkstra(g)
        rep = bound_report(run, g)
        assert rep.forward_edge_bound >= 0 and rep.bfs_layer_bound >= 0
        assert len(rep.csv_fields()) == 8
