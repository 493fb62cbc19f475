import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import distorder
from distorder.dijkstra import run_dijkstra
from distorder.errors import ContractViolation
from distorder.graph_core import Graph, SpanningTree, gen_broom, gen_family
from distorder.optimality_audit import (IntersectingColoring,
                                        bfs_layer_bound, bfs_layers,
                                        bound_report, cost, energy,
                                        greedy_coloring,
                                        tree_log_linearizations,
                                        verify_barrier_sequence,
                                        working_set_sizes)
from distorder.weights import WeightArena

from helpers import (brute_force_barrier, brute_force_greedy_coloring,
                     brute_force_working_sets, count_linearizations_exhaustive,
                     drive_pattern, random_interval_set,
                     rescan_greedy_coloring, segment_tree_working_sets)


def tied_intervals(rng, n, span):
    """n intervals on [0, 3 * span / 2): heavy ties, l == r and touching ends."""
    out = []
    for _ in range(n):
        l = rng.randrange(span)
        out.append((l, l + rng.randrange(span // 2 + 1)))
    return out


def test_import_does_not_load_numpy():
    src = str(Path(distorder.__file__).resolve().parents[1])
    code = "import distorder, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


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
            ivs = random_interval_set(rng, rng.randrange(1, 41), span=200)
            assert working_set_sizes(ivs) == brute_force_working_sets(ivs)

    def test_closed_intervals_share_endpoints(self):
        # an interval ending when another starts overlaps it
        ivs = [(1, 3), (3, 5), (5, 5), (2, 9)]
        assert working_set_sizes(ivs) == brute_force_working_sets(ivs)
        assert working_set_sizes(ivs) == [3, 2, 1, 3]

    def test_matches_segment_tree(self):
        def check(ivs):
            assert working_set_sizes(ivs) == segment_tree_working_sets(ivs)

        rng = random.Random(30)
        check([])
        for _ in range(600):
            check(tied_intervals(rng, rng.randrange(1, 80),
                                 rng.choice((1, 2, 4, 20, 200))))
        for n in (1, 10, 300, 2000):
            check(random_interval_set(rng, n))
            check([(i, i + 1) for i in range(n)])  # staircase, touching
            check([(i, i + 1) for i in range(n)][::-1])
            check([(i, n + i) for i in range(n)])  # FIFO
        for pattern in ("random", "sorted", "reverse", "lifo"):
            check(drive_pattern(pattern, 4_000, 11)[1])

    def test_refuses_an_interval_that_ends_before_it_starts(self):
        with pytest.raises(ContractViolation, match="interval 0 ends"):
            working_set_sizes([(5, 3)])
        with pytest.raises(ContractViolation, match=r"interval 1 ends .*\(7, 6\)"):
            working_set_sizes([(1, 2), (7, 6), (9, 4)])


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

    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(200):
            ivs = random_interval_set(rng, rng.randrange(1, 31), span=300)
            col = greedy_coloring(ivs)
            assert (col.color, col.witnesses) == brute_force_greedy_coloring(ivs)
            assert col.classes == [
                sorted((i for i, c in enumerate(col.color) if c == k),
                       key=lambda i: ivs[i][0])
                for k in range(len(col.classes))]

    def test_matches_rescan(self):
        def check(ivs):
            col, ref = greedy_coloring(ivs), rescan_greedy_coloring(ivs)
            assert (col.color, col.classes, col.witnesses) == (
                ref.color, ref.classes, ref.witnesses)

        rng = random.Random(28)
        for _ in range(500):
            check(tied_intervals(rng, rng.randrange(1, 80),
                                 rng.choice((4, 20, 200))))
        for _ in range(100):
            # time-disjoint pieces, their interval indices interleaved
            ivs, offset = [], 0
            for _ in range(rng.randrange(1, 6)):
                piece = tied_intervals(rng, rng.randrange(1, 30),
                                       rng.choice((4, 20)))
                ivs += [(l + offset, r + offset) for l, r in piece]
                offset = max(r for _, r in ivs) + rng.randrange(1, 3)
            rng.shuffle(ivs)
            check(ivs)
        for n in (1, 2, 3, 10, 101):
            check([(i, i + 1) for i in range(n)])
            check([(i, i + 1) for i in range(n)][::-1])
        for g in (gen_family("random_digraph", 2000, seed=0),
                  gen_broom(44, 44 * 44 - 44 - 1)):
            check(run_dijkstra(g, "workset").intervals)

    def test_refuses_an_interval_that_ends_before_it_starts(self):
        with pytest.raises(ContractViolation, match="interval 0 ends"):
            greedy_coloring([(5, 3)])
        with pytest.raises(ContractViolation, match=r"interval 2 ends .*\(9, 4\)"):
            greedy_coloring([(1, 2), (6, 7), (9, 4), (8, 1)])

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
        tree = SpanningTree([-1, 0, 1], 0)
        col = IntersectingColoring([0, 0, 0], [[0, 1, 2]], [1])
        assert verify_barrier_sequence(col, tree) == ((0, 1), (0, 0))
        # on a star the offending arc is the root's lowest-numbered child
        star = SpanningTree([-1, 0, 0], 0)
        assert verify_barrier_sequence(col, star) == ((0, 1), (0, 0))

    def test_refuses_a_vertex_without_a_class(self):
        star = SpanningTree([-1, 0, 0], 0)
        for col in (IntersectingColoring([0, -1, 1], [[0], [2]], [0, 1]),
                    IntersectingColoring([0, 1], [[0], [1]], [0, 1])):
            with pytest.raises(ContractViolation, match="no class"):
                verify_barrier_sequence(col, star)

    def test_refuses_a_class_past_the_end(self):
        star = SpanningTree([-1, 0, 0], 0)
        col = IntersectingColoring([0, 5, 0], [[0, 2]], [1])
        with pytest.raises(ContractViolation, match="no class"):
            verify_barrier_sequence(col, star)

    def test_refuses_classes_and_witnesses_of_different_number(self):
        star = SpanningTree([-1, 0, 0], 0)
        for witnesses in ([0], [0, 1, 2]):
            col = IntersectingColoring([0, 1, 1], [[0], [1, 2]], witnesses)
            with pytest.raises(ContractViolation, match="witnesses"):
                verify_barrier_sequence(col, star)

    def test_matches_brute_force_on_random_trees(self):
        rng = random.Random(27)
        verdicts = set()
        for _ in range(2000):
            n = rng.randrange(1, 12)
            label = list(range(n))
            rng.shuffle(label)
            parent = [-1] * n
            for i in range(1, n):
                parent[label[i]] = label[rng.randrange(i)]
            tree = SpanningTree(parent, label[0])
            # half the cases rise along every arc, so they are valid
            value = [0] * n
            for i in range(n):
                v = label[i]
                if rng.random() < 0.5:
                    value[v] = rng.randrange(4)
                elif i:
                    value[v] = value[parent[v]] + rng.randrange(1, 3)
            # a value may split into two classes with the same witness, and
            # class indices are shuffled
            key = [(value[v], rng.randrange(2)) for v in range(n)]
            keys = sorted(set(key))
            rng.shuffle(keys)
            index = {k: c for c, k in enumerate(keys)}
            color = [index[k] for k in key]
            classes = [[v for v in range(n) if color[v] == c]
                       for c in range(len(keys))]
            col = IntersectingColoring(color, classes, [w for w, _ in keys])
            got = verify_barrier_sequence(col, tree)
            verdicts.add(got is None)
            assert (got is None) == brute_force_barrier(col, tree)
            if got is None:
                continue
            rank = {c: (col.witnesses[c], c) for c in range(len(keys))}
            failing = [(v, u) for u, v in enumerate(parent)
                       if v >= 0 and rank[color[u]] <= rank[color[v]]]
            (cu, u), (cv, v) = got
            assert (cu, cv) == (color[u], color[v])
            assert (v, u) == min(failing)
        assert verdicts == {True, False}

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
        t = SpanningTree([-1, 0, 1, 2], 0)
        assert tree_log_linearizations(t) == 0.0

    def test_star_tree(self):
        n = 9
        t = SpanningTree([-1] + [0] * (n - 1), 0)
        want = math.log2(math.factorial(n - 1))
        assert abs(tree_log_linearizations(t) - want) < 1e-9

    def test_all_small_trees_match_enumeration(self):
        rng = random.Random(7)
        seen = 0
        for n in range(1, 9):
            for _ in range(40):
                parent = [-1] + [rng.randrange(v) for v in range(1, n)]
                t = SpanningTree(parent, 0)
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

    def test_refuses_a_vertex_the_source_misses(self):
        arena = WeightArena()
        g = Graph(4, True, 0, arena, [0, 0], [1, 2], arena.intern_many([1, 1]))
        with pytest.raises(ContractViolation, match="vertex 3 unreachable"):
            bfs_layers(g)
        with pytest.raises(ContractViolation, match="vertex 3 unreachable"):
            bfs_layer_bound(g)
        # the first vertex missed is named, not the last
        g = Graph(5, True, 0, arena, [0, 0], [2, 4], arena.intern_many([1, 1]))
        with pytest.raises(ContractViolation, match="vertex 1 unreachable"):
            bfs_layers(g)


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
