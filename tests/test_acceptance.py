"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Shared corpora (the 1000 trace runs, the 500 pipeline runs) are
session-scoped fixtures reused by the criteria that need them.

Every threshold is derived from a bound that the test states (a docstring
bound of the package, a certified lower bound, or the growth of a cost
proportional to a logarithm), and the criteria that compare two series also
check that their clauses reject the series they are meant to reject.  Wall
time depends on the machine: it is printed in the report lines and never
asserted.  Comparison counts are the machine-independent currency.
"""

import math
import random
import time

import pytest

from distorder.comparison_optimal import (dominator_tree, hwang_lin_merge,
                                          run_pipeline, tree_dp_linearize)
from distorder.dijkstra import run_dijkstra
from distorder.graph_core import (SpanningTree, forward_edges, gen_broom,
                                  gen_dense, gen_family)
from distorder.optimality_audit import (cost, energy, greedy_coloring,
                                        tree_log_linearizations,
                                        verify_barrier_sequence,
                                        working_set_sizes)
from distorder.weights import WeightArena
from distorder.workset_heap import WorkSetHeap

from helpers import (check_workset, count_linearizations_exhaustive,
                     drive_pattern, multi_graph, run_workset_trace)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criteria 1-3: the heap --------------------------------------------------


def test_criterion_01_oracle_equivalence_100_traces():
    """Every extraction of 100 seeded 1e5-op traces equals the sorted replay.

    The elapsed time covers the trace driver and the oracle as well as the
    heap, so it is printed only; criterion 3 bounds the heap's own cost in
    comparisons.
    """
    t0 = time.perf_counter()
    mismatched = []
    total = 0
    for seed in range(100):
        rng = random.Random(40_000 + seed)
        arena = WeightArena()
        heap = WorkSetHeap(arena)
        out, expect = run_workset_trace(arena, heap, rng, 100_000)
        total += len(out)
        if out != expect:
            mismatched.append(seed)
    elapsed = time.perf_counter() - t0
    report(1, not mismatched,
           f"100 traces x 1e5 mixed ops, {total} extractions, "
           f"{len(mismatched)} mismatched traces, {elapsed:.1f}s")


def test_criterion_02_invariants_after_every_operation():
    violations = 0
    traces = 0
    n_ops = 1200
    half = n_ops // 2
    for pattern in ("random", "sorted", "reverse", "lifo"):
        for seed in range(3):
            arena = WeightArena(audit=True)
            h = WorkSetHeap(arena)
            try:
                if pattern == "random":
                    rng = random.Random(seed)
                    out, expect = run_workset_trace(
                        arena, h, rng, n_ops, per_op=check_workset)
                    assert out == expect
                elif pattern in ("sorted", "reverse"):
                    keys = (range(1, half + 1) if pattern == "sorted"
                            else range(half, 0, -1))
                    for i, k in enumerate(keys):
                        h.insert(arena.intern(k), i)
                        check_workset(h)
                    for _ in range(half):
                        h.extract_min()
                        check_workset(h)
                else:  # lifo
                    h.insert(arena.intern(1 << 40), 0)
                    check_workset(h)
                    for i in range(1, half):
                        h.insert(arena.intern((1 << 40) - i), i)
                        check_workset(h)
                        h.extract_min()
                        check_workset(h)
            except AssertionError:
                violations += 1
            traces += 1
    report(2, violations == 0,
           f"full invariant scan after every op on {traces} traces "
           f"(4 patterns x 3 seeds x {n_ops} ops), {violations} violations")


def test_criterion_03_working_set_bound_and_rank_floors():
    c0 = 32
    details = []
    ok = True
    for pattern in ("random", "sorted", "reverse", "lifo"):
        heap, intervals, extracted = drive_pattern(pattern, 100_000, 11)
        sizes = working_set_sizes(intervals)
        budget = sum(1 + math.log2(sizes[x]) for x, _r in extracted)
        measured = heap.extract_comparisons
        bound_ok = measured <= c0 * budget
        floor_bad = sum(
            1 for x, r in extracted
            if r >= 2 and sizes[x] < 2 ** (2 ** (r - 2)))
        ok = ok and bound_ok and floor_bad == 0
        details.append(
            f"{pattern}: {measured} <= 32*{budget:.0f}"
            f"{'' if bound_ok else ' VIOLATED'}, {floor_bad} floor breaches")
    report(3, ok, "; ".join(details))


# -- criteria 4-5: coloring lemmas over 1000 traces --------------------------


@pytest.fixture(scope="session")
def trace_corpus():
    runs = []
    rng = random.Random(99)
    fams = ("star", "path", "fan", "random_dag", "random_digraph")
    while len(runs) < 1000:
        kind = len(runs) % 7
        if kind == 5:
            g = gen_broom(rng.randrange(2, 14), rng.randrange(2, 60),
                          seed=len(runs))
        elif kind == 6:
            g = gen_dense(rng.randrange(2, 6), seed=len(runs))
        else:
            fam = fams[kind]
            g = gen_family(fam, rng.randrange(2, 150), seed=len(runs))
        run = run_dijkstra(g, "workset")
        runs.append((g, run, greedy_coloring(run.intervals)))
    return runs


def test_criterion_04_greedy_energy_dominates_cost(trace_corpus):
    bad = 0
    for _g, run, coloring in trace_corpus:
        if energy(coloring) < cost(run.intervals):
            bad += 1
    report(4, bad == 0,
           f"E(greedy) >= cost(I) on {len(trace_corpus)} Dijkstra traces, "
           f"{bad} violations (zero tolerance)")


def test_criterion_05_barrier_validity(trace_corpus):
    bad = 0
    for _g, run, coloring in trace_corpus:
        if verify_barrier_sequence(coloring, run.explore) is not None:
            bad += 1
    report(5, bad == 0,
           f"barrier sequences valid on {len(trace_corpus)} traces, "
           f"{bad} violations")


# -- criterion 6: broom separation -------------------------------------------


def test_criterion_06_broom_separation():
    """Brooms with t = isqrt(n) leaves: workset O(1) per vertex, binary Θ(log t).

    Sweep n = 2^12..2^16 (t = 64..256), seed 0, comparisons per vertex.

    Workset band: the heap promises an upper bound only (O(1 + log |W_x|)
    per extraction; path vertices have working sets of size O(1) and the
    t leaves add at most t*log2(t) = o(n)), so the band is ``x <= 3c`` with
    c the first size's value and no floor.  The cost may fall with n (1.11
    at 2^12, 1.08 at 2^13, 1.04 at 2^16); t = 181 at 2^15 gives 1.05.

    Binary growth: a cost a*log2(t) + b with b >= 0 grows over the sweep by
    at most log2(256) / log2(64) = 8/6 = 1.333, the growth of a cost exactly
    proportional to log2 t; that ratio is the threshold.  (The binary heap
    spends about 3*log2(t) - 1.1 per vertex, growth 1.361.)

    Each clause must also reject the other heap's series: the binary series
    lies above the band's upper edge at every size, and the workset series
    fails the growth check.
    """
    t0 = time.perf_counter()
    sizes = [2 ** e for e in range(12, 17)]
    ts = [math.isqrt(n) for n in sizes]
    ws_per_n = []
    bi_per_n = []
    for n, t in zip(sizes, ts):
        r = n - t - 1
        ws = run_dijkstra(gen_broom(t, r, seed=0), "workset")
        bi = run_dijkstra(gen_broom(t, r, seed=0), "binary")
        real_n = 1 + t + r
        ws_per_n.append(ws.comparisons / real_n)
        bi_per_n.append(bi.comparisons / real_n)
    elapsed = time.perf_counter() - t0
    upper = 3 * ws_per_n[0]
    need = math.log2(ts[-1]) / math.log2(ts[0])
    band_ok = all(x <= upper for x in ws_per_n)
    growth = bi_per_n[-1] / bi_per_n[0]
    growth_ok = growth >= need
    bi_outside = all(x > upper for x in bi_per_n)
    ws_growth = ws_per_n[-1] / ws_per_n[0]
    ws_flat = ws_growth < need
    ok = band_ok and growth_ok and bi_outside and ws_flat
    report(6, ok,
           f"workset cmp/n {['%.2f' % x for x in ws_per_n]} (band <= "
           f"{upper:.2f}{'' if band_ok else ' VIOLATED'}, growth "
           f"{ws_growth:.3f}{' < ' if ws_flat else ' NOT < '}{need:.3f}); "
           f"binary cmp/n {['%.2f' % x for x in bi_per_n]} (growth "
           f"{growth:.3f}, needs >= {need:.3f}; "
           f"{'above' if bi_outside else 'NOT above'} band at every size); "
           f"{elapsed:.1f}s")


# -- criterion 7: dominator oracle -------------------------------------------


def test_criterion_07_dominator_oracle():
    from helpers import brute_idoms

    bad = 0
    rng = random.Random(123)
    for trial in range(10_000):
        g = gen_family("random_digraph", rng.randrange(2, 7), seed=trial)
        if dominator_tree(g).parent != brute_idoms(g):
            bad += 1
    for trial in range(200):
        g = gen_family("random_digraph", rng.randrange(8, 201),
                       seed=50_000 + trial)
        if dominator_tree(g).parent != brute_idoms(g):
            bad += 1
    report(7, bad == 0,
           f"10^4 digraphs with n<=6 plus 200 with n<=200 against the "
           f"vertex-deletion oracle, {bad} mismatches")


# -- criteria 8 and 12: pipeline corpus --------------------------------------


@pytest.fixture(scope="session")
def pipeline_corpus():
    from helpers import bellman_ford

    out = []
    rng = random.Random(7)
    for trial in range(500):
        n = rng.randrange(2, 301)
        g = gen_family("random_digraph", n, seed=90_000 + trial, audit=True)
        res = run_pipeline(g)
        bf = bellman_ford(g)
        out.append((g, res, bf))
    return out


def test_criterion_08_pipeline_correctness(pipeline_corpus):
    bad_dist = bad_lin = 0
    for g, res, bf in pipeline_corpus:
        got = [g.arena.audit_value(h) for h in res.dist]
        if got != bf:
            bad_dist += 1
            continue
        lv = [bf[v] for v in res.linearization]
        if sorted(res.linearization) != list(range(g.n)) or lv != sorted(lv):
            bad_lin += 1
    report(8, bad_dist == 0 and bad_lin == 0,
           f"500 random digraphs (n<=300): {bad_dist} distance mismatches vs "
           f"Bellman-Ford, {bad_lin} invalid linearizations")


def test_criterion_09_zero_comparison_paths():
    bad = []
    for n in (2, 3, 10, 100, 1024, 5000):
        res = run_pipeline(gen_family("path", n))
        if res.comparisons != 0 or res.linearization != list(range(n)):
            bad.append((n, res.comparisons))
    report(9, not bad,
           f"path graphs n in (2,3,10,100,1024,5000): weight comparisons "
           f"all zero{'' if not bad else f', offenders {bad}'}")


def test_criterion_10_hwang_lin_bound():
    rng = random.Random(31)
    worst = 0.0
    bad = 0
    for _ in range(10_000):
        la = rng.randrange(0, 513)
        lb = rng.randrange(1, 513)
        arena = WeightArena()
        avals = sorted(rng.randrange(1 << 30) for _ in range(la))
        bvals = sorted(rng.randrange(1 << 30) for _ in range(lb))
        handles = arena.intern_many(avals + bvals)
        a = list(range(la))
        b = list(range(la, la + lb))
        arena.reset_counters()
        merged = hwang_lin_merge(arena, a, b, handles)
        spent = arena.cmp_count
        bound = 2 * math.log2(math.comb(la + lb, min(la, lb)))
        if spent > bound + 1e-9:
            bad += 1
        if bound > 0:
            worst = max(worst, spent / bound)
        vals = [(avals + bvals)[i] for i in merged]
        assert vals == sorted(avals + bvals)
    report(10, bad == 0,
           f"10^4 random sorted pairs (sizes to 512): per-call comparisons "
           f"<= 2 log2 C(n+m, m), {bad} violations, worst ratio {worst:.3f}")


def _all_increasing_trees(n):
    import itertools

    if n == 1:
        yield [-1]
        return
    for tail in itertools.product(*[range(v) for v in range(1, n)]):
        yield [-1] + list(tail)


def _count_linext_subset_dp(parent):
    n = len(parent)
    child_mask = [0] * n
    for v, p in enumerate(parent):
        if p >= 0:
            child_mask[p] |= 1 << v
    f = [0] * (1 << n)
    f[0] = 1
    for s in range(1, 1 << n):
        # prefixes must be downward closed
        closed = True
        v = s
        while v:
            low = v & -v
            i = low.bit_length() - 1
            p = parent[i]
            if p >= 0 and not s >> p & 1:
                closed = False
                break
            v ^= low
        if not closed:
            continue
        acc = 0
        v = s
        while v:
            low = v & -v
            i = low.bit_length() - 1
            if not child_mask[i] & s:
                acc += f[s ^ low]
            v ^= low
        f[s] = acc
    return f[(1 << n) - 1]


def test_criterion_11_tree_dp_bound():
    # hook-length count validated exhaustively for every tree with n <= 8
    checked = 0
    for n in range(1, 9):
        for parent in _all_increasing_trees(n):
            tree = SpanningTree(parent, 0)
            hook = tree_log_linearizations(tree)
            dp = _count_linext_subset_dp(parent)
            assert abs(hook - math.log2(dp)) < 1e-9, (parent, hook, dp)
            if n <= 5:
                assert dp == count_linearizations_exhaustive(tree)
            checked += 1

    rng = random.Random(17)
    bad = 0
    for trial in range(1000):
        n = rng.choice((2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1025, 2048))
        n = min(n, 2048)
        shape = trial % 4
        if shape == 0:
            parent = [-1] + [rng.randrange(v) for v in range(1, n)]
        elif shape == 1:
            parent = [-1] + [0] * (n - 1)  # star
        elif shape == 2:
            parent = [-1] + list(range(n - 1))  # path
        else:
            parent = [-1] + [max(0, v - 1 - rng.randrange(3)) for v in range(1, n)]
        tree = SpanningTree(parent, 0)
        arena = WeightArena()
        d = [None] * n
        d[0] = arena.zero()
        ch = tree.children()
        stack = [0]
        while stack:
            u = stack.pop()
            for c in ch[u]:
                d[c] = arena.add(d[u], arena.intern(rng.randrange(1, 1 << 30)))
                stack.append(c)
        arena.reset_counters()
        lin = tree_dp_linearize(tree, d, arena)
        if arena.cmp_count > 2 * tree_log_linearizations(tree) + 1e-9:
            bad += 1
        pos = {v: i for i, v in enumerate(lin)}
        assert all(pos[parent[v]] < pos[v] for v in range(1, n))
    report(11, bad == 0,
           f"hook-length formula matches enumeration on all {checked} trees "
           f"with n<=8; DP comparisons <= 2 log2 Linearizations on 1000 "
           f"random trees, {bad} violations")


def test_criterion_12_dedup_budget(pipeline_corpus):
    bad = 0
    total_spend = 0
    cases = list(pipeline_corpus) + [
        (g, run_pipeline(g), None)
        for g in (gen_dense(4, seed=1, audit=True),
                  gen_dense(6, seed=2, audit=True))
    ]
    for g, res, _bf in cases:
        g2 = multi_graph(res.core_graph, res.core_groups)
        fwd = forward_edges(g2, res.run.dist)
        budget = max(0, fwd - g2.n + 1)
        total_spend += res.lazy_spend
        if res.lazy_spend > budget:
            bad += 1
    report(12, bad == 0,
           f"lazy dedup spend <= |F''| - n'' + 1 on {len(cases)} pipeline "
           f"runs (total spend {total_spend}), {bad} violations")


def test_criterion_13_dense_scaling():
    """On the dense family the pipeline spends at most 2x the lower bound.

    The bound is ``BoundReport.forward_edge_bound``, |F| - n + 1 with F the
    distance-forward arcs, a certified lower bound on comparisons.  In
    ``gen_dense`` every arc is distance-forward (k^2 - 1 path arcs, k^3 cross
    arcs, n = k^2 + k), so the bound is k^3 - k: 504, 4080, 32736, 262080
    for k = 8..64, about 8x per doubling of k.  A fixed cap of 2x per
    doubling would allow at most 2 * 586 = 1172 comparisons at k = 16, below
    the bound 4080, so the scaling is checked against the bound at every k
    instead.  The factor 2 is the constant of "within a constant factor of
    the lower bound"; it must reject plain workset Dijkstra, which spends
    5.4x the bound at k = 8.

    PAPER.md repeats the README rather than the paper's text, so the paper
    section this bound matches cannot be cited from the repository.
    """
    t0 = time.perf_counter()

    def bound(g, dist):
        # recounts spend comparisons on g's arena, so only after the run's
        # counters were snapshotted, as bound_report does
        return max(0, forward_edges(g, dist) - g.n + 1)

    ks = (8, 16, 32, 64)
    comps = []
    bounds = []
    for k in ks:
        g = gen_dense(k, seed=0)
        res = run_pipeline(g)
        comps.append(res.comparisons)
        bounds.append(bound(g, res.dist))
    g = gen_dense(ks[0], seed=0)
    plain = run_dijkstra(g, "workset")
    plain_bound = bound(g, plain.dist)
    elapsed = time.perf_counter() - t0
    within = all(c <= 2 * b for c, b in zip(comps, bounds))
    plain_rejected = plain.comparisons > 2 * plain_bound
    cmp_ratios = [comps[i + 1] / comps[i] for i in range(len(comps) - 1)]
    bound_ratios = [bounds[i + 1] / bounds[i] for i in range(len(bounds) - 1)]
    report(13, within and plain_rejected,
           f"dense k={ks} comparisons {comps} vs forward-edge bound "
           f"{bounds} (x{['%.3f' % (c / b) for c, b in zip(comps, bounds)]},"
           f" needs <= 2); ratios per doubling: comparisons "
           f"{['%.2f' % r for r in cmp_ratios]}, bound "
           f"{['%.2f' % r for r in bound_ratios]}; plain workset Dijkstra "
           f"k={ks[0]}: {plain.comparisons} = "
           f"{plain.comparisons / plain_bound:.2f}x bound "
           f"({'rejected' if plain_rejected else 'NOT rejected'}); "
           f"{elapsed:.1f}s")
