"""Workload inputs, generated from a seed, and one timed pass over each.

The generators follow the shapes of ``graph_core``'s families (random
digraph, broom, dense) and of the acceptance suite's criterion-1 heap trace,
but they live here: the package only ever sees the generated edge-list text
or the interned trace keys.  Each generator also computes what the oracle
needs (exact distances, the sorted-replay extraction order) once, outside
every timed region.

Sizes are chosen so that one pass takes well under a second on a 2-CPU box.
Machine speed on a shared box drifts by tens of percent from one sample to
the next, so a run needs many passes for its medians to settle.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from collections import defaultdict
from fractions import Fraction

from distorder import (BinaryQueue, FibonacciQueue, PairingQueue, WeightArena,
                       WorkSetHeap, bound_report, optimality_audit,
                       parse_graph, run_dijkstra, run_pipeline)

from calibrate import REFERENCE_S, round_seconds
from oracle import Checker, dijkstra_distances
from tracer import KINDS

QUEUES = {"workset": WorkSetHeap, "fibonacci": FibonacciQueue,
          "binary": BinaryQueue, "pairing": PairingQueue}

# random-sparse: random_digraph shape.  bound_report's O(n^2) sweeps are
# still the largest stage at n=2000.
SPARSE_N = 2000
# broom-dense: t=44 and t=45 sit on opposite sides of the workset heap's
# oscillation (about 4.1 vs 1.1 comparisons per vertex); tree_dp is most of
# the brooms' pipeline time, and lazy dedup most of the dense graph's.
BROOM_TS = (44, 45)
DENSE_K = 16
# heap-churn: the criterion-1 trace, audited on the intervals of three
# consecutive windows at its start; greedy_coloring grows about 5x per
# doubling of a window on this shape.
CHURN_OPS = 20_000
CHURN_WINDOWS = (1_500, 1_500, 1_500)
# the pipeline orders the trace's first inserted keys offline, as a star
CHURN_STAR = 1_500


class RawGraph:
    """A generated directed graph: its edge-list text and its oracle distances."""

    def __init__(self, name, n, tails, heads, weights, s=0):
        self.name = name
        self.n = n
        self.s = s
        self.tails = tails
        self.heads = heads
        self.weights = weights
        lines = [f"{n} {len(tails)} {s} directed"]
        for u, v, w in zip(tails, heads, weights):
            ws = str(w) if isinstance(w, int) else f"{w.numerator}/{w.denominator}"
            lines.append(f"{u} {v} {ws}")
        self.text = "\n".join(lines) + "\n"
        self.dist = dijkstra_distances(n, s, tails, heads, weights)


def random_sparse(rng: random.Random, n: int) -> RawGraph:
    """Random spanning arborescence plus about 3n random arcs, no repeats."""
    tails, heads, weights = [], [], []
    seen = set()
    for v in range(1, n):
        u = rng.randrange(v)
        seen.add((u, v))
        tails.append(u)
        heads.append(v)
        weights.append(rng.randrange(1, 1 << 20))
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            tails.append(u)
            heads.append(v)
            weights.append(rng.randrange(1, 1 << 20))
    return RawGraph(f"random-sparse-{n}", n, tails, heads, weights)


def broom(rng: random.Random, t: int) -> RawGraph:
    """Unit-weight path of r = t^2 - t - 1 arcs plus t expensive leaves at 0."""
    r = t * t - t - 1
    n = 1 + r + t
    offsets = rng.sample(range(10 * t), t)
    tails = list(range(r)) + [0] * t
    heads = list(range(1, r + 1)) + [r + 1 + j for j in range(t)]
    weights = [1] * r + [n + 42 + off for off in offsets]
    return RawGraph(f"broom-{t}", n, tails, heads, weights)


def dense(rng: random.Random, k: int) -> RawGraph:
    """Path of k^2 vertices, each with an arc to every one of k extra vertices."""
    n = k * k
    eps = Fraction(1, 100 * n * n)
    tails, heads, weights = [], [], []
    for i in range(n - 1):
        tails.append(i)
        heads.append(i + 1)
        weights.append(eps)
    for i in range(n):
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        for j in range(k):
            tails.append(i)
            heads.append(n + j)
            weights.append(n - (i + 1) + Fraction(perm[j], n))
    return RawGraph(f"dense-{k}", n + k, tails, heads, weights)


class ChurnTrace:
    """A mixed queue trace: 45% insert, 40% extract, 15% decrease of the
    oldest live element, with the expected extraction order.

    Operations come in shuffled blocks of 20 (9 inserts, 8 extracts, 3
    decreases), so the live-set size follows nearly the same path for every
    seed and only the keys and the order within blocks vary; an extract or
    decrease on an empty queue becomes an insert.  ``ops`` holds (code, id)
    with code 0 insert, 1 extract, 2 decrease; ``values`` holds the raw key
    of each insert and decrease, in order.
    """

    def __init__(self, rng: random.Random, n_ops: int, windows, star: int,
                 key_range: int = 1 << 40):
        ops, values, expected, inserted = [], [], [], []
        live: dict[int, int] = {}  # id -> current key, in insertion order
        heap: list[tuple[int, int]] = []
        ident = 0
        block = [0] * 9 + [1] * 8 + [2] * 3
        codes = []
        while len(codes) < n_ops:
            rng.shuffle(block)
            codes.extend(block)
        for code in codes[:n_ops]:
            if code == 0 or not live:
                v = rng.randrange(1, key_range)
                ops.append((0, ident))
                values.append(v)
                inserted.append(v)
                live[ident] = v
                heapq.heappush(heap, (v, ident))
                ident += 1
            elif code == 1:
                while True:  # lazy deletion: skip superseded entries
                    v, i = heapq.heappop(heap)
                    if live.get(i) == v:
                        break
                del live[i]
                ops.append((1, i))
                expected.append(i)
            else:
                i = next(iter(live))
                nv = max(0, live[i] - rng.randrange(1, key_range))
                ops.append((2, i))
                values.append(nv)
                live[i] = nv
                heapq.heappush(heap, (nv, i))
        self.ops = ops
        self.values = values
        self.expected = expected
        self.windows = []
        lo = 0
        for w in windows:
            self.windows.append(_window(ops[lo:lo + w]))
            lo += w
        self.window_extracts = sum(1 for code, _ in ops[:lo] if code == 1)
        keys = inserted[:star]
        self.star = RawGraph(f"star-{len(keys)}", len(keys) + 1, [0] * len(keys),
                             list(range(1, len(keys) + 1)), keys)


def _window(ops):
    """Closed [insert tick, extract tick] per element inserted in ``ops``.

    Every insert and extract is one tick, as in a Dijkstra run; elements
    inserted before the window are not part of it, and elements still live
    at its end close one tick after it.
    """
    tick = 0
    opened: dict[int, int] = {}
    intervals = []
    for code, ident in ops:
        if code == 2:
            continue
        tick += 1
        if code == 0:
            opened[ident] = tick
        elif ident in opened:
            intervals.append((opened.pop(ident), tick))
    intervals.extend((lo, tick + 1) for lo in opened.values())
    return intervals


def make_inputs(workload: str, seed: int):
    rng = random.Random(seed)
    if workload == "random-sparse":
        return [random_sparse(rng, SPARSE_N)]
    if workload == "broom-dense":
        return [broom(rng, t) for t in BROOM_TS] + [dense(rng, DENSE_K)]
    if workload == "heap-churn":
        return ChurnTrace(rng, CHURN_OPS, CHURN_WINDOWS, CHURN_STAR)
    raise ValueError(f"unknown workload {workload!r}")


# -- one pass ------------------------------------------------------------------


class Pass:
    """One timed pass over a workload's inputs, traced or not.

    ``times`` holds every timed call's duration, per metric and in call
    order, and ``scaled`` the same durations at the reference machine speed
    of ``calibrate`` (untraced passes only); ``counts`` holds the end-to-end
    counts; ``calls`` lists (stage, comparisons, additions) per package call
    for the exact-count guard; ``info`` carries what the per-layer summary needs besides spans.
    """

    _PLACEHOLDER_ARENA = WeightArena()  # counters for spans opened before an arena exists

    def __init__(self, tracer, checker: Checker):
        self.tr = tracer
        self.check = checker
        self.times: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: list[tuple[str, int, int]] = []
        self.info: dict = defaultdict(float)
        self.arenas: list[tuple[WeightArena, int]] = []
        self.workset_intervals: list[list[tuple[int, int]]] = []

    def timed(self, metric: str, stage: str, arena, fn, *args):
        tr = self.tr
        if tr is None:
            before = round_seconds()
            gc.collect()
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
            round_s = (before + round_seconds()) / 2
            self.scaled[metric].append(dt * REFERENCE_S / round_s)
        else:
            gc.collect()
            i = tr.begin_stage(stage, arena or self._PLACEHOLDER_ARENA)
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            finally:
                dt = time.perf_counter() - t0
                tr.close(i)
        self.times[metric].append(dt)
        return out

    def parse(self, raw: RawGraph):
        g = self.timed("setup_s", "graph_core.parse", None, parse_graph, raw.text)
        self.arenas.append((g.arena, len(g.arena)))
        self.info["arcs"] += g.m
        if self.tr is not None:
            self.tr.wrap_arena(g.arena)
        return g

    def pipeline(self, raw: RawGraph, g):
        p = self.timed("pipeline_s", "pipeline", g.arena, run_pipeline, g)
        self.counts["pipeline_cmp"] += p.comparisons
        self.counts["pipeline_add"] += p.additions
        self.calls.append(("pipeline", p.comparisons, p.additions))
        self.info["n"] += g.n
        self.info["m"] += g.m
        self.info["core_n"] += p.core_graph.n
        self.info["core_m"] += p.core_graph.m
        self.check.ordering(f"pipeline {raw.name}", raw, p.linearization,
                            p.tree.parent, p.tree_arc)

    def graph(self, raw: RawGraph, audit: bool) -> None:
        """Parse, four Dijkstras, the pipeline, and optionally bound_report."""
        g = self.parse(raw)
        workset_run = None
        for kind in KINDS:
            run = self.timed(f"{kind}_s", f"dijkstra.{kind}", g.arena,
                             run_dijkstra, g, kind)
            self.counts[f"{kind}_cmp"] += run.comparisons
            self.calls.append((f"dijkstra.{kind}", run.comparisons, run.additions))
            self.check.ordering(f"dijkstra {kind} {raw.name}", raw,
                                run.linearization, run.sssp.parent, run.sssp_arcs)
            if kind == "workset":
                workset_run = run
                self.workset_intervals.append(run.intervals)
        self.pipeline(raw, g)
        if audit:
            c0, a0 = g.arena.counters()
            rep = self.timed("audit_s", "audit", g.arena, bound_report,
                             workset_run, g)
            c1, a1 = g.arena.counters()
            self.calls.append(("audit", c1 - c0, a1 - a0))
            self.info["intervals"] += len(workset_run.intervals)
            # bound_report checks four inequalities; each violation fails one
            for k in range(4):
                self.check.record(k >= len(rep.violations),
                                  f"bound_report {raw.name}: {rep.violations}")

    def churn(self, trace: ChurnTrace) -> None:
        """Intern, replay on every queue, audit the windows, order keys offline."""
        arena = WeightArena()
        handles = self.timed("setup_s", "weights.intern", arena,
                             arena.intern_many, trace.values)
        self.arenas.append((arena, len(arena)))
        if self.tr is not None:
            self.tr.wrap_arena(arena)
        star = self.parse(trace.star)
        for kind in KINDS:
            c0 = arena.cmp_count
            out = self.timed(f"{kind}_s", f"replay.{kind}", arena, replay,
                             QUEUES[kind](arena), trace.ops, handles)
            c = arena.cmp_count - c0
            self.counts[f"{kind}_cmp"] += c
            self.calls.append((f"replay.{kind}", c, 0))
            self.check.equal(f"replay {kind}", out, trace.expected)
        self.pipeline(trace.star, star)
        for iv in trace.windows:
            c, e = self.timed("audit_s", "audit", None, interval_audit, iv)
            self.info["intervals"] += len(iv)
            self.workset_intervals.append(iv)
            self.check.record(e >= c, f"interval audit: energy {e} below cost {c}")


def replay(q, ops, handles) -> list[int]:
    """Drive one queue through the trace; returns the extracted ids."""
    insert, extract, decrease = q.insert, q.extract_min, q.decrease_key
    token: dict[int, object] = {}
    out: list[int] = []
    j = 0
    for code, ident in ops:
        if code == 0:
            token[ident] = insert(handles[j], ident)
            j += 1
        elif code == 1:
            out.append(extract()[1])
        else:
            decrease(token[ident], handles[j])
            j += 1
    return out


def interval_audit(intervals):
    """The interval-only part of bound_report: cost(I) and greedy energy."""
    oa = optimality_audit
    sizes = oa.working_set_sizes(intervals)
    c = oa.cost(intervals, sizes)
    e = oa.energy(oa.greedy_coloring(intervals))
    return c, e


def run_pass(workload: str, inputs, tracer, checker: Checker) -> Pass:
    p = Pass(tracer, checker)
    if workload == "heap-churn":
        p.churn(inputs)
    elif workload == "random-sparse":
        p.graph(inputs[0], audit=True)
    else:
        # bound_report's O(n^2) sweep would swamp the brooms; audit the
        # dense member only, so audit_s stays a measured figure here too
        for raw in inputs:
            p.graph(raw, audit=raw.name.startswith("dense"))
    return p
