"""Span recording for the traced benchmark run.

The package is instrumented from outside, without touching its source:

* class-level wrappers on the public methods of the four queues, the inner
  ``FibonacciHeap``, ``MinKeeper``, ``IntervalMap`` and ``LazyMin.resolve``;
* module-global wrappers on the phase functions that ``run_pipeline`` and
  ``bound_report`` look up at call time;
* per-instance wrappers on ``arena.compare`` and ``arena.add`` (slot
  attributes that every heap reads from the arena instance).

A span is (name, start, end, parent, solve id) plus the arena's comparison
and addition deltas over its lifetime.  Spans live in flat arrays in memory
and are written out once, at the end of the run.  Arena calls are too many to
keep as spans; their time is added to the enclosing span's child time, so a
span's self time is its duration minus everything its children cover.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from distorder import aux_structures, base_heap, comparison_optimal
from distorder import optimality_audit, workset_heap

KINDS = ("workset", "fibonacci", "binary", "pairing")
QUEUE_CLASSES = {
    "workset": workset_heap.WorkSetHeap,
    "fibonacci": base_heap.FibonacciQueue,
    "binary": base_heap.BinaryQueue,
    "pairing": base_heap.PairingQueue,
}
OPS = {"insert": "insert", "decrease": "decrease_key", "extract": "extract_min"}
PIPELINE_PHASES = ("dedup_input", "dominators", "drop_back_edges",
                   "contract_chains", "dedup_core", "core_sssp", "uncontract",
                   "tree_distances", "tree_dp")
AUDIT_FUNCS = ("working_set_sizes", "greedy_coloring",
               "tree_log_linearizations", "bfs_layer_bound",
               "verify_barrier_sequence")


class Tracer:
    """In-memory span store plus the install/uninstall of every wrapper."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by child spans and arena calls
        self.cmp = array("q")
        self.add = array("q")
        self.stack = [-1]
        self.stages: list[str] = []  # stage label per solve id
        self.arena = None  # arena whose counters the open spans read
        self.compare_s = 0.0
        self.add_s = 0.0
        self.max_rank = -1
        self.decrease_calls = 0  # Dijkstra decrease-key calls, workset stage
        self.decrease_useful = 0  # ... of which lowered the key
        self._last_key: dict = {}
        self._after_dominators = False
        self._saved: list[tuple] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -------------------------------------------------------------

    def open(self, nid: int) -> int:
        i = len(self.name)
        arena = self.arena
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.solve.append(len(self.stages) - 1)
        self.child.append(0.0)
        self.end.append(0.0)
        self.cmp.append(arena.cmp_count)
        self.add.append(arena.add_count)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        t = time.perf_counter()
        arena = self.arena
        self.end[i] = t
        self.cmp[i] = arena.cmp_count - self.cmp[i]
        self.add[i] = arena.add_count - self.add[i]
        stack = self.stack
        stack.pop()
        p = stack[-1]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def begin_stage(self, label: str, arena) -> int:
        """Open the top-level span of one solve; returns its span index."""
        self.stages.append(label)
        self.arena = arena
        self._last_key = {}
        self._after_dominators = False
        return self.open(self.intern(label))

    # -- wrappers ------------------------------------------------------------

    def _span_fn(self, name: str, fn):
        nid = self.intern(name)
        tr = self

        def wrapper(*args, **kw):
            i = tr.open(nid)
            try:
                return fn(*args, **kw)
            finally:
                tr.close(i)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Put every class-level and module-global wrapper in place."""
        tr = self
        for kind, cls in QUEUE_CLASSES.items():
            for op, meth in OPS.items():
                fn = cls.__dict__[meth]
                name = f"{kind}.{op}"
                if op == "insert":
                    new = self._queue_insert(name, fn, kind == "workset")
                elif op == "decrease":
                    new = self._queue_decrease(name, fn)
                else:
                    new = self._span_fn(name, fn)
                self._patch(cls, meth, new)
        fib = base_heap.FibonacciHeap
        for op, meth in (("insert", "insert"), ("decrease", "decrease_key"),
                         ("extract", "extract_min"), ("meld", "meld")):
            self._patch(fib, meth,
                        self._span_fn(f"base_heap.inner.{op}", fib.__dict__[meth]))
        mk = aux_structures.MinKeeper
        for meth in ("change_prefix", "set_entry", "decrease_if_lower", "find_min"):
            self._patch(mk, meth, self._span_fn(
                f"aux_structures.min_keeper.{meth}", mk.__dict__[meth]))
        im = aux_structures.IntervalMap
        for meth in ("set", "extend_right", "remove", "find"):
            self._patch(im, meth, self._span_fn(
                "aux_structures.interval_map", im.__dict__[meth]))

        lazy = comparison_optimal.LazyMin
        resolve = lazy.__dict__["resolve"]
        lazy_nid = self.intern("comparison_optimal.lazy_resolve")

        def lazy_resolve(lm):
            if lm.handle is not None:  # cached: no work, no span
                return lm.handle
            i = tr.open(lazy_nid)
            try:
                return resolve(lm)
            finally:
                tr.close(i)
        self._patch(lazy, "resolve", lazy_resolve)

        co = comparison_optimal
        dedup = co.deduplicate
        dedup_in = self.intern("comparison_optimal.dedup_input")
        dedup_core = self.intern("comparison_optimal.dedup_core")

        def deduplicate(g):
            i = tr.open(dedup_core if tr._after_dominators else dedup_in)
            try:
                return dedup(g)
            finally:
                tr.close(i)
        dominators = self._span_fn("comparison_optimal.dominators", co.dominator_tree)

        def dominator_tree(g):
            tr._after_dominators = True
            return dominators(g)
        self._patch(co, "deduplicate", deduplicate)
        self._patch(co, "dominator_tree", dominator_tree)
        for attr, name in (("_has_parallel_arcs", "dedup_input"),
                           ("drop_back_edges", "drop_back_edges"),
                           ("contract_chains", "contract_chains"),
                           ("run_dijkstra", "core_sssp"),
                           ("tree_distances", "tree_distances"),
                           ("tree_dp_linearize", "tree_dp"),
                           ("hwang_lin_merge", "hwang_lin")):
            self._patch(co, attr, self._span_fn(
                f"comparison_optimal.{name}", co.__dict__[attr]))

        oa = optimality_audit
        for attr in AUDIT_FUNCS:
            self._patch(oa, attr, self._span_fn(
                f"optimality_audit.{attr}", oa.__dict__[attr]))
        self._patch(oa, "forward_edges", self._span_fn(
            "graph_core.forward_edges", oa.__dict__["forward_edges"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _queue_insert(self, name, fn, sample_rank):
        nid = self.intern(name)
        tr = self

        def insert(q, key, vertex):
            i = tr.open(nid)
            try:
                token = fn(q, key, vertex)
            finally:
                tr.close(i)
            tr._last_key[token] = key
            if sample_rank:
                r = q.max_rank()
                if r > tr.max_rank:
                    tr.max_rank = r
            return token
        return insert

    def _queue_decrease(self, name, fn):
        nid = self.intern(name)
        tr = self

        def decrease_key(q, token, key):
            i = tr.open(nid)
            try:
                fn(q, token, key)
            finally:
                tr.close(i)
            if tr.stages[-1] == "dijkstra.workset":
                # Dijkstra passes a new distance handle only when it improved
                tr.decrease_calls += 1
                if tr._last_key.get(token) != key:
                    tr.decrease_useful += 1
            tr._last_key[token] = key
        return decrease_key

    def wrap_arena(self, arena) -> None:
        """Time every arena call; the time counts as child time of the open span."""
        compare0, add0 = arena.compare, arena.add
        pc = time.perf_counter
        stack, child, tr = self.stack, self.child, self

        def compare(a, b):
            t0 = pc()
            r = compare0(a, b)
            dt = pc() - t0
            tr.compare_s += dt
            top = stack[-1]
            if top >= 0:
                child[top] += dt
            return r

        def add(a, b):
            t0 = pc()
            r = add0(a, b)
            dt = pc() - t0
            tr.add_s += dt
            top = stack[-1]
            if top >= 0:
                child[top] += dt
            return r

        arena.compare = compare
        arena.add = add

    # -- output ----------------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def save(self, path) -> None:
        """Write every span, with its name table, as one .npz file."""
        t = self.table()
        np.savez(path, names=np.array(self.names), stages=np.array(self.stages),
                 name=t.name, parent=t.parent, solve=t.solve, start=t.start,
                 end=t.end, self_s=t.self_s, cmp=t.cmp, add=t.add)


class SpanTable:
    """Column view of the spans with derived self time and self counts."""

    def __init__(self, tr: Tracer):
        self.names = tr.names
        self.name = np.frombuffer(tr.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).copy()
        self.solve = np.frombuffer(tr.solve, dtype=np.int32).copy()
        self.start = np.frombuffer(tr.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tr.end, dtype=np.float64).copy()
        self.cmp = np.frombuffer(tr.cmp, dtype=np.int64).copy()
        self.add = np.frombuffer(tr.add, dtype=np.int64).copy()
        child = np.frombuffer(tr.child, dtype=np.float64)
        self.dur = self.end - self.start
        self.self_s = self.dur - child
        n = len(self.name)
        has_parent = self.parent >= 0
        kids = self.parent[has_parent]
        self.self_cmp = self.cmp - np.bincount(
            kids, weights=self.cmp[has_parent], minlength=n).astype(np.int64)
        self.self_add = self.add - np.bincount(
            kids, weights=self.add[has_parent], minlength=n).astype(np.int64)
        parent_name = np.full(n, -1, dtype=np.int32)
        parent_name[has_parent] = self.name[kids]
        self.parent_name = parent_name
        stage_ids = {s: tr.intern(s) for s in set(tr.stages)}
        self.stage = np.array([stage_ids[s] for s in tr.stages],
                              dtype=np.int32)[self.solve] if n else self.solve
        self._ids = tr._ids

    def select(self, name: str, stages=None, outer_only=True, not_under=None):
        """Mask of spans called ``name``, optionally limited by stage and parent.

        ``outer_only`` drops spans nested in a span of the same name, so a
        recursive layer is not counted twice.
        """
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == nid
        if outer_only:
            m &= self.parent_name != nid
        if stages is not None:
            sids = [self._ids[s] for s in stages if s in self._ids]
            m &= np.isin(self.stage, sids)
        if not_under is not None and not_under in self._ids:
            m &= self.parent_name != self._ids[not_under]
        return m
