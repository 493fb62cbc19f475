"""Per-layer metrics from one traced pass.

Queue-level figures are taken from the stage that drives that queue kind
(Dijkstra on graph workloads, the trace replay on heap-churn); the inner
heap and the M/U structures are taken from the workset stage only, so the
pipeline's own core Dijkstra never leaks into them.  Times are inclusive
span durations unless the name says ``self``.
"""

from __future__ import annotations

from distorder import optimality_audit

from tracer import AUDIT_FUNCS, KINDS, PIPELINE_PHASES


def queue_stages(kind: str) -> tuple[str, str]:
    return (f"dijkstra.{kind}", f"replay.{kind}")


def per_layer(tr, p, untraced_s: float, traced_s: float,
              window_extracts: int | None) -> dict[str, float]:
    """Every per-layer metric of one traced pass ``p`` (see BENCHMARK.json)."""
    t = tr.table()
    out: dict[str, float] = {}

    def total(name, field, stages=None, **kw):
        m = t.select(name, stages, **kw)
        return float(getattr(t, field)[m].sum())

    for kind in KINDS:
        stages = queue_stages(kind)
        for op in ("insert", "decrease", "extract"):
            out[f"{kind}.{op}_s"] = total(f"{kind}.{op}", "dur", stages)
            out[f"{kind}.{op}_cmp"] = total(f"{kind}.{op}", "cmp", stages)
        out[f"loop.{kind}.self_s"] = sum(
            total(s, "self_s", (s,)) for s in stages)

    relax = ("dijkstra.workset",)
    out["dijkstra.relaxations"] = float(t.select("workset.decrease", relax).sum())
    out["dijkstra.relax_cmp"] = total("dijkstra.workset", "self_cmp", relax)
    out["dijkstra.decrease_useful_ratio"] = (
        tr.decrease_useful / tr.decrease_calls if tr.decrease_calls else 0.0)

    ws = queue_stages("workset")
    for op in ("insert", "decrease", "extract", "meld"):
        name = f"base_heap.inner.{op}"
        out[f"{name}_s"] = total(name, "dur", ws)
        out[f"{name}_cmp"] = total(name, "cmp", ws)
    for op in ("change_prefix", "set_entry", "decrease_if_lower"):
        name = f"aux_structures.min_keeper.{op}"
        out[f"{name}_s"] = total(name, "dur", ws)
        out[f"{name}_cmp"] = total(name, "cmp", ws)
    out["aux_structures.min_keeper.find_min_s"] = total(
        "aux_structures.min_keeper.find_min", "dur", ws)
    out["aux_structures.interval_map.s"] = total(
        "aux_structures.interval_map", "dur", ws)
    out["aux_structures.interval_map.calls"] = float(
        t.select("aux_structures.interval_map", ws).sum())
    out["workset_heap.max_rank"] = float(tr.max_rank)
    out["workset_heap.extract_cmp_over_cost"] = _extract_over_cost(
        t, p, window_extracts)

    out["weights.compare_s"] = tr.compare_s
    out["weights.add_s"] = tr.add_s
    out["weights.cells_grown"] = float(sum(len(a) - n0 for a, n0 in p.arenas))

    pipe = ("pipeline",)
    for phase in PIPELINE_PHASES:
        key = f"comparison_optimal.{phase}"
        if phase == "uncontract":
            # run_pipeline's own inline code between its phase calls
            m = t.select("pipeline", pipe)
            cols = (t.self_s, t.self_cmp, t.self_add)
        else:
            m = t.select(key, pipe)
            cols = (t.dur, t.cmp, t.add)
        for suffix, col in zip(("_s", "_cmp", "_add"), cols):
            out[key + suffix] = float(col[m].sum())
    out["comparison_optimal.hwang_lin_s"] = total("comparison_optimal.hwang_lin", "dur", pipe)
    out["comparison_optimal.hwang_lin_cmp"] = total("comparison_optimal.hwang_lin", "cmp", pipe)
    out["comparison_optimal.hwang_lin_calls"] = float(
        t.select("comparison_optimal.hwang_lin", pipe).sum())
    out["comparison_optimal.lazy_resolve_cmp"] = total(
        "comparison_optimal.lazy_resolve", "cmp", pipe)
    out["comparison_optimal.lazy_resolve_calls"] = float(
        t.select("comparison_optimal.lazy_resolve", pipe, outer_only=False).sum())
    out["comparison_optimal.core_n_ratio"] = p.info["core_n"] / p.info["n"]
    out["comparison_optimal.core_m_ratio"] = p.info["core_m"] / p.info["m"]

    audit = ("audit",)
    for f in AUDIT_FUNCS:
        # direct calls only: greedy_coloring's own sweep stays inside it
        out[f"optimality_audit.{f}_s"] = total(
            f"optimality_audit.{f}", "dur", audit,
            not_under="optimality_audit.greedy_coloring")
    out["optimality_audit.intervals"] = float(p.info["intervals"])
    out["graph_core.forward_edges_s"] = total("graph_core.forward_edges", "dur", audit)

    parse = ("graph_core.parse",)
    out["graph_core.parse_s"] = total("graph_core.parse", "dur", parse)
    out["graph_core.arcs"] = float(p.info["arcs"])
    out["trace_overhead"] = traced_s / untraced_s
    return out


def _extract_over_cost(t, p, window_extracts) -> float:
    """Workset extract comparisons over cost(I) of the same intervals.

    On heap-churn only the extracts inside the audited windows count, so the
    numerator and the windows' cost(I) describe the same prefix of the trace.
    """
    m = t.select("workset.extract", queue_stages("workset"))
    cmp = t.cmp[m]
    if window_extracts is not None:
        cmp = cmp[:window_extracts]
    cost = sum(optimality_audit.cost(iv) for iv in p.workset_intervals)
    return float(cmp.sum()) / cost if cost else 0.0
