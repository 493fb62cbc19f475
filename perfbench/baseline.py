"""Seed sweep, spread report, and the committed seed-code baseline.

Runs ``run.py`` once per (workload, seed) in a fresh process, then prints
for every end-to-end metric its median, quartiles and spread (quartile
distance over median) next to the bound from BENCHMARK.json.  With
``--write`` it also measures the outlier probes below and writes
``perfbench/baseline.json``, which ``run.py`` quotes next to each figure;
without it, each median is compared with the recorded one and flagged when
it is worse by more than the metric's bound.

    python3 perfbench/baseline.py --seeds 0-9 --seconds 40
    python3 perfbench/baseline.py --seeds 0-9 --seconds 40 --write
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(workload: str, seeds, seconds: float) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                             cwd=ROOT).stdout.splitlines()
        res = json.loads(out[-1])
        if not res["correct"]:
            sys.exit(f"{workload} seed {seed}: incorrect output\n" + "\n".join(out))
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    return values


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


# -- outlier probes ------------------------------------------------------------


def probes() -> dict:
    """Single measurements that locate the seed code's known outliers."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import random

    from distorder import optimality_audit, parse_graph, run_dijkstra
    from distorder import comparison_optimal

    import workloads

    def clock(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0

    tree_dp = []
    for t in (32, 64, 128):
        g = parse_graph(workloads.broom(random.Random(0), t).text)
        p = comparison_optimal.run_pipeline(g)
        _, dt = clock(comparison_optimal.tree_dp_linearize, p.tree, p.dist, g.arena)
        tree_dp.append({"t": t, "n": g.n, "tree_dp_s": dt})

    coloring = []
    trace = workloads.ChurnTrace(random.Random(0), 16_000, (), 1)
    for window in (1000, 2000, 4000):
        iv = workloads._window(trace.ops[:window])
        _, heap_s = clock(optimality_audit.greedy_coloring, iv)
        g = parse_graph(workloads.random_sparse(random.Random(0), len(iv)).text)
        run = run_dijkstra(g, "workset")
        _, dijkstra_s = clock(optimality_audit.greedy_coloring, run.intervals)
        coloring.append({"window_ops": window, "intervals": len(iv),
                         "heap_trace_s": heap_s, "dijkstra_trace_s": dijkstra_s})

    g = parse_graph(workloads.random_sparse(random.Random(0), 20_000).text)
    cmp20k = {k: run_dijkstra(g, k).comparisons for k in ("workset", "fibonacci")}
    return {
        "broom_tree_dp_growth": {
            "note": "tree_dp_linearize on brooms with n = t^2: quadratic in n",
            "points": tree_dp},
        "greedy_coloring_heap_vs_dijkstra": {
            "note": "greedy_coloring on heap-churn prefixes vs workset Dijkstra "
                    "intervals of a random digraph with as many vertices",
            "points": coloring},
        "random_sparse_20k_cmp": {
            "note": "workset spends more comparisons than fibonacci on "
                    "random digraphs (n=20000, seed 0)",
            **cmp20k},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--workloads", default="random-sparse,broom-dense,heap-churn")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    recorded = {}
    if not args.write and (HERE / "baseline.json").is_file():
        recorded = json.loads((HERE / "baseline.json").read_text())["workloads"]
    seeds = seed_range(args.seeds)
    result = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    if args.write:  # before the long sweep, so a failing probe fails fast
        result["outliers"] = probes()
    for wl in args.workloads.split(","):
        values = sweep(wl, seeds, args.seconds)
        stats = result["workloads"][wl] = {}
        print(f"== {wl} ({len(seeds)} seeds)")
        for name, vals in values.items():
            s = stats[name] = summarize(vals)
            s["values"] = vals
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            base = recorded.get(wl, {}).get(name)
            if base:
                ratio = s["median"] / base["median"]
                worse = ratio > 1 + bounds[name]  # every metric is lower-is-better
                flag += f"  x{ratio:.4f} of recorded{' WORSE' if worse else ''}"
            print(f"{name:14s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}")
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")
        print(json.dumps(result["outliers"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
