"""Time one queue or the pipeline in two checkouts, alternating processes.

perfbench runs each workload of a checkout in one process, and its times
spread from process to process by several percent; two checkouts run one
after the other also meet the machine at different loads.  This script
alternates: each pair starts one fresh process per checkout, the two in
turn (A first in even pairs, B first in odd ones), and each process times
the same passes over perfbench's inputs::

    python3 tools/ab_time.py PARENT CHANGE --workload heap-churn --target binary --pairs 10

PARENT and CHANGE are checkout roots.  Each side imports ``distorder`` from
its own ``src``; the inputs and the pass come from this script's checkout
(``perfbench/workloads.py`` through ``tools/opcount.py``), so both sides run
the same pass.  ``--target`` names a queue kind, ``pipeline`` or ``audit``,
run as in ``tools/opcount.py``: Dijkstra with that queue (or ``run_pipeline``,
or ``bound_report`` on each audited graph) on the input graphs of
random-sparse and broom-dense, and on heap-churn a replay of the churn trace
on a fresh queue (or the pipeline on the trace's star, or the interval audit
of each window).
Parsing and interning stay outside the timed region.  A process reports the
median wall time of its ``PASSES`` passes.  The script prints both sides'
medians over the pairs, the median of the per-pair ratios B/A (a load change
on the machine partway through a run moves both sides of a pair, and so
leaves their ratio alone), and the pairs B won, and exits 1 if the
comparison or addition counts of any pass differ.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("random-sparse", "broom-dense", "heap-churn")
TARGETS = ("workset", "fibonacci", "binary", "pairing", "pipeline", "audit")
PASSES = 9  # timed passes per process
TOOLS = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="checkout root of side A (the parent)")
    ap.add_argument("b", help="checkout root of side B (the change)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--target", required=True, choices=TARGETS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    return args


def side(root: str, workload: str, target: str, seed: int) -> dict:
    """Time ``PASSES`` passes of one checkout; its median and every count."""
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path[:0] = [src, TOOLS]
    import distorder
    from opcount import calls, make_inputs

    if os.path.dirname(os.path.dirname(distorder.__file__)) != src:
        sys.exit(f"ab_time: imported distorder from {distorder.__file__}")
    inputs = make_inputs(workload, seed)
    times, counts = [], []
    for _ in range(PASSES):
        total, pass_counts = 0.0, []
        for arena, fn in calls(inputs, workload, target):
            c0, a0 = arena.counters()
            gc.collect()
            t0 = time.perf_counter()
            fn()
            total += time.perf_counter() - t0
            c1, a1 = arena.counters()
            pass_counts.append((c1 - c0, a1 - a0))
        times.append(total)
        counts.append(pass_counts)
    return {"median": statistics.median(times), "counts": counts}


def run_side(root: str, args) -> dict:
    """Run ``side`` for one checkout in a fresh process."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from ab_time import side; "
            "print(json.dumps(side(*sys.argv[2:5], int(sys.argv[5]))))")
    cmd = [sys.executable, "-c", code, TOOLS, root, args.workload,
           args.target, str(args.seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    args = parse_args(argv)
    a_times, b_times, counts = [], [], []
    wins = 0
    for k in range(args.pairs):
        order = ((args.a, a_times), (args.b, b_times))
        if k % 2:
            order = order[::-1]
        for root, out in order:
            res = run_side(root, args)
            out.append(res["median"])
            counts.extend(res["counts"])
        wins += b_times[-1] < a_times[-1]
        print(f"pair {k}: A {a_times[-1]:.6f} s  B {b_times[-1]:.6f} s  "
              f"x{b_times[-1] / a_times[-1]:.3f}")
    a, b = statistics.median(a_times), statistics.median(b_times)
    ratio = statistics.median(y / x for x, y in zip(a_times, b_times))
    print(f"{args.workload} {args.target} seed {args.seed}: A median {a:.6f} s, "
          f"B median {b:.6f} s, median pair ratio x{ratio:.3f}, "
          f"B won {wins} of {args.pairs} pairs")
    distinct = {json.dumps(c) for c in counts}
    if len(distinct) > 1:
        print(f"counts differ: {len(distinct)} distinct (comparisons, additions) "
              "lists per pass", file=sys.stderr)
        return 1
    cmp_total = sum(c for c, _a in counts[0])
    add_total = sum(a for _c, a in counts[0])
    print(f"counts identical in every pass: {cmp_total:,} comparisons, "
          f"{add_total:,} additions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
