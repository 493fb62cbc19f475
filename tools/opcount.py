"""Count the bytecode instructions one benchmark pass executes, per function.

Wall time on a shared machine moves from run to run; the number of executed
bytecode instructions does not.  This script runs one pass of a queue or of
the pipeline over a perfbench input under ``sys.settrace`` with
``f_trace_opcodes`` on, and counts every instruction of every Python frame
entered inside the pass (C functions execute none)::

    PYTHONPATH=src python3 tools/opcount.py --workload heap-churn --seed 0 --target fibonacci
    PYTHONPATH=src python3 tools/opcount.py --workload random-sparse --seed 0 --target pipeline

``--target`` names a queue kind (``workset``, ``fibonacci``, ``binary``,
``pairing``), ``pipeline`` or ``audit``.  On random-sparse and broom-dense a
queue target runs ``run_dijkstra`` with that queue on each input graph,
``pipeline`` runs ``run_pipeline`` and ``audit`` runs ``bound_report`` on
each graph perfbench audits, after that graph's working-set run; on
heap-churn a queue target replays the churn trace on a fresh queue,
``pipeline`` runs on the trace's star and ``audit`` runs perfbench's
``interval_audit`` on each window.  Parsing, interning and the audited
working-set runs stay outside the count.  The output lists the total, its
split by instruction class (calls, tuple and list builds, attribute loads
and stores, subscripts and slices, everything else; each instruction's
opcode is read from ``co_code`` at ``f_lasti``) and the functions with the
most instructions.  Counts depend on the CPython version (these are for
the interpreter that runs the script) but not on the machine or its load,
so two checkouts are compared by running the script in each with the same
interpreter.
"""

from __future__ import annotations

import argparse
import dis
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench")]

from distorder import (WeightArena, bound_report, parse_graph,  # noqa: E402
                       run_dijkstra, run_pipeline)
from workloads import QUEUES, interval_audit, make_inputs, replay  # noqa: E402

WORKLOADS = ("random-sparse", "broom-dense", "heap-churn")
TARGETS = tuple(QUEUES) + ("pipeline", "audit")
TOP = 20  # functions listed under the total
CLASSES = {  # instruction class -> opcode names, across CPython versions
    "calls": ("CALL", "CALL_FUNCTION", "CALL_METHOD", "CALL_FUNCTION_KW",
              "CALL_FUNCTION_EX", "CALL_KW"),
    "builds": ("BUILD_TUPLE", "BUILD_LIST"),
    "attributes": ("LOAD_ATTR", "LOAD_METHOD", "STORE_ATTR", "DELETE_ATTR"),
    "subscripts": ("BINARY_SUBSCR", "STORE_SUBSCR", "DELETE_SUBSCR",
                   "BINARY_SLICE", "STORE_SLICE"),
}
CLASS_OF = {dis.opmap[name]: cls for cls, names in CLASSES.items()
            for name in names if name in dis.opmap}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--target", required=True, choices=TARGETS)
    return ap.parse_args(argv)


def calls(inputs, workload: str, target: str):
    """The pass over ``make_inputs(workload, seed)`` as (arena, zero-argument
    call) pairs, with fresh graphs or a fresh queue and interned keys; each
    call counts its comparisons and additions in its arena."""
    if workload == "heap-churn":
        if target == "audit":  # counts nothing: the audit compares no weights
            arena = WeightArena()
            return [(arena, lambda iv=iv: interval_audit(iv))
                    for iv in inputs.windows]
        if target == "pipeline":
            g = parse_graph(inputs.star.text)
            return [(g.arena, lambda: run_pipeline(g))]
        arena = WeightArena()
        handles = arena.intern_many(inputs.values)
        q = QUEUES[target](arena)
        return [(arena, lambda: replay(q, inputs.ops, handles))]
    out = []
    for raw in inputs:
        g = parse_graph(raw.text)
        if target == "audit":
            # perfbench audits every random-sparse graph but only the dense
            # member of broom-dense
            if workload == "random-sparse" or raw.name.startswith("dense"):
                run = run_dijkstra(g, "workset")
                out.append((g.arena, lambda run=run, g=g: bound_report(run, g)))
        elif target == "pipeline":
            out.append((g.arena, lambda g=g: run_pipeline(g)))
        else:
            out.append((g.arena, lambda g=g: run_dijkstra(g, target)))
    return out


def count_opcodes(fns) -> tuple[Counter, Counter]:
    """Executed instructions over the calls in ``fns``, per function and per
    instruction class (``CLASSES``, "other" for the rest)."""
    cells: dict = {}  # code -> executions of the instruction at each offset

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        cell = cells.get(code)
        if cell is None:
            cell = cells[code] = [0] * len(code.co_code)

        def on_event(frame, event, arg):
            if event == "opcode":
                cell[frame.f_lasti] += 1
            return on_event

        return on_event

    for fn in fns:
        sys.settrace(on_call)
        try:
            fn()
        finally:
            sys.settrace(None)
    counts: Counter = Counter()
    classes: Counter = Counter()
    for code, cell in cells.items():
        name = getattr(code, "co_qualname", code.co_name)
        path = os.path.relpath(code.co_filename, ROOT)
        counts[f"{path}:{name}"] += sum(cell)
        ops = code.co_code
        for off, n in enumerate(cell):
            if n:
                classes[CLASS_OF.get(ops[off], "other")] += n
    return counts, classes


def main(argv) -> int:
    args = parse_args(argv)
    inputs = make_inputs(args.workload, args.seed)
    counts, classes = count_opcodes(
        fn for _arena, fn in calls(inputs, args.workload, args.target))
    total = sum(counts.values())
    print(f"{args.workload} seed {args.seed} {args.target}: {total:,} instructions")
    print("  " + ", ".join(f"{cls} {classes[cls]:,}"
                           for cls in (*CLASSES, "other")))
    for name, n in counts.most_common(TOP):
        print(f"{n:>12,}  {100 * n / total:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    try:
        rc = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as ``| head -1`` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 0
    sys.exit(rc)
