"""Distance ordering toolkit.

A priority queue with the working-set property, Dijkstra instrumented in the
comparison-addition model, a comparison-optimal contraction pipeline, and the
lower-bound audits that make the optimality claims measurable.
"""

from .weights import INFINITY, WeightArena
from .errors import ContractViolation, EmptyHeapError, GraphParseError, UsageError
from .aux_structures import MinKeeper
from .base_heap import BinaryQueue, FibonacciHeap, FibonacciQueue, HeapNodePool, PairingQueue
from .workset_heap import WorkSetHeap
from .graph_core import (Graph, SpanningTree, emit_graph, forward_edges,
                         gen_broom, gen_dense, gen_family, parse_graph)
from .dijkstra import DijkstraRun, run_dijkstra
from .optimality_audit import (BoundReport, bound_report, cost, energy,
                               greedy_coloring, tree_log_linearizations,
                               verify_barrier_sequence, working_set_sizes)
from .comparison_optimal import (contract_chains, deduplicate, dominator_tree,
                                 drop_back_edges, hwang_lin_merge,
                                 run_pipeline, tree_dp_linearize)

__all__ = [
    "INFINITY", "WeightArena", "ContractViolation", "EmptyHeapError",
    "GraphParseError", "UsageError", "MinKeeper",
    "BinaryQueue", "FibonacciHeap", "FibonacciQueue",
    "HeapNodePool", "PairingQueue", "WorkSetHeap", "Graph", "SpanningTree",
    "emit_graph", "forward_edges", "gen_broom", "gen_dense", "gen_family",
    "parse_graph", "DijkstraRun", "run_dijkstra", "BoundReport",
    "bound_report", "cost", "energy", "greedy_coloring",
    "tree_log_linearizations", "verify_barrier_sequence", "working_set_sizes",
    "contract_chains", "deduplicate", "dominator_tree", "drop_back_edges",
    "hwang_lin_merge", "run_pipeline", "tree_dp_linearize",
]
