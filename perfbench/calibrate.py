"""Machine-speed reference for the benchmark's end-to-end times.

The speed of a shared box drifts by tens of percent over tens of seconds
(other tenants' load), and it slows pure-Python code of every kind by
roughly, though not exactly, the same factor.  Each timed call is
therefore bracketed by two rounds of a fixed, benchmark-owned pure-Python
workload, and the call's time is reported as

    measured seconds * REFERENCE_S / (mean of the two round times)

that is, in seconds at the speed where one round takes ``REFERENCE_S``.
The rounds never touch the package, so a change to the package moves the
reported time exactly as it moves the measured one; only the drift of the
machine cancels, and only in part.  A round mixes three kinds of
interpreter work that the package also does: a binary heap with a counting
comparator over integer keys, exact ``Fraction`` arithmetic, and building
and walking a graph of small objects.
"""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random

# One round's time on a 2-CPU shared box at its typical speed.
REFERENCE_S = 0.005

_rng = Random(2311_11793)
_KEYS = [_rng.randrange(1 << 40) for _ in range(800)]
_FRACTIONS = [Fraction(_rng.randrange(1, 10**6), _rng.choice((1, 2, 3, 4, 6, 8, 12, 24)))
              for _ in range(200)]
_N = 1500
_ARCS = [(_rng.randrange(_N), _rng.randrange(_N)) for _ in range(3 * _N)]
del _rng


class _Arena:
    __slots__ = ("keys", "count")

    def __init__(self, keys):
        self.keys = keys
        self.count = 0

    def less(self, a, b):
        self.count += 1
        return self.keys[a] < self.keys[b]


def _heap_sort() -> list[int]:
    """Heap-sort the key indices with a comparator that counts."""
    less = _Arena(_KEYS).less
    heap: list[int] = []
    for i in range(len(_KEYS)):
        heap.append(i)
        j = len(heap) - 1
        while j:
            up = (j - 1) >> 1
            if not less(heap[j], heap[up]):
                break
            heap[j], heap[up] = heap[up], heap[j]
            j = up
    out = []
    while heap:
        out.append(heap[0])
        last = heap.pop()
        if not heap:
            break
        heap[0] = last
        j, n = 0, len(heap)
        while True:
            c = 2 * j + 1
            if c >= n:
                break
            if c + 1 < n and less(heap[c + 1], heap[c]):
                c += 1
            if not less(heap[c], heap[j]):
                break
            heap[j], heap[c] = heap[c], heap[j]
            j = c
    return out


def _fraction_walk() -> Fraction:
    s = Fraction(0)
    for x in _FRACTIONS:
        s = s + x if s < 3 * x else s - x
    return s


class _Node:
    __slots__ = ("key", "out", "seen")

    def __init__(self, key):
        self.key = key
        self.out = []
        self.seen = False


def _graph_walk() -> dict[int, int]:
    """Build a random digraph of small objects; number it depth first."""
    nodes = [_Node(i) for i in range(_N)]
    for u, v in _ARCS:
        nodes[u].out.append(nodes[v])
    order: dict[int, int] = {}
    stack = [nodes[0]]
    while stack:
        x = stack.pop()
        if not x.seen:
            x.seen = True
            order[x.key] = len(order)
            stack.extend(x.out)
    return order


def round_seconds() -> float:
    """Wall time of one round, now."""
    t0 = time.perf_counter()
    _heap_sort()
    _fraction_walk()
    _graph_walk()
    return time.perf_counter() - t0


assert [_KEYS[i] for i in _heap_sort()] == sorted(_KEYS)
