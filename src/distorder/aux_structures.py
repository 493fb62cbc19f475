"""Auxiliary structures for the working-set heap.

* :class:`MinKeeper` maintains an array M of keyed entries, one per heap
  rank, plus the array S of suffix-minimum witnesses: S[i] is the index of
  the leftmost minimum of M[i:], so the global minimum's index is S[0] and
  each suffix minimum's value is read from M, never stored twice.  Both
  are plain lists: they never hold more than a handful of entries, and a
  run of equal suffix minima is a stretch of equal indices in S.  The
  heap's carries and fuses move whole entries between ranks, so S is
  shifted or collapsed along with M instead of recomputed: a carry costs
  at most one comparison here and a fuse none, and S's witnesses settle
  for free which of two adjacent ranks' minima comes first
  (:meth:`MinKeeper.order`).
* :class:`IntervalMap` stores right-open, pairwise non-overlapping integer
  intervals with attached payloads and answers point queries by bisection.
  The working-set heap no longer uses it (each inner heap caches its own
  interval); it stays only while the benchmark's tracer still wraps it.

Entries in :class:`MinKeeper` are (weight handle, tiebreak) pairs ordered by
the arena comparison first and the integer tiebreak second, so callers that
need a deterministic total order (the working-set heap breaks ties by vertex
id) get one without extra weight comparisons.  Empty ranks hold the EMPTY
entry, above every live one, +inf keys included; the suffix-minimum loops
test each side for +inf with an int comparison and settle those cases with
``arena.compare_inf``, never ``arena.compare``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .errors import ContractViolation
from .weights import INFINITY

# The entry of an empty slot (an empty rank of the working-set heap): +inf,
# with a tiebreak above every integer, so a live +inf key, whose tiebreak is
# its vertex, comes first and S[i] points at an empty slot only when M[i:]
# is all empty.
EMPTY = (INFINITY, math.inf)


class IntervalMap:
    """Right-open, non-overlapping intervals [a, b) -> payload.

    Unused by the package; goes once the benchmark drops its wrappers on it.
    """

    __slots__ = ("_starts", "_ends", "_vals")

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._vals: list = []

    def set(self, a: int, b: int, payload) -> None:
        """Store [a, b) -> payload.  [a, b) must not overlap a stored interval."""
        if a >= b:
            raise ContractViolation(f"empty interval [{a}, {b})")
        starts = self._starts
        i = bisect_left(starts, a)
        if (i > 0 and self._ends[i - 1] > a) or (
            i < len(starts) and starts[i] < b
        ):
            raise ContractViolation(f"[{a}, {b}) overlaps a stored interval")
        starts.insert(i, a)
        self._ends.insert(i, b)
        self._vals.insert(i, payload)

    def extend_right(self, a: int, b: int, new_end: int) -> None:
        """Grow the rightmost interval [a, b) to [a, new_end) in place.

        Only valid for the interval with the largest start; the growth must
        stay within uncovered space, which is automatic on the right edge.
        """
        starts = self._starts
        if not starts or starts[-1] != a or self._ends[-1] != b or new_end <= b:
            raise ContractViolation("extend_right requires the rightmost interval")
        self._ends[-1] = new_end

    def remove(self, a: int, b: int) -> None:
        """Delete [a, b) if present; no-op otherwise."""
        i = bisect_left(self._starts, a)
        if i < len(self._starts) and self._starts[i] == a and self._ends[i] == b:
            del self._starts[i]
            del self._ends[i]
            del self._vals[i]

    def find(self, t: int) -> tuple | None:
        """(a, b, payload) of the interval covering t, or None."""
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and self._ends[i] > t:
            return (self._starts[i], self._ends[i], self._vals[i])
        return None


class MinKeeper:
    """Array M of (handle, tiebreak) entries plus the suffix minima S of M.

    Entries are ordered by the arena comparison on handles, ties by the
    integer tiebreak.  Both arrays are plain lists of equal length: M[i] is
    a (handle, tiebreak) pair and S[i] is the index of the leftmost minimum
    of M[i:], so ``find_min`` is a single O(1) read and S's witnesses never
    decrease along S.  A maximal stretch of equal indices in S is a run;
    ``decrease`` walks S leftward one run at a time, paying one comparison
    per run, and is amortized O(1) by the usual distinct-run potential.
    ``shift`` and ``collapse`` move entries between slots and remap S's
    indices with them; ``shift`` pays at most one comparison and
    ``collapse`` none.  ``clear_first`` empties M[0] for free, and
    refilling an EMPTY M[0] with ``decrease`` pays at most one comparison.
    """

    __slots__ = ("_arena", "_m", "_s")

    def __init__(self, arena):
        self._arena = arena
        self._m: list[tuple] = []  # (handle, tiebreak)
        self._s: list[int] = []  # index of the leftmost minimum of M[i:]

    def __len__(self):
        return len(self._m)

    def entries(self) -> list[tuple]:
        """The live (handle, tiebreak) pair list.  Treat as read-only."""
        return self._m

    def _cmp(self, ha, ta, hb, tb) -> int:
        c = self._arena.compare(ha, hb)
        if c:
            return c
        return (ta > tb) - (ta < tb)

    def change_prefix(self, prefix: list) -> None:
        """Set M[0 : len(prefix)] = prefix; recompute the first suffix minima.

        ``prefix`` entries are (handle, tiebreak) pairs.  May extend M.
        """
        k = len(prefix)
        if k == 0:
            return
        m = self._m
        if k >= len(m):
            self._m = list(prefix)
        else:
            m[:k] = prefix
        self._recompute_prefix(k)

    def set_entry(self, i: int, handle: int, tie: int = 0) -> None:
        """Set M[i] := (handle, tie) with change-prefix semantics (O(i))."""
        self._m[i] = (handle, tie)
        self._recompute_prefix(i + 1)

    def _recompute_prefix(self, k: int) -> None:
        # Rebuild S[0..k-1] right to left, one comparison per position
        # against the running minimum; ``<= 0`` keeps the leftmost tie.
        m = self._m
        s = self._s
        compare = self._arena.compare
        if k < len(s):
            w = s[k]
        else:
            s.extend([0] * (k - len(s)))  # M grew to length k
            k -= 1
            s[k] = w = k
        bh, bt = m[w]
        for i in range(k - 1, -1, -1):
            h, t = m[i]
            if h == INFINITY or bh == INFINITY:
                c = self._arena.compare_inf(h, bh)
            else:
                c = compare(h, bh)
            if c < 0 or (c == 0 and t <= bt):
                w = i
                bh = h
                bt = t
            s[i] = w

    def decrease_if_lower(self, i: int, x: int, tie: int = 0) -> bool:
        """One comparison; apply the decrease only if it lowers M[i].

        The working-set heap no longer calls this (it knows when M[i] can
        drop); the benchmark's tracer still wraps it by name.
        """
        h, t = self._m[i]
        if self._cmp(x, tie, h, t) > 0:
            return False
        self.decrease(i, x, tie)
        return True

    def decrease(self, i: int, x: int, tie: int = 0) -> None:
        """Set M[i] := (x, tie).  Unchecked: (x, tie) must not exceed M[i]."""
        m = self._m
        m[i] = (x, tie)
        s = self._s
        arena = self._arena
        compare = arena.compare
        w = s[i]
        # M[i] already holds the new entry, so only a witness w != i is read
        # from M; when w == i, S[i] was the old M[i], which the new entry
        # does not exceed, and the comparison's outcome is known
        if w != i:
            h, t = m[w]
            c = arena.compare_inf(x, h) if h == INFINITY else compare(x, h)
            if c > 0 or (c == 0 and tie > t):
                return  # a later entry is still smaller; S untouched
        j = i
        while True:
            # overwrite the run ending at j, then compare with the run left
            # of it, whose witness lies below i and so is an old entry
            while j >= 0 and s[j] == w:
                s[j] = i
                j -= 1
            if j < 0:
                return
            w = s[j]
            h, t = m[w]
            c = arena.compare_inf(h, x) if h == INFINITY else compare(h, x)
            if c < 0 or (c == 0 and t <= tie):
                return

    def find_min(self) -> int:
        """Index of the minimum entry (leftmost on full ties)."""
        if not self._m:
            raise ContractViolation("find_min on empty MinKeeper")
        return self._s[0]

    def order(self, i: int) -> int | None:
        """What S says of M[i] against M[i+1], at no cost.

        -1 when M[i] comes first, 1 when M[i+1] does, None when S leaves it
        open.  S[i] decides: i means M[i] <= M[i+1], strictly when their
        tiebreaks differ; i + 1 means M[i+1] < M[i].
        """
        w = self._s[i]
        if w == i:
            m = self._m
            return -1 if m[i][1] != m[i + 1][1] else None
        return 1 if w == i + 1 else None

    def shift(self, r: int, entry: tuple, top: tuple) -> None:
        """M[0 : r+1] := [entry, *M[0 : r-1], top] for r >= 1; one comparison.

        This is a carry landing at rank r: each old M[i] for i < r - 1 moves
        up one slot, and ``top`` must be the lesser of the old M[r-1] and
        M[r] (just the old M[r-1] when M[r] is absent, which extends M).
        S[1 : r+1] is then the old S[0 : r] with its indices remapped (old
        r - 1 and r now share slot r), and only S[0] = min(entry, S[1])
        costs a comparison, free when either side is +inf.
        """
        m = self._m
        s = self._s
        m[: r + 1] = [entry, *m[: r - 1], top]
        shifted = [w + 1 if w < r - 1 else max(w, r) for w in s[:r]]
        h, t = entry
        bh, bt = m[shifted[0]]
        if h == INFINITY or bh == INFINITY:
            c = self._arena.compare_inf(h, bh)
        else:
            c = self._arena.compare(h, bh)
        first = 0 if c < 0 or (c == 0 and t <= bt) else shifted[0]
        s[: r + 1] = [first, *shifted]

    def clear_first(self) -> None:
        """M[0] := EMPTY.  Free: S[0] becomes a copy of S[1].

        EMPTY loses every tie, so min(M[0:]) is M[S[1]] unless that is
        EMPTY too, and then the leftmost EMPTY is M[0] itself.  The
        working-set heap fills the slot again through ``decrease`` (EMPTY
        is above every entry), which then costs at most the one comparison
        against M[S[0]] = M[S[1]].
        """
        m = self._m
        s = self._s
        m[0] = EMPTY
        s[0] = s[1] if len(s) > 1 and m[s[1]][1] != math.inf else 0

    def collapse(self, j: int, top: tuple) -> None:
        """Fold M[j+1] into M[j]: M[j] := top, M[j+1] := EMPTY.  Free.

        ``top`` must be the lesser of the old M[j] and M[j+1], and every
        entry above j + 1 must be EMPTY.  A last M[j+1] is dropped instead.
        S keeps its values; its witnesses j and j + 1 become j.
        """
        m = self._m
        s = self._s
        m[j] = top
        i = j
        # witnesses never decrease along S, so those >= j end S[0 : j+1]
        while i >= 0 and s[i] >= j:
            s[i] = j
            i -= 1
        if len(m) == j + 2:
            m.pop()
            s.pop()
        else:
            m[j + 1] = EMPTY
            s[j + 1] = j + 1

    def check(self, value_of=None) -> None:
        """Debug: S[i] is the brute-force leftmost minimum of M[i:], every i.

        ``value_of`` maps a handle, INFINITY included, to its exact value,
        and then the check spends no comparisons; without it the check
        compares on the arena, so call it only outside measured runs.
        """
        m = self._m
        s = self._s
        assert len(s) == len(m)
        if value_of is None:
            cmp = self._cmp
        else:
            def cmp(ha, ta, hb, tb):
                a = (value_of(ha), ta)
                b = (value_of(hb), tb)
                return (a > b) - (a < b)
        for i in range(len(m)):
            best = i  # leftmost minimum of M[i:]
            for j in range(i + 1, len(m)):
                if cmp(*m[j], *m[best]) < 0:
                    best = j
            assert s[i] == best, f"S[{i}] is not the leftmost minimum of M[{i}:]"
