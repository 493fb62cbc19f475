"""Auxiliary structures for the working-set heap.

* :class:`MinKeeper` maintains an array M of keyed entries, one per heap
  rank, and where their minima lie.  The top entry M[T], T = len(M) - 1,
  is kept apart: L[i] is the index of the leftmost minimum of the lower
  entries M[i:T], j is the first position whose L the top beats, and a
  bitmask marks the positions of L that may be stale, all at or above j,
  where nothing reads them.  The suffix-minimum witnesses S of all of M
  (S[i] the index of the leftmost minimum of M[i:]) follow for free: S[i] =
  L[i] below j and T from j on.  So the global minimum's index is S[0] and
  each minimum's value is read from M, never stored twice.  L is a plain
  list: it never holds more than a handful of entries, and a run of equal
  suffix minima is a stretch of equal indices in it.  The heap's carries and
  fuses move whole entries between ranks, so L is shifted or collapsed
  along with M instead of recomputed (a carry into the top is a fuse
  followed by a one-slot grow), and S's witnesses settle for free
  which of two adjacent ranks' minima comes first (:meth:`MinKeeper.order`).
* :class:`IntervalMap` stores right-open, pairwise non-overlapping integer
  intervals with attached payloads and answers point queries by bisection.
  The working-set heap no longer uses it (each inner heap caches its own
  interval); it stays only while the benchmark's tracer still wraps it.

Entries in :class:`MinKeeper` are (weight handle, tiebreak) pairs ordered by
the arena comparison first and the integer tiebreak second, so callers that
need a deterministic total order (the working-set heap breaks ties by vertex
id) get one without extra weight comparisons.  Empty ranks hold the EMPTY
entry, above every live one, +inf keys included.  A comparison with a +inf
side goes through ``arena.compare`` like any other, which settles it for
free.

Comparison costs.  A carry costs at most one comparison here and a fuse
none, and emptying M[0] none.  A drop of a lower entry walks L leftward one
run per comparison, or, where the top already comes first, compares with the
top alone and marks L stale.  A change of a lower entry M[i] rebuilds L[0..i]
at one comparison per position, as many as rebuilding S[0..i] would.  A
change of the top, which is what an extract from the top rank makes,
refreshes each stale position at one comparison and then compares the top
with L's runs from position 0 until it beats one: on random graphs about 1.6
comparisons in all, where rebuilding S[0..T] would pay T.  A change of
M[T-1] rebuilds all of L, T - 1 comparisons, and then looks for j the same
way, so it pays the T of a rebuild of S whenever the top beats L[0]'s run.
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
    """Array M of (handle, tiebreak) entries and where the minima of M lie.

    Entries are ordered by the arena comparison on handles, ties by the
    integer tiebreak; on a full tie the leftmost entry comes first.  With
    T = len(M) - 1 the top entry M[T] is kept apart from the lower ones:

    * L[i], for i < T, is the index of the leftmost minimum of M[i:T], the
      suffix minima of the lower entries alone, so L[T-1] = T-1;
    * j is the least i < T at which the top beats M[L[i]], T if none; the
      top beats L[i] exactly for i >= j, since L's minima only rise with i;
    * a bitmask marks the positions of L that may be stale.  They all lie
      in [j, T-1), where nothing reads L.

    The suffix minima S of M (S[i] the index of the leftmost minimum of
    M[i:]) follow for free: S[i] = L[i] for i < j and T from j on, so
    ``find_min`` (S[0]) and ``order`` are O(1) reads and S's witnesses never
    decrease.  A maximal stretch of equal witnesses is a run; a run ends at
    its witness.

    Costs, in comparisons.  ``decrease`` pays one per run it walks leftward
    (amortized O(1) by the usual distinct-run potential); where the top
    already comes first it compares with the top alone and marks L[j..i]
    stale instead of walking.  ``set_entry`` below T - 1 rebuilds positions
    i..0 at one each, the top standing in for L while it stays ahead.
    ``shift`` pays one and ``collapse`` and ``clear_first`` none; a carry
    into the top is a ``collapse`` followed by a one-slot grow.
    ``set_entry`` at the top refreshes each stale position at one, then
    compares the top with L's runs from position 0 until it beats one; at
    T - 1 it rebuilds all of L (T - 1) and then does the same.  Only those
    two can pay more than a rebuild of S would: a top that loses to several
    runs pays one per run.
    """

    __slots__ = ("_arena", "_m", "_l", "_j", "_stale")

    def __init__(self, arena):
        self._arena = arena
        self._m: list[tuple] = []  # (handle, tiebreak)
        self._l: list[int] = []  # index of the leftmost minimum of M[i:T]
        self._j = 0  # the top is S[i] exactly for i >= j
        self._stale = 0  # bit i: L[i] may be stale; only j <= i < T - 1

    def __len__(self):
        return len(self._m)

    def change_prefix(self, prefix: list) -> None:
        """Set M[0 : len(prefix)] = prefix; recompute the first suffix minima.

        ``prefix`` entries are (handle, tiebreak) pairs.  May extend M.
        """
        k = len(prefix)
        if k == 0:
            return
        m = self._m
        if k < len(m):
            m[:k] = prefix
            self.set_entry(k - 1, *prefix[-1])
            return
        self._m = m = list(prefix)
        T = k - 1
        self._l = list(range(T))
        self._j = T
        self._stale = 0
        if T:
            self.set_entry(T - 1, *m[T - 1])

    def set_entry(self, i: int, handle: int, tie: int = 0) -> None:
        """Set M[i] := (handle, tie) with change-prefix semantics.

        Below T - 1, positions i..0 are rebuilt at one comparison each, the
        top standing in for L while it stays ahead.  At T - 1 all of L is
        rebuilt from L[T-1] = T-1, and at the top only the stale positions
        are refreshed, at one comparison each; then j is found by walking
        L's runs from position 0, one comparison per run until the top
        beats one.
        """
        m = self._m
        m[i] = (handle, tie)
        l = self._l
        T = len(l)
        compare = self._arena.compare
        if i == T:
            stale = self._stale
            if stale:
                # right to left, so that L[b+1] is fresh when L[b] needs it
                self._stale = 0
                while stale:
                    b = stale.bit_length() - 1
                    stale ^= 1 << b
                    w = l[b + 1]
                    h, t = m[b]
                    bh, bt = m[w]
                    c = compare(h, bh)
                    l[b] = b if c < 0 or (c == 0 and t <= bt) else w
        else:
            if i == T - 1:
                # all of L is rebuilt from L[T-1] = T-1
                self._stale = 0
                handle, tie = m[T]
                w = i
                k = i - 1
            elif i + 1 < self._j:
                w = l[i + 1]  # fresh: rebuild L[i..0] from it
                k = i
            else:
                # the top beats L[i+1]; it stays the running minimum down to
                # the first k whose entry beats it, and L[k+1..i] goes stale
                th, tt = m[T]
                k = i
                while k >= 0:
                    h, t = m[k]
                    c = compare(h, th)
                    if c < 0 or (c == 0 and t <= tt):
                        break
                    k -= 1
                self._j = k + 1
                stale = self._stale & -(2 << i)  # positions i+1 up are untouched
                if k < i:
                    stale |= (2 << i) - (1 << (k + 1))
                self._stale = stale
                if k < 0:
                    return
                l[k] = w = k
                k -= 1
            # right to left against the running minimum; ``<= 0`` keeps the
            # leftmost tie
            bh, bt = m[w]
            for k in range(k, -1, -1):
                h, t = m[k]
                c = compare(h, bh)
                if c < 0 or (c == 0 and t <= bt):
                    w = k
                    bh = h
                    bt = t
                l[k] = w
            if i < T - 1:
                return
        k = 0
        while k < T:
            w = l[k]
            h, t = m[w]
            c = compare(handle, h)
            if c < 0 or (c == 0 and tie < t):
                break  # the top beats the run of w, and every run after it
            k = w + 1  # the run of w ends at w
        self._j = k

    def decrease_if_lower(self, i: int, x: int, tie: int = 0) -> bool:
        """One comparison; apply the decrease only if it lowers M[i].

        The working-set heap no longer calls this (it knows when M[i] can
        drop); the benchmark's tracer still wraps it by name.
        """
        h, t = self._m[i]
        c = self._arena.compare(x, h)
        if c > 0 or (c == 0 and tie > t):
            return False
        self.decrease(i, x, tie)
        return True

    def decrease(self, i: int, x: int, tie: int = 0) -> None:
        """Set M[i] := (x, tie).  Unchecked: (x, tie) must not exceed M[i]."""
        m = self._m
        m[i] = (x, tie)
        l = self._l
        T = len(l)
        j = self._j
        compare = self._arena.compare
        if i == T:
            # the top only drops: it takes over each run left of j it beats
            k = j - 1
            while k >= 0:
                w = l[k]
                h, t = m[w]
                c = compare(h, x)
                if c < 0 or (c == 0 and t <= tie):
                    break
                k -= 1
                while k >= 0 and l[k] == w:
                    k -= 1
            self._j = k + 1
            return
        if i >= j:
            # S[i] is the top, which the old M[i] lost to
            h, t = m[T]
            c = compare(x, h)
            if c > 0 or (c == 0 and tie > t):
                # the top still comes first: L[j..i] may now point at i,
                # except where it already did, from a fresh run ending at i
                stale = self._stale
                k = i
                while k >= j and l[k] == i and not stale >> k & 1:
                    k -= 1
                if k >= j:
                    self._stale = stale | ((2 << k) - (1 << j))
                return
            # M[i] now beats the top, and so every lower entry from j up
            if i == j:
                l[i] = i
            else:
                l[j : i + 1] = [i] * (i + 1 - j)
            stale = self._stale
            if stale:
                self._stale = stale & -(2 << i)
            self._j = i + 1
            if not j:
                return
            k = j - 1
        else:
            # M[i] already holds the new entry, so only a witness w != i is
            # read from M; when w == i, S[i] was the old M[i], which the new
            # entry does not exceed, and the comparison's outcome is known
            w = l[i]
            if w != i:
                h, t = m[w]
                c = compare(x, h)
                if c > 0 or (c == 0 and tie > t):
                    return  # a later entry is still smaller; L untouched
            k = i
            while k >= 0 and l[k] == w:
                l[k] = i
                k -= 1
        # k ends the run left of the stretch that now points at i; its
        # witness is k itself, below i, so an old entry
        while k >= 0:
            w = l[k]
            h, t = m[w]
            c = compare(h, x)
            if c < 0 or (c == 0 and t <= tie):
                return
            while k >= 0 and l[k] == w:
                l[k] = i
                k -= 1

    def find_min(self) -> int:
        """Index of the minimum entry (leftmost on full ties)."""
        if self._j:
            return self._l[0]
        if not self._m:
            raise ContractViolation("find_min on empty MinKeeper")
        return len(self._l)

    def order(self, i: int) -> int | None:
        """What S says of M[i] against M[i+1], at no cost.

        -1 when M[i] comes first, 1 when M[i+1] does, None when S leaves it
        open.  S[i] decides: i means M[i] <= M[i+1], strictly when their
        tiebreaks differ; i + 1 means M[i+1] < M[i].
        """
        m = self._m
        l = self._l
        w = l[i] if i < self._j else len(l)
        if w == i:
            return -1 if m[i][1] != m[i + 1][1] else None
        return 1 if w == i + 1 else None

    def shift(self, r: int, entry: tuple, top: tuple) -> None:
        """M[0 : r+1] := [entry, *M[0 : r-1], top] for r >= 1; one comparison.

        This is a carry landing at rank r: each old M[i] for i < r - 1 moves
        up one slot, and ``top`` must be the lesser of the old M[r-1] and
        M[r] (just the old M[r-1] when M[r] is absent, which extends M).
        Below the top, L[1 : r+1] is then the old L[0 : r] with its indices
        remapped (old r - 1 and r now share slot r).  A carry into the top
        is a fuse of M[T-1] into the top (``collapse``) followed by a
        one-slot grow.  Only position 0, the entry against S[1], costs a
        comparison, free when either side is +inf.
        """
        m = self._m
        l = self._l
        T = len(l)
        if r == T:
            # pops M's and L's last slots in place; r is then a grow
            self.collapse(T - 1, top)
            T -= 1
        j = self._j
        m[: r + 1] = [entry, *m[: r - 1], top]
        if r < T:
            if r == 1:
                l[1] = l[0] or 1
            else:
                l[1 : r + 1] = [w + 1 if w < r - 1 else max(w, r)
                                for w in l[:r]]
            if j <= r:
                # with the positions below r, the top region moves up one
                j += 1
                stale = self._stale
                if stale:
                    # bits below r move up one and bit r takes r - 1's; a
                    # stale L[T-2] lands on L[T-1], which is T-1 anyway
                    stale = (stale & ((1 << r) - 1)) << 1 | stale >> (r + 1) << (r + 1)
                    self._stale = stale & ((1 << (T - 1)) - 1)
                    l[T - 1] = T - 1
        else:
            # M grows by one slot and the top keeps its entry
            self._l = l = [0, *[w + 1 for w in l]]
            self._stale <<= 1
            j += 1
            T = r
        # position 0: the new entry against S[1], the top when j is 1
        h, t = entry
        w = T if j == 1 else l[1]
        bh, bt = m[w]
        c = self._arena.compare(h, bh)
        if c < 0 or (c == 0 and t <= bt):
            l[0] = 0
        elif j == 1:
            l[0] = 0
            j = 0
            if T > 1:
                self._stale |= 1
        else:
            l[0] = w
        self._j = j

    def clear_first(self) -> None:
        """M[0] := EMPTY.  Free: S[0] becomes a copy of S[1].

        EMPTY loses every tie, so min(M[0:]) is M[S[1]] unless that is
        EMPTY too, and then the leftmost EMPTY is M[0] itself.  The
        working-set heap fills the slot again through ``decrease`` (EMPTY
        is above every entry), which then costs at most the one comparison
        against M[S[0]] = M[S[1]].  When S[1] is the top, L[0] copies L[1]
        if that is fresh and goes stale with it otherwise.
        """
        m = self._m
        m[0] = EMPTY
        l = self._l
        T = len(l)
        if T > 1:
            if self._j <= 1:
                # the top beat L[1], so it beats M[0:] now
                self._j = 0
                stale = self._stale
                if stale:
                    if stale & 2:
                        self._stale = stale | 1
                        return
                    self._stale = stale & ~1
            w = l[1]
            l[0] = w if m[w][1] != math.inf else 0
        elif T == 1:
            # L[0] = 0; the top beats EMPTY unless it is EMPTY too
            self._j = 0 if m[1][1] != math.inf else 1

    def collapse(self, i: int, top: tuple) -> None:
        """Fold M[i+1] into M[i]: M[i] := top, M[i+1] := EMPTY.  Free.

        ``top`` must be the lesser of the old M[i] and M[i+1], and every
        entry above i + 1 must be EMPTY.  A last M[i+1] is dropped instead,
        and M[i] becomes the top.  S keeps its values; its witnesses i and
        i + 1 become i.
        """
        m = self._m
        l = self._l
        m[i] = top
        T = len(m) - 1
        if i + 1 < T:
            # the top is EMPTY and beats nothing, so L is S below T
            m[i + 1] = EMPTY
            k = i
            # witnesses never decrease along L, so those >= i end L[0 : i+1]
            while k >= 0 and l[k] >= i:
                l[k] = i
                k -= 1
            l[i + 1] = i + 1
            return
        # the top pair: S's witnesses i and T become the new top i, and L
        # positions pointing at i go stale
        m.pop()
        l.pop()
        b = min(self._j, i)
        while b and l[b - 1] == i:
            b -= 1
        self._j = b
        if i:
            stale = self._stale
            for k in range(b, i - 1):
                if l[k] == i:
                    stale |= 1 << k
            self._stale = stale & ((1 << (i - 1)) - 1)
            l[i - 1] = i - 1
        else:
            self._stale = 0
