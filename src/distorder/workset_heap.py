"""Priority queue with the working-set property.

A rank-indexed collection of Fibonacci heaps with doubly exponential size
caps.  Rank r holds at most 2**(2**r) elements, older elements live in higher
ranks, and inserts cascade carry heaps upward until they fit.  Three
structural invariants are maintained after every public operation:

1. |H_r| <= 2**(2**r) for every rank r.
2. If the maximum nonempty rank R is >= 2, |H_R| + |H_{R-1}| >= 2**(2**(R-1)).
3. Every element of a higher rank is older than every element of a lower one.

Every rank slot holds an inner heap, an empty one while the rank is empty.
Each caches only the start ``iv_start`` of the span of insertion times it
covers; the span runs up to the start of the next lower nonempty rank's.  By
invariant 3 the spans of the nonempty heaps are disjoint and ordered
oldest-first by rank, and an empty heap's span start is newer than every
element above it, so decrease-key finds an element's heap from its
timestamp alone: the lowest rank whose span starts at or before it, found by
scanning the at most 8 rank slots.  A minimum keeper M holds
each rank's current minimum, the suffix minima L of the ranks below the
top, and the first position j whose L the top rank's minimum beats.  The
suffix minima S of all of M are not stored but derived from L and j: S[i]
is L[i] below j and the top rank from j on (see :mod:`.aux_structures`), so
find-min and the extraction rank are a single O(1) read.

Comparison costs: an insert spends at most two, one in an inner heap (rank
0's insert, or the carry's meld) and one for S[0].  A carry that lands at
rank r moves the minima of ranks 0..r-1 up one rank, so S shifts with them
instead of being recomputed, and S's witnesses often settle the meld too.
An insert into an empty rank 0 fills the empty heap kept there and spends
only the S[0] comparison, since S[0] is then a copy of S[1]; an extract that
empties rank 0 copies S[1] back into S[0] for free.
Invariant 2's fuse is free: S says which of the top two minima wins.
Decrease-key is amortized O(1); extract-min amortized O(1 + log |W_x|),
where W_x is the working set of the extracted element (elements inserted
after x and still present, maximized over x's lifetime).  An extract from
rank r < R - 1, R the top rank, rebuilds S[0..r] at r + 1 comparisons.  One
from the top rank changes only M[R], and the ranks below keep their own
suffix minima: M refreshes those that went stale since (an update below
that M[R] still beat marks them instead of paying), then compares the new
M[R] with them from rank 0 until it beats one, usually once, where
rebuilding S[0..R] paid R.  One from rank R - 1 rebuilds the lower suffix
minima at R - 1 and then places M[R] the same way.  On random graphs most
extracts come from the top rank; ``rank_extracts`` counts them per rank.

The stale residue.  An extract from rank 0 can leave one older element, the
residue, alone there.  Each later insert then takes the fast path beside it
and each extract rebuilds S[0] from it: on a broom one leaf sits beside the
whole path and triples its cost (3 comparisons per path vertex instead of
1, depending only on where the t leaves happen to leave rank 0).  So once
RESIDUE_STREAK rank-0 extracts in a row have left the same lone element
behind, the next insert carries H0 upward, exactly as it carries a full H0,
and the new element alone takes slot 0; the carry never melds back into
rank 0.  An early carry keeps every guarantee:

* It is an ordinary carry whose first heap holds one element, not two.
  Invariant 1: the carry melds only where it fits.  Invariant 2: a new top
  rank R receives the old H_{R-1} only when |H_{R-1}| + |carry| exceeds
  CAPS[R-1], and the carry stays at R-1, whatever the carry's size.
  Invariant 3: the residue is newer than every element above rank 0 and
  older than the new element.
* An insert still spends at most two comparisons: the new element enters
  an empty heap (free), the meld costs at most one and S[0] one.
* The extract bound rests on a floor: an element x extracted from rank
  r >= 2 has |W_x| >= CAPS[r-2], so the O(2**r) cost of extracting from a
  heap of at most CAPS[r] elements is O(log |W_x|).  x entered rank r in
  H_{r-1}, which moves up only when a carry C of newer elements arrives
  with |H_{r-1}| + |C| > CAPS[r-1].  For r >= 3, C (the old H_{r-2}) and
  the carry that displaced it, now in rank r-2, together hold more than
  CAPS[r-2] newer elements, since H_{r-2} moved up only because they did
  not fit in it; that holds whatever the size of the carry out of rank 0.
  For r = 2, C is the old H_0 and the new element is newer too, so
  |W_x| >= 2 = CAPS[0] with a carry of one element as of two.
  Ranks 0 and 1 hold at most 4 elements, so their extracts cost O(1).

Why RESIDUE_STREAK = 8.  Keeping a residue costs about two comparisons a
round, one carry costs at most two at once plus an extract later from rank
1 (at most 4 elements) instead of rank 0, so any constant streak keeps the
rule within a constant factor of the better choice in hindsight, as in ski
rental.  Eight is the smallest power of two at which random inputs never
trigger it on the benchmark's random-sparse and heap-churn inputs (seeds
0-9 and 424242) or on ``random_digraph``/``random_dag`` at n = 2e4, so
their counts are exactly those of the heap without the rule (over those
seeds heap-churn fires 76 carries at a streak of 4 and 2,070 at 2), while a
broom's path, hundreds of rounds long, pays for its residue only 8 times.

Ties between equal keys are broken by vertex id everywhere, making runs
deterministic; the +infinity sentinel never costs a comparison.
"""

from __future__ import annotations

from .aux_structures import EMPTY, MinKeeper
from .base_heap import FibonacciHeap, HeapNodePool
from .errors import ContractViolation, EmptyHeapError

#: Rank size caps 2**(2**r).  Rank 7 caps at 2**128; unreachable in practice.
CAPS = [2 ** (2 ** r) for r in range(8)]

#: Rank-0 extracts in a row that leave one same element behind before the
#: next insert carries it upward (see the module docstring).
RESIDUE_STREAK = 8


class WorkSetHeap:
    """Fibonacci-like priority queue with the working-set property."""

    __slots__ = ("arena", "_pool", "_heaps", "_M", "_next_time", "size",
                 "_residue", "_streak", "extract_comparisons", "rank_extracts")

    def __init__(self, arena):
        self.arena = arena
        self._pool = HeapNodePool()
        # rank r's inner heap, kept in its slot while the rank is empty
        self._heaps = [FibonacciHeap(self._pool, arena)]
        self._M = MinKeeper(arena)
        self._M.change_prefix([EMPTY])
        self._next_time = 0
        self.size = 0
        self._residue = -1  # insertion time of the last lone rank-0 element
        self._streak = 0  # rank-0 extracts in a row that left _residue alone
        self.extract_comparisons = 0  # total comparisons spent inside extract_min
        self.rank_extracts = [0] * len(CAPS)  # extracts taken from each rank

    def __len__(self):
        return self.size

    # -- operations --------------------------------------------------------

    def insert(self, key: int, vertex: int) -> tuple[int, int]:
        """Insert (key, vertex); returns an element handle.

        At most two comparisons: one in an inner heap, one for S[0].
        """
        self.arena.check_handle(key)
        t = self._next_time
        self._next_time = t + 1
        heaps = self._heaps
        H0 = heaps[0]
        M = self._M
        if H0.size < CAPS[0] and self._streak < RESIDUE_STREAK:
            # fast path: room at rank 0, whose span already reaches t.  Into
            # an empty rank 0 the inner insert is free; M[0] was EMPTY, so
            # S[0] is S[1] and one comparison settles it
            nid = H0.insert(key, t, vertex)
            if H0.min == nid:
                # M[0] only drops: free when S[0] already points at rank 0
                M.decrease(0, key, vertex)
            self.size += 1
            return (nid, t)

        # H0 is full or a stale residue: carry it upward, never back into
        # rank 0; the heap the carry leaves empty becomes the new rank 0
        self._streak = 0
        pool = self._pool
        carry = H0
        r = 1
        while True:
            if r == len(heaps):
                heaps.append(FibonacciHeap(pool, self.arena))
            H = heaps[r]
            if not H.size:
                heaps[r] = carry
                new = H
                top = carry
                break
            if H.size + carry.size <= CAPS[r]:
                # meld the carry (the old H_{r-1}) into H_r, whose older span
                # start stays; S often knows which of M[r-1] and M[r] wins
                o = M.order(r - 1)
                H.meld(carry, None if o is None else o < 0)
                new = carry
                top = H
                break
            # carry takes the slot; the old H_r cascades upward
            heaps[r] = carry
            carry = H
            r += 1
        new.iv_start = t
        nid = new.insert(key, t, vertex)
        heaps[0] = new
        self.size += 1
        m = top.min
        M.shift(r, (key, vertex), (pool.key[m], pool.vertex[m]))
        return (nid, t)

    def find_min(self) -> tuple[int, int]:
        """(key, vertex) of the minimum.  O(1), no comparisons."""
        if self.size == 0:
            raise EmptyHeapError("find_min on empty heap")
        r = self._M.find_min()
        pool = self._pool
        nid = self._heaps[r].min
        return pool.key[nid], pool.vertex[nid]

    def extract_min(self) -> tuple[int, int]:
        """Remove and return the minimum (key, vertex).

        Amortized O(1 + log |W_x|) comparisons for the extracted element x.
        """
        if self.size == 0:
            raise EmptyHeapError("extract_min on empty heap")
        cmp_at_entry = self.arena.cmp_count
        heaps = self._heaps
        M = self._M
        pool = self._pool
        pre_R = len(heaps) - 1
        while pre_R >= 0 and not heaps[pre_R].size:
            pre_R -= 1
        r_star = M.find_min()
        H = heaps[r_star]
        key, _, vertex = H.extract_min()
        self.size -= 1
        self.rank_extracts[r_star] += 1
        if not H.size:
            if r_star:
                M.set_entry(r_star, *EMPTY)
            else:
                M.clear_first()
                self._streak = 0
        else:
            m = H.min
            M.set_entry(r_star, pool.key[m], pool.vertex[m])
            if not r_star:
                # rank 0 is down to one element; count how often in a row
                # it is the same one
                rt = pool.time[m]
                if rt == self._residue:
                    self._streak += 1
                else:
                    self._residue = rt
                    self._streak = 1

        # Restore invariant 2: if the top pair shrank too much, fuse it.
        # Extractions from rank R-1 can deplete the pair just like rank-R
        # ones, so both top ranks trigger the check.
        if r_star >= pre_R - 1 and pre_R >= 1:
            hi = heaps[pre_R]
            lo = heaps[pre_R - 1]
            if hi.size + lo.size < CAPS[pre_R - 1]:
                if hi.size:
                    # S[pre_R-1]'s witness decides: H_R's minimum comes
                    # first exactly when the witness is pre_R.  Into an
                    # empty lo the meld is free and keeps hi's ring
                    lo.meld(hi, M.order(pre_R - 1) == 1)
                    lo.iv_start = hi.iv_start  # hi is older
                if lo.size:
                    m = lo.min
                    M.collapse(pre_R - 1, (pool.key[m], pool.vertex[m]))
                else:
                    M.collapse(pre_R - 1, EMPTY)
        self.extract_comparisons += self.arena.cmp_count - cmp_at_entry
        return key, vertex

    def decrease_key(self, handle: tuple[int, int], new_key: int) -> None:
        """Lower an element's key.  Amortized O(1) comparisons.

        The inner heap's move comparison settles the increase guard (see
        :meth:`FibonacciHeap.decrease_key`), and raising a key is refused
        before anything is written.
        """
        self.arena.check_handle(new_key)
        nid, t = handle
        pool = self._pool
        time = pool.time
        # a live node's time is at least 0; an extracted one's is -1
        if not 0 <= nid < len(time) or t < 0 or time[nid] != t:
            raise ContractViolation("stale handle: element already extracted")
        r = self._rank_at(t)
        heap = self._heaps[r]
        heap.decrease_key(nid, new_key)
        # M[r] can only change if nid became the heap's minimum, and then
        # the new entry is already known not to exceed the old M[r]
        if heap.min == nid:
            self._M.decrease(r, new_key, pool.vertex[nid])

    def _rank_at(self, t: int) -> int:
        """The rank whose heap's span holds insertion time t of a live element."""
        for r, heap in enumerate(self._heaps):
            if heap.iv_start <= t:
                return r
        raise ContractViolation("stale handle: element already extracted")

    # -- introspection -------------------------------------------------------

    def max_rank(self) -> int:
        """The highest nonempty rank, -1 when empty; the benchmark reads it."""
        for r in range(len(self._heaps) - 1, -1, -1):
            if self._heaps[r].size:
                return r
        return -1
