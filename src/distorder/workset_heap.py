"""Priority queue with the working-set property.

A rank-indexed collection of Fibonacci heaps with doubly exponential size
caps.  Rank r holds at most 2**(2**r) elements, older elements live in higher
ranks, and inserts cascade carry heaps upward until they fit.  Three
structural invariants are maintained after every public operation:

1. |H_r| <= 2**(2**r) for every rank r.
2. If the maximum nonempty rank R is >= 2, |H_R| + |H_{R-1}| >= 2**(2**(R-1)).
3. Every element of a higher rank is older than every element of a lower one.

Each inner heap caches only the start ``iv_start`` of the span of insertion
times it covers; the span runs up to the start of the next lower nonempty
rank's.  By invariant 3 the spans of the nonempty heaps are disjoint and
ordered oldest-first by rank, so decrease-key finds an element's heap from
its timestamp alone: the lowest nonempty rank whose span starts at or before
it, found by scanning the at most 8 rank slots.  A minimum keeper M holds
each rank's current minimum and the suffix minima S of M (so find-min and
the extraction rank are a single O(1) read).

Comparison costs: an insert spends at most two, one in an inner heap (rank
0's insert, or the carry's meld) and one for S[0].  A carry that lands at
rank r moves the minima of ranks 0..r-1 up one rank, so S shifts with them
instead of being recomputed, and S's witnesses often settle the meld too.
An insert into an empty rank 0 puts a one-node heap there and spends only
the S[0] comparison, since S[0] is then a copy of S[1]; an extract that
empties rank 0 copies S[1] back into S[0] for free.
Invariant 2's fuse is free: S says which of the top two minima wins.
Decrease-key is amortized O(1); extract-min amortized O(1 + log |W_x|),
where W_x is the working set of the extracted element (elements inserted
after x and still present, maximized over x's lifetime).

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

import math

from .aux_structures import EMPTY, MinKeeper
from .base_heap import FibonacciHeap, HeapNodePool, _NIL
from .errors import ContractViolation, EmptyHeapError
from .weights import INFINITY

#: Rank size caps 2**(2**r).  Rank 7 caps at 2**128; unreachable in practice.
CAPS = [2 ** (2 ** r) for r in range(8)]

#: Rank-0 extracts in a row that leave one same element behind before the
#: next insert carries it upward (see the module docstring).
RESIDUE_STREAK = 8


class WorkSetHeap:
    """Fibonacci-like priority queue with the working-set property."""

    __slots__ = ("arena", "_pool", "_heaps", "_M", "_next_time", "size",
                 "_spares", "_residue", "_streak", "last_extract_rank",
                 "extract_comparisons")

    def __init__(self, arena):
        self.arena = arena
        self._pool = HeapNodePool()
        self._heaps: list[FibonacciHeap | None] = [None]
        self._M = MinKeeper(arena)
        self._M.change_prefix([EMPTY])
        self._next_time = 0
        self.size = 0
        self._spares: list[FibonacciHeap] = []  # emptied heap shells, reused as carries
        self._residue = -1  # insertion time of the last lone rank-0 element
        self._streak = 0  # rank-0 extracts in a row that left _residue alone
        self.last_extract_rank = -1
        self.extract_comparisons = 0  # total comparisons spent inside extract_min

    def __len__(self):
        return self.size

    # -- operations --------------------------------------------------------

    def insert(self, key: int, vertex: int) -> tuple[int, int]:
        """Insert (key, vertex); returns an element handle.

        At most two comparisons: one in an inner heap, one for S[0].
        """
        t = self._next_time
        self._next_time = t + 1
        heaps = self._heaps
        H0 = heaps[0]
        M = self._M
        if H0 is not None and H0.size < CAPS[0] and self._streak < RESIDUE_STREAK:
            # fast path: room at rank 0, whose span already reaches t
            nid = H0.insert(key, t, vertex)
            if H0.min == nid:
                # M[0] only drops: free when S[0] is the old M[0]
                M._decrease_known_lower(0, key, vertex)
            self.size += 1
            return (nid, t)

        # both paths below fill slot 0 before any comparison meets the new
        # key, and an empty heap compares it with nothing
        self.arena.check_handle(key)
        pool = self._pool
        spares = self._spares
        new = spares.pop() if spares else FibonacciHeap(pool, self.arena)
        nid = new.insert(key, t, vertex)
        new.iv_start = t
        heaps[0] = new
        self.size += 1
        if H0 is None:
            # M[0] was EMPTY, so S[0] is S[1]: one comparison settles it
            M._decrease_known_lower(0, key, vertex)
            return (nid, t)

        # H0 is full or a stale residue: carry it upward, never back into
        # rank 0, whose slot the new element now holds
        self._streak = 0
        carry = H0
        r = 1
        while True:
            H = heaps[r] if r < len(heaps) else None
            if H is None:
                if r < len(heaps):
                    heaps[r] = carry
                else:
                    heaps.append(carry)
                top = carry
                break
            if H.size + carry.size <= CAPS[r]:
                # meld the carry (the old H_{r-1}) into H_r, whose older span
                # start stays; S often knows which of M[r-1] and M[r] wins
                o = M.order(r - 1)
                H.meld(carry, None if o is None else o < 0)
                spares.append(carry)
                top = H
                break
            # carry takes the slot; the old H_r cascades upward
            heaps[r] = carry
            carry = H
            r += 1
        m = top.min
        M.shift(r, (key, vertex), (pool.key[m], pool.vertex[m]))
        return (nid, t)

    def find_min(self) -> tuple[int, int]:
        """(key, vertex) of the minimum.  O(1), no comparisons."""
        if self.size == 0:
            raise EmptyHeapError("find_min on empty heap")
        r = self._M.min_entry()[2]
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
        while pre_R >= 0 and heaps[pre_R] is None:
            pre_R -= 1
        r_star = M.find_min()
        H = heaps[r_star]
        key, _, vertex = H.extract_min()
        self.size -= 1
        self.last_extract_rank = r_star
        if H.size == 0:
            heaps[r_star] = None
            self._spares.append(H)
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
            hi_size = hi.size if hi is not None else 0
            lo_size = lo.size if lo is not None else 0
            if hi_size + lo_size < CAPS[pre_R - 1]:
                if hi_size:
                    if lo is None:
                        heaps[pre_R - 1] = hi
                        heaps[pre_R] = None
                        merged = hi
                    else:
                        # S[pre_R-1]'s witness decides: H_R's minimum comes
                        # first exactly when the witness is pre_R
                        lo.meld(hi, M.order(pre_R - 1) == 1)
                        self._spares.append(hi)
                        lo.iv_start = hi.iv_start  # hi is older
                        heaps[pre_R] = None
                        merged = lo
                else:
                    merged = lo if lo_size else None
                if merged is not None:
                    m = merged.min
                    e = (pool.key[m], pool.vertex[m])
                else:
                    e = EMPTY
                M.collapse(pre_R - 1, e)
        self.extract_comparisons += self.arena.cmp_count - cmp_at_entry
        return key, vertex

    def decrease_key(self, handle: tuple[int, int], new_key: int) -> None:
        """Lower an element's key.  Amortized O(1) comparisons."""
        nid, t = handle
        pool = self._pool
        if pool.time[nid] != t:
            raise ContractViolation("stale handle: element already extracted")
        r = self._rank_at(t)
        heap = self._heaps[r]
        heap.decrease_key(nid, new_key)
        # M[r] can only change if nid became the heap's minimum, and then
        # the new entry is already known not to exceed the old M[r]
        if heap.min == nid:
            self._M._decrease_known_lower(r, new_key, pool.vertex[nid])

    def _rank_at(self, t: int) -> int:
        """The rank whose heap's span holds insertion time t of a live element."""
        for r, heap in enumerate(self._heaps):
            if heap is not None and heap.iv_start <= t:
                return r
        raise ContractViolation("stale handle: element already extracted")

    # -- introspection -------------------------------------------------------

    def rank_sizes(self) -> list[int]:
        return [h.size if h is not None else 0 for h in self._heaps]

    def max_rank(self) -> int:
        for r in range(len(self._heaps) - 1, -1, -1):
            if self._heaps[r] is not None:
                return r
        return -1

    def check_invariants(self, value_of=None) -> None:
        """Full-scan debug check of invariants 1-3, the spans and M validity.

        ``value_of`` maps a weight handle to its exact value; if omitted the
        arena must be in audit mode.  INFINITY reads as ``math.inf``.  Raises
        AssertionError on any violation.  Never spends arena comparisons.
        """
        cell_value = value_of or self.arena.audit_value

        def value_of(h):
            return math.inf if h == INFINITY else cell_value(h)

        pool = self._pool
        heaps = self._heaps
        spans = {}
        total = 0
        for r, H in enumerate(heaps):
            if H is None:
                continue
            assert H.size > 0, f"rank {r}: empty heap object kept in slot"
            nodes = list(H.iter_nodes())
            assert len(nodes) == H.size, f"rank {r}: size field drifted"
            assert H.size <= CAPS[r], f"rank {r}: invariant 1 violated"
            times = [pool.time[n] for n in nodes]
            spans[r] = (min(times), max(times))
            assert H.iv_start <= spans[r][0], (
                f"rank {r}: live times precede the heap's span start"
            )
            total += H.size
            # heap order within the inner heap
            for n in nodes:
                p = pool.parent[n]
                if p != _NIL:
                    kp, kn = value_of(pool.key[p]), value_of(pool.key[n])
                    assert kp < kn or (
                        kp == kn and pool.vertex[p] < pool.vertex[n]
                    ), f"rank {r}: inner heap order violated"
        assert total == self.size, "total size drifted"

        occupied = sorted(spans)
        if occupied:
            R = occupied[-1]
            if R >= 2:
                lo = heaps[R - 1].size if heaps[R - 1] is not None else 0
                assert heaps[R].size + lo >= CAPS[R - 1], "invariant 2 violated"
            for a, b in zip(occupied, occupied[1:]):
                # higher rank b holds strictly older elements than rank a
                assert spans[b][1] < spans[a][0], "invariant 3 violated"
            if self.size >= 4:
                bound = math.ceil(math.log2(math.log2(self.size))) + 2
                assert R <= bound, f"max rank {R} exceeds loglog bound {bound}"

        # every live time of a rank precedes the cached span start of the
        # next lower occupied rank, which is what decrease_key's rank-slot
        # lookup relies on
        for a, b in zip(occupied, occupied[1:]):
            assert spans[b][1] < heaps[a].iv_start, (
                f"ranks {a} and {b}: cached span starts out of order"
            )

        # a streak counts extracts that left the residue in rank 0, where it
        # still is: a fuse must not hand the count to another element
        if self._streak:
            H0 = heaps[0]
            assert H0 is not None and self._residue in [
                pool.time[n] for n in H0.iter_nodes()], "stale residue streak"

        M = self._M
        assert len(M) >= (occupied[-1] + 1 if occupied else 0)
        for r in range(len(M)):
            h, tie = M.entries()[r]
            H = heaps[r] if r < len(heaps) else None
            if H is None:
                assert (h, tie) == EMPTY, f"M[{r}] should be the +inf token"
            else:
                m = H.min
                assert h == pool.key[m] and tie == pool.vertex[m], (
                    f"M[{r}] is not the minimum of H_{r}"
                )
        # S holds the leftmost suffix minima of M (by value, tie by vertex)
        M.check(value_of)
