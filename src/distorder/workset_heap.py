"""Priority queue with the working-set property.

A rank-indexed collection of Fibonacci heaps with doubly exponential size
caps.  Rank r holds at most 2**(2**r) elements, older elements live in higher
ranks, and inserts cascade carry heaps upward until they fit.  Three
structural invariants are maintained after every public operation:

1. |H_r| <= 2**(2**r) for every rank r.
2. If the maximum nonempty rank R is >= 2, |H_R| + |H_{R-1}| >= 2**(2**(R-1)).
3. Every element of a higher rank is older than every element of a lower one.

Each inner heap caches the span [iv_start, iv_end) of insertion times it
covers.  By invariant 3 the spans of the nonempty heaps are disjoint and
ordered oldest-first by rank, so decrease-key finds an element's heap from
its timestamp alone: the lowest nonempty rank whose span starts at or before
it, found by scanning the at most 8 rank slots.  A minimum keeper M holds
each rank's current minimum (so find-min and the extraction rank are a
single O(1) read).

Amortized comparison costs: insert and decrease-key O(1); extract-min
O(1 + log |W_x|), where W_x is the working set of the extracted element
(elements inserted after x and still present, maximized over x's lifetime).

Ties between equal keys are broken by vertex id everywhere, making runs
deterministic; the +infinity sentinel never costs a comparison.
"""

from __future__ import annotations

from .aux_structures import MinKeeper
from .base_heap import FibonacciHeap, HeapNodePool, _NIL
from .errors import ContractViolation, EmptyHeapError
from .weights import INFINITY

#: Rank size caps 2**(2**r).  Rank 7 caps at 2**128; unreachable in practice.
CAPS = [2 ** (2 ** r) for r in range(8)]

_INF_ENTRY = (INFINITY, 0)


class WorkSetHeap:
    """Fibonacci-like priority queue with the working-set property."""

    __slots__ = ("arena", "_pool", "_heaps", "_M", "_next_time", "size",
                 "_spares", "last_extract_rank", "extract_comparisons")

    def __init__(self, arena):
        self.arena = arena
        self._pool = HeapNodePool()
        self._heaps: list[FibonacciHeap | None] = []
        self._M = MinKeeper(arena)
        self._next_time = 0
        self.size = 0
        self._spares: list[FibonacciHeap] = []  # emptied heap shells, reused as carries
        self.last_extract_rank = -1
        self.extract_comparisons = 0  # total comparisons spent inside extract_min

    def __len__(self):
        return self.size

    # -- operations --------------------------------------------------------

    def insert(self, key: int, vertex: int) -> tuple[int, int]:
        """Insert (key, vertex); returns an element handle.  Amortized O(1)."""
        t = self._next_time
        self._next_time = t + 1
        pool = self._pool
        heaps = self._heaps
        H0 = heaps[0] if heaps else None
        if H0 is not None and H0.size < CAPS[0]:
            # fast path: room at rank 0, extend its interval in place
            nid = H0.insert(key, t, vertex)
            H0.iv_end = t + 1
            if H0.min == nid:
                self._M.set_entry(0, key, vertex)
            self.size += 1
            return (nid, t)

        spares = self._spares
        carry = spares.pop() if spares else FibonacciHeap(pool, self.arena)
        carry.rank = None
        nid = carry.insert(key, t, vertex)
        carry.iv_start = t
        carry.iv_end = t + 1
        prefix = []
        r = 0
        while True:
            H = heaps[r] if r < len(heaps) else None
            if H is None or H.size == 0:
                carry.rank = r
                if r < len(heaps):
                    heaps[r] = carry
                else:
                    heaps.append(carry)
                m = carry.min
                prefix.append((pool.key[m], pool.vertex[m]))
                break
            if H.size + carry.size <= CAPS[r]:
                # meld the carry into H_r and fuse their time intervals
                H.meld(carry)
                spares.append(carry)
                H.iv_end = carry.iv_end
                m = H.min
                prefix.append((pool.key[m], pool.vertex[m]))
                break
            # carry takes the slot; the old H_r cascades upward
            carry.rank = r
            heaps[r] = carry
            m = carry.min
            prefix.append((pool.key[m], pool.vertex[m]))
            H.rank = None
            carry = H
            r += 1
        # ranks whose minimum entry is unchanged need no S recomputation,
        # provided everything above them in the prefix is unchanged too
        M = self._M
        entries = M.entries()
        top = len(prefix) - 1
        while top >= 0 and top < len(entries) and entries[top] == prefix[top]:
            top -= 1
        if top >= 0:
            del prefix[top + 1 :]
            M.change_prefix(prefix)
        self.size += 1
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
            M.set_entry(r_star, INFINITY, 0)
        else:
            m = H.min
            M.set_entry(r_star, pool.key[m], pool.vertex[m])

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
                        hi.rank = pre_R - 1
                        heaps[pre_R - 1] = hi
                        heaps[pre_R] = None
                        merged = hi
                    else:
                        lo.meld(hi)
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
                    e = _INF_ENTRY
                if len(M) == pre_R + 1:
                    M.change_prefix(M.entries()[: pre_R - 1] + [e, e])
                    M.pop()
                else:
                    # an older, longer M tail of +inf entries stays in place
                    M.change_prefix(M.entries()[: pre_R - 1] + [e, _INF_ENTRY])
        self.extract_comparisons += self.arena.cmp_count - cmp_at_entry
        return key, vertex

    def decrease_key(self, handle: tuple[int, int], new_key: int) -> None:
        """Lower an element's key.  Amortized O(1) comparisons."""
        nid, t = handle
        pool = self._pool
        if pool.time[nid] != t:
            raise ContractViolation("stale handle: element already extracted")
        heap = self._heap_at(t)
        heap.decrease_key(nid, new_key)
        # M[rank] can only change if nid became the heap's minimum, and then
        # the new entry is already known not to exceed the old M[rank]
        if heap.min == nid:
            self._M._decrease_known_lower(heap.rank, new_key, pool.vertex[nid])

    def _heap_at(self, t: int) -> FibonacciHeap:
        """The heap whose span holds insertion time t of a live element."""
        for heap in self._heaps:
            if heap is not None and heap.iv_start <= t:
                return heap
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
        arena must be in audit mode.  Raises AssertionError on any violation.
        Never spends arena comparisons.
        """
        import math

        if value_of is None:
            value_of = self.arena.audit_value
        pool = self._pool
        heaps = self._heaps
        spans = {}
        total = 0
        for r, H in enumerate(heaps):
            if H is None:
                continue
            assert H.size > 0, f"rank {r}: empty heap object kept in slot"
            assert H.rank == r, f"rank {r}: heap carries wrong rank tag"
            nodes = list(H.iter_nodes())
            assert len(nodes) == H.size, f"rank {r}: size field drifted"
            assert H.size <= CAPS[r], f"rank {r}: invariant 1 violated"
            times = [pool.time[n] for n in nodes]
            spans[r] = (min(times), max(times))
            assert H.iv_start <= spans[r][0] and spans[r][1] < H.iv_end, (
                f"rank {r}: live times escape the heap's interval"
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

        # the heaps' cached spans are disjoint and ordered oldest-first by
        # rank, which is what decrease_key's rank-slot lookup relies on
        for a, b in zip(occupied, occupied[1:]):
            assert heaps[b].iv_end <= heaps[a].iv_start, (
                f"ranks {a} and {b}: cached spans overlap or are out of order"
            )

        M = self._M
        assert len(M) >= (occupied[-1] + 1 if occupied else 0)
        for r in range(len(M)):
            h, tie = M.entries()[r]
            H = heaps[r] if r < len(heaps) else None
            if H is None:
                assert h == INFINITY, f"M[{r}] should be the +inf token"
            else:
                m = H.min
                assert h == pool.key[m] and tie == pool.vertex[m], (
                    f"M[{r}] is not the minimum of H_{r}"
                )
        # S really holds suffix minima of M (by value, tie by vertex)
        entries = [
            (math.inf, 0) if h == INFINITY else (value_of(h), tie)
            for h, tie in M.entries()
        ]
        suffix = None
        for i in range(len(entries) - 1, -1, -1):
            cand = (entries[i], i)
            if suffix is None or cand[0] < suffix[0]:
                suffix = cand
            got = M._s[i]
            got_val = (math.inf, 0) if got[0] == INFINITY else (value_of(got[0]), got[1])
            assert got_val == suffix[0], f"S[{i}] is not min(M[{i}:])"
