"""Meldable min-heaps driven entirely by arena comparisons.

:class:`FibonacciHeap` is the inner heap of the working-set construction:
amortized O(1) insert, decrease-key and meld, O(log n) extract-min.  Nodes
live in a shared :class:`HeapNodePool` (parallel arrays indexed by node id),
so melding moves nothing and node ids stay valid until extraction.

:class:`BinaryQueue` and :class:`PairingQueue` are benchmark baselines; they
are not used by the working-set heap.

Heap order is min by ``arena.compare`` with ties broken by vertex id, which
makes every extraction sequence deterministic and lets independent oracles
predict it exactly.  Every queue calls ``arena.compare`` inline, as
``c = compare(a, b)`` then ``c < 0 or (c == 0 and vertex[x] < vertex[y])``,
so a counted comparison costs one Python frame, the arena's, in each of
them.  Every key entering a queue, by insert or decrease-key,
is checked to be a handle of the queue's arena, by a free range test, so no
later comparison can raise on it and no operation needs to undo a half-made
change.  A decrease-key settles its "would increase" guard with the
comparison that moves the element, when it moves.
"""

from __future__ import annotations

from .errors import ContractViolation, EmptyHeapError

_NIL = -1


class HeapNodePool:
    """Parallel-array node storage shared by a family of meldable heaps.

    :meth:`FibonacciHeap.insert` takes a node id from ``free`` or appends
    one, and :meth:`FibonacciHeap.extract_min` marks the extracted node
    stale (time ``_NIL``) and hands its id back to ``free``.
    """

    __slots__ = ("key", "time", "vertex", "parent", "child", "left", "right",
                 "degm", "free")

    def __init__(self):
        self.key: list[int] = []
        self.time: list[int] = []
        self.vertex: list[int] = []
        self.parent: list[int] = []
        self.child: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.degm: list[int] = []  # degree << 1 | mark
        self.free: list[int] = []  # ids of extracted nodes, for reuse


class FibonacciHeap:
    """Classic Fibonacci heap over a shared node pool.

    Melding consumes the argument heap.  Node ids remain stable across melds;
    ownership is tracked externally (the working-set heap finds a node's heap
    from its insertion time and the cached span starts, standalone users keep
    their own bookkeeping).

    Extract-min consolidates in the same pass.  It relinks the surviving
    roots in the order they had in the ring, z's siblings from its right
    and then its children, which is where unlinking each linked root would
    have left them.  Which roots a later extract links, and which of two
    equal-degree roots meets the other first, depends on that order, so
    keeping it keeps every later comparison the same.  That holds while the
    (key, vertex) pairs are distinct, as they are for every caller here;
    among exact (key, vertex) ties the extraction order is not specified.
    """

    __slots__ = ("pool", "arena", "min", "size", "iv_start")

    def __init__(self, pool: HeapNodePool, arena):
        self.pool = pool
        self.arena = arena
        self.min = _NIL
        self.size = 0
        self.iv_start = 0  # start of the insertion-time span this heap covers

    def __len__(self):
        return self.size

    def insert(self, key: int, time: int, vertex: int) -> int:
        """Add an element; returns its node id.  Amortized O(1)."""
        pool = self.pool
        m = self.min
        if m != _NIL:
            # compare first, so a rejected key leaves the heap untouched
            c = self.arena.compare(key, pool.key[m])
        free = pool.free
        if free:
            # an extracted node was a root, so its parent is already _NIL
            nid = free.pop()
            pool.key[nid] = key
            pool.time[nid] = time
            pool.vertex[nid] = vertex
            pool.child[nid] = _NIL
            pool.degm[nid] = 0
        else:
            nid = len(pool.key)
            pool.key.append(key)
            pool.time.append(time)
            pool.vertex.append(vertex)
            pool.parent.append(_NIL)
            pool.child.append(_NIL)
            pool.left.append(nid)
            pool.right.append(nid)
            pool.degm.append(0)
        left, right = pool.left, pool.right
        if m == _NIL:
            left[nid] = right[nid] = nid
            self.min = nid
        else:
            # splice nid into the root ring, left of m
            lm = left[m]
            right[lm] = nid
            left[nid] = lm
            right[nid] = m
            left[m] = nid
            if c < 0 or (c == 0 and vertex < pool.vertex[m]):
                self.min = nid
        self.size += 1
        return nid

    def find_min(self) -> int:
        if self.min == _NIL:
            raise EmptyHeapError("find_min on empty heap")
        return self.min

    def meld(self, other: "FibonacciHeap",
             other_first: bool | None = None) -> "FibonacciHeap":
        """Absorb ``other`` (same pool and arena).  Amortized O(1).

        ``other_first`` says whether other's minimum precedes self's in the
        (key, vertex) order, for a caller that already knows; None compares
        them, at one comparison.
        """
        if other.pool is not self.pool or other.arena is not self.arena:
            raise ContractViolation("meld requires a shared pool and arena")
        om = other.min
        if om == _NIL:
            return self
        m = self.min
        if m == _NIL:
            self.min = om
        else:
            left, right = self.pool.left, self.pool.right
            # concatenate the two root rings
            lm, lo = left[m], left[om]
            right[lm] = om
            left[om] = lm
            right[lo] = m
            left[m] = lo
            if other_first is None:
                key, vertex = self.pool.key, self.pool.vertex
                c = self.arena.compare(key[om], key[m])
                other_first = c < 0 or (c == 0 and vertex[om] < vertex[m])
            if other_first:
                self.min = om
        self.size += other.size
        other.min = _NIL
        other.size = 0
        return self

    def extract_min(self) -> tuple[int, int, int]:
        """Remove and return (key, time, vertex) of the minimum.

        One pass: collect the remaining roots, link them by degree, then
        relink the survivors in their collected order while finding the new
        minimum.
        """
        z = self.min
        if z == _NIL:
            raise EmptyHeapError("extract_min on empty heap")
        pool = self.pool
        left, right, parent, child, degm = (
            pool.left, pool.right, pool.parent, pool.child, pool.degm)
        key, vertex = pool.key, pool.vertex
        # the roots besides z rightwards from z, then z's children, promoted
        roots = []
        x = right[z]
        while x != z:
            roots.append(x)
            x = right[x]
        c = child[z]
        if c != _NIL:
            x = c
            while True:
                roots.append(x)
                parent[x] = _NIL
                x = right[x]
                if x == c:
                    break
        out = (key[z], pool.time[z], vertex[z])
        pool.time[z] = _NIL  # stale-handle marker
        pool.free.append(z)
        self.size -= 1
        if not roots:
            self.min = _NIL
            return out
        compare = self.arena.compare
        # link roots of equal degree; a linked root y stays in the old ring
        # until it joins x's child ring, and only a settled root's degree
        # is written
        buckets: list[int] = [_NIL] * (self.size.bit_length() * 2 + 4)
        for x in roots:
            d = degm[x] >> 1
            y = buckets[d]
            if y != _NIL:
                while True:
                    c = compare(key[y], key[x])
                    if c < 0 or (c == 0 and vertex[y] < vertex[x]):
                        x, y = y, x
                    # link y under x; y's degree is d, its mark cleared
                    cx = child[x]
                    if cx == _NIL:
                        child[x] = y
                        left[y] = right[y] = y
                    else:
                        lc = left[cx]
                        right[lc] = y
                        left[y] = lc
                        right[y] = cx
                        left[cx] = y
                    parent[y] = x
                    degm[y] = d << 1
                    buckets[d] = _NIL
                    d += 1
                    y = buckets[d]
                    if y == _NIL:
                        break
                degm[x] = (d << 1) | (degm[x] & 1)
            buckets[d] = x
        # the survivors form the new root ring in their old order
        mn = prev = _NIL
        for x in roots:
            if parent[x] == _NIL:
                if mn == _NIL:
                    mn = first = x
                else:
                    right[prev] = x
                    left[x] = prev
                    c = compare(key[x], key[mn])
                    if c < 0 or (c == 0 and vertex[x] < vertex[mn]):
                        mn = x
                prev = x
        right[prev] = first
        left[first] = prev
        self.min = mn
        return out

    def decrease_key(self, nid: int, new_key: int) -> None:
        """Lower a node's key.  Raising it is a contract violation.

        The comparison that decides the move settles the increase guard too:
        a child is compared with its parent first, a root that is not the
        minimum with the minimum, and if the new key comes first it is at
        most that key, which is at most the old one.  Only a node that stays
        put, or already is the minimum, pays a comparison against its old
        key.  The guard runs before any write.
        """
        pool = self.pool
        key, vertex = pool.key, pool.vertex
        compare = self.arena.compare
        p = pool.parent[nid]
        if p != _NIL:
            c = compare(new_key, key[p])
            if c < 0 or (c == 0 and vertex[nid] < vertex[p]):
                key[nid] = new_key
                self._cut(nid, p)
                m = self.min
                c = compare(new_key, key[m])
                if c < 0 or (c == 0 and vertex[nid] < vertex[m]):
                    self.min = nid
                return
        elif nid != self.min:
            m = self.min
            c = compare(new_key, key[m])
            if c < 0 or (c == 0 and vertex[nid] < vertex[m]):
                key[nid] = new_key
                self.min = nid
                return
        if compare(new_key, key[nid]) > 0:
            raise ContractViolation("decrease_key would increase the key")
        key[nid] = new_key

    def _cut(self, nid: int, p: int) -> None:
        """Cut nid from p to the roots, then cascade up the marked parents."""
        pool = self.pool
        parent, left, right = pool.parent, pool.left, pool.right
        child, degm = pool.child, pool.degm
        m = self.min
        while True:
            # remove nid from p's child ring
            ln, rn = left[nid], right[nid]
            if rn == nid:
                child[p] = _NIL
            else:
                right[ln] = rn
                left[rn] = ln
                if child[p] == nid:
                    child[p] = rn
            degm[p] -= 2  # degree -= 1
            parent[nid] = _NIL
            degm[nid] &= ~1
            # splice into root ring next to min
            lm = left[m]
            right[lm] = nid
            left[nid] = lm
            right[nid] = m
            left[m] = nid
            nid = p
            p = parent[nid]
            if p == _NIL:
                return
            if not degm[nid] & 1:
                degm[nid] |= 1
                return


class FibonacciQueue:
    """Standalone priority-queue facade over a private pool and FibonacciHeap."""

    def __init__(self, arena):
        self._heap = FibonacciHeap(HeapNodePool(), arena)
        self._time = 0

    def __len__(self):
        return self._heap.size

    def insert(self, key: int, vertex: int) -> tuple[int, int]:
        """Insert (key, vertex); returns a (node id, insertion time) handle."""
        heap = self._heap
        heap.arena.check_handle(key)
        t = self._time + 1
        self._time = t
        return heap.insert(key, t, vertex), t

    def decrease_key(self, handle: tuple[int, int], key: int) -> None:
        heap = self._heap
        heap.arena.check_handle(key)
        nid, t = handle
        time = heap.pool.time
        # a live node's time is positive; _NIL marks an extracted one
        if not 0 <= nid < len(time) or t < 0 or time[nid] != t:
            raise ContractViolation("stale handle: element already extracted")
        heap.decrease_key(nid, key)

    def extract_min(self) -> tuple[int, int]:
        key, _t, vertex = self._heap.extract_min()
        return key, vertex

    def find_min(self) -> tuple[int, int]:
        nid = self._heap.find_min()
        pool = self._heap.pool
        return pool.key[nid], pool.vertex[nid]


class BinaryQueue:
    """Array binary heap with a position map for decrease-key."""

    def __init__(self, arena):
        self._arena = arena
        self._key: list[int] = []
        self._vtx: list[int] = []
        self._pos: list[int] = []
        self._heap: list[int] = []

    def __len__(self):
        return len(self._heap)

    def insert(self, key: int, vertex: int) -> int:
        self._arena.check_handle(key)
        heap = self._heap
        i = len(heap)
        eid = len(self._key)
        self._key.append(key)
        self._vtx.append(vertex)
        self._pos.append(i)
        heap.append(eid)
        self._bubble_up(i, eid)
        return eid

    def decrease_key(self, eid: int, key: int) -> None:
        """Lower an element's key.  Raising it is a contract violation.

        The first bubble-up step settles the guard: a key that comes before
        the parent's is at most the parent's, hence at most the old one.  Only
        the root, or an element that stays put, pays a comparison against its
        old key.  The guard runs before any write.
        """
        arena = self._arena
        arena.check_handle(key)
        pos = self._pos
        if not 0 <= eid < len(pos):
            raise ContractViolation("foreign handle: no such element")
        i = pos[eid]
        if i < 0:
            raise ContractViolation("stale handle: element already extracted")
        keys = self._key
        if i:
            heap, vtx = self._heap, self._vtx
            par = (i - 1) >> 1
            p = heap[par]
            c = arena.compare(key, keys[p])
            if c < 0 or (c == 0 and vtx[eid] < vtx[p]):
                keys[eid] = key
                heap[i] = p
                pos[p] = i
                self._bubble_up(par, eid)
                return
        if arena.compare(key, keys[eid]) > 0:
            raise ContractViolation("decrease_key would increase the key")
        keys[eid] = key

    def find_min(self) -> tuple[int, int]:
        if not self._heap:
            raise EmptyHeapError("find_min on empty heap")
        eid = self._heap[0]
        return self._key[eid], self._vtx[eid]

    def extract_min(self) -> tuple[int, int]:
        heap = self._heap
        if not heap:
            raise EmptyHeapError("extract_min on empty heap")
        top = heap[0]
        self._pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self._pos[last] = 0
            self._sift_down(0)
        return self._key[top], self._vtx[top]

    def _bubble_up(self, i: int, x: int) -> None:
        """Move element x up from the hole at slot i and put it in place."""
        heap, pos, key, vtx = self._heap, self._pos, self._key, self._vtx
        compare = self._arena.compare
        kx, vx = key[x], vtx[x]
        while i > 0:
            par = (i - 1) >> 1
            p = heap[par]
            c = compare(kx, key[p])
            if not (c < 0 or (c == 0 and vx < vtx[p])):
                break
            heap[i] = p
            pos[p] = i
            i = par
        heap[i] = x
        pos[x] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, key, vtx = self._heap, self._pos, self._key, self._vtx
        compare = self._arena.compare
        n = len(heap)
        x = heap[i]
        kx, vx = key[x], vtx[x]
        while True:
            l = 2 * i + 1
            if l >= n:
                break
            # y: the lesser child, at slot l
            y = heap[l]
            r = l + 1
            if r < n:
                z = heap[r]
                c = compare(key[z], key[y])
                if c < 0 or (c == 0 and vtx[z] < vtx[y]):
                    l, y = r, z
            c = compare(key[y], kx)
            if not (c < 0 or (c == 0 and vtx[y] < vx)):
                break
            heap[i] = y
            pos[y] = i
            i = l
        heap[i] = x
        pos[x] = i


class PairingQueue:
    """Two-pass pairing heap baseline.

    A link makes the loser the winner's first child.  ``_prev`` is _NIL
    exactly for the root and for extracted elements, which is what makes a
    stale decrease-key handle detectable.
    """

    def __init__(self, arena):
        self._arena = arena
        self._key: list[int] = []
        self._vtx: list[int] = []
        self._child: list[int] = []
        self._sib: list[int] = []
        self._prev: list[int] = []  # parent or left sibling; _NIL for root
        self._root = _NIL
        self._size = 0

    def __len__(self):
        return self._size

    def insert(self, key: int, vertex: int) -> int:
        self._arena.check_handle(key)
        root = self._root
        keys, vtx, child, sib, prev = (
            self._key, self._vtx, self._child, self._sib, self._prev)
        eid = len(keys)
        keys.append(key)
        vtx.append(vertex)
        child.append(_NIL)
        sib.append(_NIL)
        prev.append(_NIL)
        self._size += 1
        if root == _NIL:
            self._root = eid
            return eid
        c = self._arena.compare(key, keys[root])
        if c < 0 or (c == 0 and vertex < vtx[root]):
            # the old root, whose sib is _NIL, becomes the new element's
            # only child
            child[eid] = root
            prev[root] = eid
            self._root = eid
        else:
            # the new element becomes the root's first child
            s = child[root]
            sib[eid] = s
            if s != _NIL:
                prev[s] = eid
            child[root] = eid
            prev[eid] = root
        return eid

    def decrease_key(self, eid: int, key: int) -> None:
        """Lower an element's key.  Raising it is a contract violation.

        A non-root element is compared with the root first.  If it comes
        first, its new key is at most the root's, hence at most its old one,
        and it becomes the root; otherwise it pays the guard against its old
        key and becomes the root's first child.  Either way the link's outcome
        is known, so a decrease costs one comparison, or two when the element
        stays below the root.  The guard runs before any write.
        """
        arena = self._arena
        arena.check_handle(key)
        keys = self._key
        if not 0 <= eid < len(keys):
            raise ContractViolation("foreign handle: no such element")
        child, sib, prev = self._child, self._sib, self._prev
        root = self._root
        if eid == root:
            moves = False
        elif prev[eid] == _NIL:
            raise ContractViolation("stale handle: element already extracted")
        else:
            vtx = self._vtx
            c = arena.compare(key, keys[root])
            moves = c < 0 or (c == 0 and vtx[eid] < vtx[root])
        if not moves and arena.compare(key, keys[eid]) > 0:
            raise ContractViolation("decrease_key would increase the key")
        keys[eid] = key
        if eid == root:
            return
        # detach eid from its parent's child list
        p, s = prev[eid], sib[eid]
        if child[p] == eid:
            child[p] = s
        else:
            sib[p] = s
        if s != _NIL:
            prev[s] = p
        sib[eid] = _NIL
        prev[eid] = _NIL
        # link eid and the root: b becomes a's first child
        a, b = (eid, root) if moves else (root, eid)
        c = child[a]
        sib[b] = c
        if c != _NIL:
            prev[c] = b
        child[a] = b
        prev[b] = a
        self._root = a

    def find_min(self) -> tuple[int, int]:
        if self._root == _NIL:
            raise EmptyHeapError("find_min on empty heap")
        return self._key[self._root], self._vtx[self._root]

    def extract_min(self) -> tuple[int, int]:
        root = self._root
        if root == _NIL:
            raise EmptyHeapError("extract_min on empty heap")
        key, vtx, child, sib, prev = (
            self._key, self._vtx, self._child, self._sib, self._prev)
        compare = self._arena.compare
        out = (key[root], vtx[root])
        # first pass: link the children in pairs, left to right; a pair's
        # winner x heads it with _NIL sib and prev, and the loser y becomes
        # x's first child
        x = child[root]
        child[root] = _NIL
        pairs = []
        while x != _NIL:
            y = sib[x]
            if y == _NIL:
                prev[x] = _NIL
                pairs.append(x)
                break
            z = sib[y]
            c = compare(key[y], key[x])
            if c < 0 or (c == 0 and vtx[y] < vtx[x]):
                x, y = y, x
            s = child[x]
            sib[y] = s
            if s != _NIL:
                prev[s] = y
            child[x] = y
            prev[y] = x
            sib[x] = prev[x] = _NIL
            pairs.append(x)
            x = z
        # second pass: link the pairs right to left into the last one, the
        # loser of each link becoming the winner's first child
        new_root = pairs.pop() if pairs else _NIL
        while pairs:
            t = pairs.pop()
            c = compare(key[t], key[new_root])
            if c < 0 or (c == 0 and vtx[t] < vtx[new_root]):
                new_root, t = t, new_root
            s = child[new_root]
            sib[t] = s
            if s != _NIL:
                prev[s] = t
            child[new_root] = t
            prev[t] = new_root
        self._root = new_root
        self._size -= 1
        return out
