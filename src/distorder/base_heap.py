"""Meldable min-heaps driven entirely by arena comparisons.

:class:`FibonacciHeap` is the inner heap of the working-set construction:
amortized O(1) insert, decrease-key and meld, O(log n) extract-min.  Nodes
live in a shared :class:`HeapNodePool` (parallel arrays indexed by node id),
so melding moves nothing and node ids stay valid until extraction.

:class:`BinaryQueue` and :class:`PairingQueue` are benchmark baselines with
the same comparison discipline; they are not used by the working-set heap.

Heap order is min by ``arena.compare`` with ties broken by vertex id, which
makes every extraction sequence deterministic and lets independent oracles
predict it exactly.
"""

from __future__ import annotations

from .errors import ContractViolation, EmptyHeapError

_NIL = -1


class HeapNodePool:
    """Parallel-array node storage shared by a family of meldable heaps."""

    __slots__ = ("key", "time", "vertex", "parent", "child", "left", "right",
                 "degm", "_free")

    def __init__(self):
        self.key: list[int] = []
        self.time: list[int] = []
        self.vertex: list[int] = []
        self.parent: list[int] = []
        self.child: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.degm: list[int] = []  # degree << 1 | mark
        self._free: list[int] = []

    def alloc(self, key: int, time: int, vertex: int) -> int:
        free = self._free
        if free:
            nid = free.pop()
            self.key[nid] = key
            self.time[nid] = time
            self.vertex[nid] = vertex
            self.parent[nid] = _NIL
            self.child[nid] = _NIL
            self.left[nid] = nid
            self.right[nid] = nid
            self.degm[nid] = 0
        else:
            nid = len(self.key)
            self.key.append(key)
            self.time.append(time)
            self.vertex.append(vertex)
            self.parent.append(_NIL)
            self.child.append(_NIL)
            self.left.append(nid)
            self.right.append(nid)
            self.degm.append(0)
        return nid

    def release(self, nid: int) -> None:
        self.time[nid] = _NIL  # stale-handle marker
        self._free.append(nid)


class FibonacciHeap:
    """Classic Fibonacci heap over a shared node pool.

    Melding consumes the argument heap.  Node ids remain stable across melds;
    ownership is tracked externally (the working-set heap finds a node's heap
    from its insertion time and the cached spans, standalone users keep their
    own bookkeeping).
    """

    __slots__ = ("pool", "arena", "min", "size", "rank", "iv_start", "iv_end")

    def __init__(self, pool: HeapNodePool, arena):
        self.pool = pool
        self.arena = arena
        self.min = _NIL
        self.size = 0
        self.rank: int | None = None  # set by the working-set heap
        self.iv_start = 0  # insertion-time interval this heap covers
        self.iv_end = 0

    def __len__(self):
        return self.size

    def _less(self, i: int, j: int) -> bool:
        pool = self.pool
        c = self.arena.compare(pool.key[i], pool.key[j])
        if c:
            return c < 0
        return pool.vertex[i] < pool.vertex[j]

    def insert(self, key: int, time: int, vertex: int) -> int:
        """Add an element; returns its node id.  Amortized O(1)."""
        pool = self.pool
        nid = pool.alloc(key, time, vertex)
        m = self.min
        if m == _NIL:
            self.min = nid
        else:
            # splice nid into the root ring, left of m
            left, right = pool.left, pool.right
            lm = left[m]
            right[lm] = nid
            left[nid] = lm
            right[nid] = m
            left[m] = nid
            c = self.arena.compare(key, pool.key[m])
            if c < 0 or (c == 0 and vertex < pool.vertex[m]):
                self.min = nid
        self.size += 1
        return nid

    def find_min(self) -> int:
        if self.min == _NIL:
            raise EmptyHeapError("find_min on empty heap")
        return self.min

    def meld(self, other: "FibonacciHeap") -> "FibonacciHeap":
        """Absorb ``other`` (same pool and arena).  Amortized O(1)."""
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
            if self._less(om, m):
                self.min = om
        self.size += other.size
        other.min = _NIL
        other.size = 0
        return self

    def extract_min(self) -> tuple[int, int, int]:
        """Remove and return (key, time, vertex) of the minimum."""
        z = self.min
        if z == _NIL:
            raise EmptyHeapError("extract_min on empty heap")
        pool = self.pool
        left, right, parent, child, degm = (
            pool.left, pool.right, pool.parent, pool.child, pool.degm)
        c = child[z]
        if c != _NIL:
            # promote z's children to roots
            x = c
            while True:
                parent[x] = _NIL
                x = right[x]
                if x == c:
                    break
            lz, lc = left[z], left[c]
            right[lz] = c
            left[c] = lz
            right[lc] = z
            left[z] = lc
            child[z] = _NIL
        rz = right[z]
        # unlink z
        lz = left[z]
        right[lz] = rz
        left[rz] = lz
        out = (pool.key[z], pool.time[z], pool.vertex[z])
        pool.release(z)
        self.size -= 1
        if z == rz:
            self.min = _NIL
        else:
            self.min = rz
            self._consolidate()
        return out

    def _consolidate(self) -> None:
        pool = self.pool
        left, right, parent, child, degm = (
            pool.left, pool.right, pool.parent, pool.child, pool.degm)
        key, vertex = pool.key, pool.vertex
        compare = self.arena.compare
        roots = []
        stop = self.min
        x = stop
        while True:
            roots.append(x)
            x = right[x]
            if x == stop:
                break
        buckets: list[int] = [_NIL] * (self.size.bit_length() * 2 + 4)
        for x in roots:
            d = degm[x] >> 1
            while buckets[d] != _NIL:
                y = buckets[d]
                c = compare(key[y], key[x])
                if c < 0 or (c == 0 and vertex[y] < vertex[x]):
                    x, y = y, x
                # link y under x
                ly, ry = left[y], right[y]
                right[ly] = ry
                left[ry] = ly
                cx = child[x]
                if cx == _NIL:
                    child[x] = y
                    left[y] = y
                    right[y] = y
                else:
                    lc = left[cx]
                    right[lc] = y
                    left[y] = lc
                    right[y] = cx
                    left[cx] = y
                parent[y] = x
                degm[y] &= ~1  # clear mark
                buckets[d] = _NIL
                d += 1
                degm[x] = (d << 1) | (degm[x] & 1)
            buckets[d] = x
        mn = _NIL
        for x in buckets:
            if x != _NIL:
                if mn == _NIL:
                    mn = x
                else:
                    c = compare(key[x], key[mn])
                    if c < 0 or (c == 0 and vertex[x] < vertex[mn]):
                        mn = x
        self.min = mn

    def decrease_key(self, nid: int, new_key: int) -> None:
        """Lower a node's key.  Raising it is a contract violation."""
        pool = self.pool
        c = self.arena.compare(new_key, pool.key[nid])
        if c > 0:
            raise ContractViolation("decrease_key would increase the key")
        pool.key[nid] = new_key
        p = pool.parent[nid]
        if p != _NIL:
            if self._less(nid, p):
                self._cut(nid, p)
                self._cascading_cut(p)
                if self._less(nid, self.min):
                    self.min = nid
        elif nid != self.min and self._less(nid, self.min):
            self.min = nid

    def _cut(self, nid: int, p: int) -> None:
        pool = self.pool
        left, right, child, degm = pool.left, pool.right, pool.child, pool.degm
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
        pool.parent[nid] = _NIL
        degm[nid] &= ~1
        # splice into root ring next to min
        m = self.min
        lm = left[m]
        right[lm] = nid
        left[nid] = lm
        right[nid] = m
        left[m] = nid

    def _cascading_cut(self, nid: int) -> None:
        pool = self.pool
        while True:
            p = pool.parent[nid]
            if p == _NIL:
                return
            if not pool.degm[nid] & 1:
                pool.degm[nid] |= 1
                return
            self._cut(nid, p)
            nid = p

    def iter_nodes(self):
        """Yield node ids of all live nodes (debug walks)."""
        if self.min == _NIL:
            return
        pool = self.pool
        stack = []
        stop = self.min
        x = stop
        while True:
            stack.append(x)
            x = pool.right[x]
            if x == stop:
                break
        rings = stack
        while rings:
            x = rings.pop()
            yield x
            c = pool.child[x]
            if c != _NIL:
                y = c
                while True:
                    rings.append(y)
                    y = pool.right[y]
                    if y == c:
                        break


class FibonacciQueue:
    """Standalone priority-queue facade over a private pool and FibonacciHeap."""

    def __init__(self, arena):
        self._heap = FibonacciHeap(HeapNodePool(), arena)
        self._time = 0

    def __len__(self):
        return self._heap.size

    def insert(self, key: int, vertex: int) -> int:
        self._time += 1
        return self._heap.insert(key, self._time, vertex)

    def decrease_key(self, token: int, key: int) -> None:
        self._heap.decrease_key(token, key)

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

    def _less(self, a: int, b: int) -> bool:
        c = self._arena.compare(self._key[a], self._key[b])
        if c:
            return c < 0
        return self._vtx[a] < self._vtx[b]

    def insert(self, key: int, vertex: int) -> int:
        eid = len(self._key)
        self._key.append(key)
        self._vtx.append(vertex)
        self._pos.append(len(self._heap))
        self._heap.append(eid)
        self._bubble_up(len(self._heap) - 1)
        return eid

    def decrease_key(self, eid: int, key: int) -> None:
        if self._pos[eid] < 0:
            raise ContractViolation("stale handle: element already extracted")
        if self._arena.compare(key, self._key[eid]) > 0:
            raise ContractViolation("decrease_key would increase the key")
        self._key[eid] = key
        self._bubble_up(self._pos[eid])

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

    def _bubble_up(self, i: int) -> None:
        heap, pos = self._heap, self._pos
        x = heap[i]
        while i > 0:
            par = (i - 1) >> 1
            p = heap[par]
            if not self._less(x, p):
                break
            heap[i] = p
            pos[p] = i
            i = par
        heap[i] = x
        pos[x] = i

    def _sift_down(self, i: int) -> None:
        heap, pos = self._heap, self._pos
        n = len(heap)
        x = heap[i]
        while True:
            l = 2 * i + 1
            if l >= n:
                break
            r = l + 1
            c = l
            if r < n and self._less(heap[r], heap[l]):
                c = r
            if not self._less(heap[c], x):
                break
            heap[i] = heap[c]
            pos[heap[c]] = i
            i = c
        heap[i] = x
        pos[x] = i


class PairingQueue:
    """Two-pass pairing heap baseline."""

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

    def _less(self, a: int, b: int) -> bool:
        c = self._arena.compare(self._key[a], self._key[b])
        if c:
            return c < 0
        return self._vtx[a] < self._vtx[b]

    def _link(self, a: int, b: int) -> int:
        if self._less(b, a):
            a, b = b, a
        # b becomes a's first child
        self._sib[b] = self._child[a]
        if self._child[a] != _NIL:
            self._prev[self._child[a]] = b
        self._child[a] = b
        self._prev[b] = a
        return a

    def insert(self, key: int, vertex: int) -> int:
        eid = len(self._key)
        self._key.append(key)
        self._vtx.append(vertex)
        self._child.append(_NIL)
        self._sib.append(_NIL)
        self._prev.append(_NIL)
        self._root = eid if self._root == _NIL else self._link(self._root, eid)
        self._size += 1
        return eid

    def decrease_key(self, eid: int, key: int) -> None:
        if self._arena.compare(key, self._key[eid]) > 0:
            raise ContractViolation("decrease_key would increase the key")
        self._key[eid] = key
        if eid == self._root:
            return
        # detach eid from its parent's child list
        p, s = self._prev[eid], self._sib[eid]
        if self._child[p] == eid:
            self._child[p] = s
        else:
            self._sib[p] = s
        if s != _NIL:
            self._prev[s] = p
        self._sib[eid] = _NIL
        self._prev[eid] = _NIL
        self._root = self._link(self._root, eid)

    def find_min(self) -> tuple[int, int]:
        if self._root == _NIL:
            raise EmptyHeapError("find_min on empty heap")
        return self._key[self._root], self._vtx[self._root]

    def extract_min(self) -> tuple[int, int]:
        root = self._root
        if root == _NIL:
            raise EmptyHeapError("extract_min on empty heap")
        out = (self._key[root], self._vtx[root])
        # two-pass combine of the children
        first = self._child[root]
        self._child[root] = _NIL
        pairs = []
        x = first
        while x != _NIL:
            y = self._sib[x]
            self._sib[x] = _NIL
            self._prev[x] = _NIL
            if y != _NIL:
                z = self._sib[y]
                self._sib[y] = _NIL
                self._prev[y] = _NIL
                pairs.append(self._link(x, y))
                x = z
            else:
                pairs.append(x)
                break
        new_root = _NIL
        for t in reversed(pairs):
            new_root = t if new_root == _NIL else self._link(new_root, t)
        self._root = new_root
        self._size -= 1
        return out
