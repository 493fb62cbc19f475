"""Protected weight cells with counted Add and Compare.

All weight access in this package goes through a :class:`WeightArena`.  A cell
holds an exact nonnegative rational (plain ``int`` fast path, ``Fraction``
otherwise) and is referred to by an opaque integer handle.  The only ways to
observe a cell are :meth:`WeightArena.add` and :meth:`WeightArena.compare`,
each of which bumps the corresponding counter.

Handles encode the issuing arena in their high bits, so using a handle with a
foreign arena raises :class:`ContractViolation` instead of reading garbage.
``INFINITY`` is a reserved sentinel handle that orders above every cell and is
compared for free; it never occupies a cell.

Arenas created with ``audit=True`` additionally store cell payloads XOR-masked
with a random key (so code that bypasses the API reads noise) and allow exact
values to be exported through :meth:`WeightArena.audit_value` for independent
test oracles.  Non-audit arenas never export values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import ContractViolation

#: Reserved sentinel handle, ordered above all protected cells.  Comparisons
#: against it are free (their outcome carries no weight information).
INFINITY = -1

# Handles are ``base + index`` with per-arena bases spaced 2**44 apart, so a
# handle from one arena can never alias a live index of another (arenas stay
# far below 2**40 cells).
_BASE_SHIFT = 44
_arena_serial = itertools.count(1)


class WeightArena:
    """Append-only store of protected weight cells with operation counters."""

    __slots__ = ("_base", "_val", "cmp_count", "add_count", "audit", "_mask",
                 "compare", "add")

    def __init__(self, audit: bool = False, mask_seed: int | None = None):
        self._base = next(_arena_serial) << _BASE_SHIFT
        self._val: list = []
        self.cmp_count = 0
        self.add_count = 0
        self.audit = audit
        if audit:
            import random

            self._mask = random.Random(mask_seed).getrandbits(63) | 1
            self.compare = self._compare_masked
            self.add = self._add_masked
        else:
            self._mask = 0
            self.compare = self._compare_plain
            self.add = self._add_plain
        self._val.append(self._store(0))  # reserved zero cell

    # -- cell creation ---------------------------------------------------

    def zero(self) -> int:
        """Handle of the reserved zero cell."""
        return self._base

    def intern(self, value) -> int:
        """Load an original weight value (int or Fraction) into a new cell."""
        if isinstance(value, float):
            raise ContractViolation("weights must be exact (int or Fraction)")
        value = value if isinstance(value, int) else Fraction(value)
        if value < 0:
            raise ContractViolation("weights must be nonnegative")
        self._val.append(self._store(value))
        return self._base + len(self._val) - 1

    def intern_many(self, values) -> list[int]:
        """Bulk :meth:`intern` of nonnegative ints; returns their handles."""
        val = self._val
        base = self._base + len(val)
        if self._mask:
            m = self._mask
            val.extend(int(v) ^ m for v in values)
        else:
            val.extend(int(v) for v in values)
        if any(self._load(v) < 0 for v in val[base - self._base :]):
            raise ContractViolation("weights must be nonnegative")
        return list(range(base, self._base + len(val)))

    def _add_plain(self, a: int, b: int) -> int:
        """Return a fresh handle holding value(a) + value(b).  Counts one addition."""
        base = self._base
        val = self._val
        try:
            va = val[a - base]
            vb = val[b - base]
        except IndexError:
            self._fault(a, b, "add")
        self.add_count += 1
        val.append(va + vb)
        return base + len(val) - 1

    def _add_masked(self, a: int, b: int) -> int:
        base = self._base
        val = self._val
        try:
            va = self._load(val[a - base])
            vb = self._load(val[b - base])
        except IndexError:
            self._fault(a, b, "add")
        self.add_count += 1
        val.append(self._store(va + vb))
        return base + len(val) - 1

    # -- comparison ------------------------------------------------------
    # ``compare`` and ``add`` are bound per instance in __init__ so the
    # common unmasked arenas skip the masking branch entirely.  Either side
    # of a comparison may be INFINITY; such comparisons are free.

    def _compare_plain(self, a: int, b: int) -> int:
        """Sign of value(a) - value(b).  Counts one comparison."""
        base = self._base
        val = self._val
        try:
            va = val[a - base]
            vb = val[b - base]
        except IndexError:
            return self._compare_special(a, b)
        self.cmp_count += 1
        if va < vb:
            return -1
        if vb < va:
            return 1
        return 0

    def _compare_masked(self, a: int, b: int) -> int:
        base = self._base
        val = self._val
        try:
            va = self._load(val[a - base])
            vb = self._load(val[b - base])
        except IndexError:
            return self._compare_special(a, b)
        self.cmp_count += 1
        if va < vb:
            return -1
        if vb < va:
            return 1
        return 0

    def _compare_special(self, a: int, b: int) -> int:
        if a == INFINITY or b == INFINITY:
            if a == b:
                return 0
            return 1 if a == INFINITY else -1
        self._fault(a, b, "compare")

    def _fault(self, a, b, opname):
        raise ContractViolation(
            f"{opname}: handle not issued by this arena ({a!r}, {b!r})"
        )

    # -- masking (audit mode) ---------------------------------------------

    def _store(self, value):
        m = self._mask
        if not m:
            return value
        if isinstance(value, int):
            return value ^ m
        return (value.numerator ^ m, value.denominator ^ m)

    def _load(self, cell):
        m = self._mask
        if not m:
            return cell
        if isinstance(cell, int):
            return cell ^ m
        num, den = cell
        return Fraction(num ^ m, den ^ m)

    # -- bookkeeping -------------------------------------------------------

    def counters(self) -> tuple[int, int]:
        """Snapshot of (comparisons, additions) since creation or last reset."""
        return (self.cmp_count, self.add_count)

    def reset_counters(self) -> None:
        self.cmp_count = 0
        self.add_count = 0

    def __len__(self) -> int:
        return len(self._val)

    # -- audit-only export -------------------------------------------------

    def audit_value(self, handle: int):
        """Exact value of a cell.  Only available on arenas built with audit=True."""
        if not self.audit:
            raise ContractViolation("value export requires an audit-mode arena")
        if handle == INFINITY:
            return None
        idx = handle - self._base
        if not 0 <= idx < len(self._val):
            self._fault(handle, handle, "audit_value")
        return self._load(self._val[idx])

    def fork_values(self, handles):
        """Clone the values behind ``handles`` into a fresh side arena.

        Used for audit checks that must not touch the benchmark counters.
        Requires audit mode.  Returns ``(side_arena, side_handles)``.
        """
        side = WeightArena()
        out = []
        for h in handles:
            out.append(INFINITY if h == INFINITY else side.intern(self.audit_value(h)))
        return side, out
