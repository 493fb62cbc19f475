"""Protected weight cells with counted Add and Compare.

All weight access in this package goes through a :class:`WeightArena`.  A cell
holds an exact nonnegative rational and is referred to by an opaque integer
handle.  The only ways to observe a cell are :meth:`WeightArena.add` and
:meth:`WeightArena.compare`, each of which bumps the corresponding counter.

Cells are plain ``int``: each holds its value times one common denominator D,
the least common multiple of the denominators interned so far (D = 1 while
every weight is an integer).  The model only adds and compares, and scaling
every weight by D > 0 keeps each sum exact and each comparison's sign, so the
counts are those of the unscaled values while every operation stays on ints.
When an intern raises D, the existing cells are multiplied in place by the
factor, so handles never change; :meth:`WeightArena.intern_many` raises D at
most once per batch.  If D would pass ``2**64`` (say, every arc with its own
prime denominator), the arena falls back for good: every cell is converted
once to its unscaled value, an ``int`` or a ``Fraction``, and later cells are
stored unscaled too.

Handles encode the issuing arena in their high bits, so using a handle with a
foreign arena raises :class:`ContractViolation` instead of reading garbage.
``INFINITY`` is a reserved sentinel handle that orders above every cell and is
compared for free; it never occupies a cell.  A comparison against it carries
no weight information, so it is not counted.  ``compare`` settles it in one
place, :meth:`compare_inf`, which it reaches by catching an ``IndexError``.
That costs the wall time of several counted comparisons, but callers meet an
``INFINITY`` side too rarely for a test of their own to pay, so none makes
one.  :meth:`check_handle` checks a handle where no comparison is needed.

Arenas created with ``audit=True`` additionally store cell payloads XOR-masked
with a random key (an ``int`` cell as ``cell ^ key``, a fallback ``Fraction``
as its masked numerator and denominator), so code that bypasses the API reads
noise, and allow exact values to be exported through
:meth:`WeightArena.audit_value` for independent test oracles.  Non-audit
arenas never export values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import ContractViolation

#: Reserved sentinel handle, ordered above all protected cells.  Comparisons
#: against it are free (their outcome carries no weight information).
INFINITY = -1

# Handles are ``base + index`` with per-arena bases spaced 2**44 apart, so a
# handle from one arena can never alias a live index of another (arenas stay
# far below 2**40 cells).  A base's low 44 bits are 0, so ``h ^ base`` is the
# index of a handle of this arena; a handle below the base, a foreign handle
# and INFINITY all map outside the cell list, to an IndexError.
_BASE_SHIFT = 44
_arena_serial = itertools.count(1)

# The common denominator never passes this; an arena that would need a larger
# one stores unscaled values instead.
_DEN_LIMIT = 1 << 64


def _exact(value):
    """``value`` itself if it is an int or a Fraction; anything else is rejected."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise ContractViolation(
            f"weights must be exact (int or Fraction), got {type(value).__name__}")
    return value


class WeightArena:
    """Append-only store of protected weight cells with operation counters."""

    __slots__ = ("_base", "_val", "_den", "_unscaled", "cmp_count",
                 "add_count", "audit", "_mask", "compare", "add")

    def __init__(self, audit: bool = False, mask_seed: int | None = None):
        self._base = next(_arena_serial) << _BASE_SHIFT
        self._den = 1  # cells hold value * _den
        self._unscaled = False  # set for good once _den would pass _DEN_LIMIT
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
        self._val: list = [self._mask]  # reserved zero cell

    # -- cell creation ---------------------------------------------------

    def zero(self) -> int:
        """Handle of the reserved zero cell."""
        return self._base

    def intern(self, value) -> int:
        """Load an original weight value (int or Fraction) into a new cell."""
        return self.intern_many((value,))[0]

    def intern_many(self, values) -> list[int]:
        """Bulk :meth:`intern`; returns the handles in order.

        The whole batch is checked before any cell is added, so a rejected
        batch leaves the arena as it was.
        """
        vals = [v if type(v) is int else _exact(v) for v in values]
        if vals and min(vals) < 0:
            raise ContractViolation("weights must be nonnegative")
        dens = {v.denominator for v in vals if type(v) is not int}
        d = self._den
        if dens and not self._unscaled:
            for q in dens:
                if d % q:
                    d = lcm(d, q)
                    if d > _DEN_LIMIT:
                        break
            if d > _DEN_LIMIT:
                self._unscale()
            else:
                if d != self._den:
                    self._rescale(d)
                vals = [v * d if type(v) is int else v.numerator * (d // v.denominator)
                        for v in vals]
        elif d != 1:
            vals = [v * d for v in vals]
        if self._mask:
            vals = [self._store(v) for v in vals]
        val = self._val
        start = self._base + len(val)
        val.extend(vals)
        return list(range(start, self._base + len(val)))

    def _rescale(self, den: int) -> None:
        """Raise the common denominator to ``den``, a multiple of the old one."""
        f = den // self._den
        m = self._mask
        self._val[:] = [((c ^ m) * f) ^ m for c in self._val]
        self._den = den

    def _unscale(self) -> None:
        """Store every cell as its unscaled value from now on."""
        d, m = self._den, self._mask
        cells = []
        for c in self._val:
            v = c ^ m
            q, r = divmod(v, d)
            cells.append(self._store(Fraction(v, d) if r else q))
        self._val[:] = cells
        self._den = 1
        self._unscaled = True

    def _add_plain(self, a: int, b: int) -> int:
        """Return a fresh handle holding value(a) + value(b).  Counts one addition."""
        base = self._base
        val = self._val
        try:
            va = val[a ^ base]
            vb = val[b ^ base]
        except IndexError:
            self._fault(a, b, "add")
        self.add_count += 1
        val.append(va + vb)
        return base + len(val) - 1

    def _add_masked(self, a: int, b: int) -> int:
        base = self._base
        val = self._val
        try:
            va = self._load(val[a ^ base])
            vb = self._load(val[b ^ base])
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
            va = val[a ^ base]
            vb = val[b ^ base]
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
            va = self._load(val[a ^ base])
            vb = self._load(val[b ^ base])
        except IndexError:
            return self._compare_special(a, b)
        self.cmp_count += 1
        if va < vb:
            return -1
        if vb < va:
            return 1
        return 0

    def compare_inf(self, a: int, b: int) -> int:
        """Sign of value(a) - value(b), where a or b is INFINITY.  Free.

        Reads no cell and counts nothing.  Raises :class:`ContractViolation`
        unless one side is INFINITY and the other is INFINITY or a handle of
        this arena.
        """
        if a == INFINITY:
            h = b
        elif b == INFINITY:
            h = a
        else:
            self._fault(a, b, "compare")
        if h != INFINITY and not 0 <= h - self._base < len(self._val):
            self._fault(a, b, "compare")
        return (a == INFINITY) - (b == INFINITY)

    # what compare falls back on when a cell lookup raises IndexError: a
    # side is INFINITY or not a handle of this arena
    _compare_special = compare_inf

    def check_handle(self, h: int) -> None:
        """Raise :class:`ContractViolation` unless h is INFINITY or a handle
        of this arena.  Free: a range test that reads no cell.  A value that
        is no number at all, such as None, fails the subtraction instead."""
        try:
            if h != INFINITY and not 0 <= h - self._base < len(self._val):
                self._fault(h, h, "check_handle")
        except TypeError:
            self._fault(h, h, "check_handle")

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
        v = self._load(self._val[idx])
        d = self._den
        return v if d == 1 else Fraction(v, d)

    def fork_values(self, handles):
        """Clone the values behind ``handles`` into a fresh side arena.

        Used for audit checks that must not touch the benchmark counters.
        Requires audit mode.  Returns ``(side_arena, side_handles)``.
        """
        side = WeightArena()
        cells = iter(side.intern_many(
            [self.audit_value(h) for h in handles if h != INFINITY]))
        return side, [INFINITY if h == INFINITY else next(cells) for h in handles]
