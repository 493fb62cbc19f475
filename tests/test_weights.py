import pytest
from decimal import Decimal
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from distorder.errors import ContractViolation
from distorder.weights import INFINITY, WeightArena


def test_add_basic():
    a = WeightArena()
    h0, h1 = a.intern(3), a.intern(4)
    h = a.add(h0, h1)
    assert a.compare(h, a.intern(7)) == 0
    assert a.add_count == 1


def test_add_zero_identity():
    a = WeightArena()
    h = a.intern(5)
    s = a.add(h, a.zero())
    assert a.compare(s, h) == 0


def test_chain_of_unit_adds():
    a = WeightArena()
    one = a.intern(1)
    h = one
    k = 37
    for _ in range(k - 1):
        h = a.add(h, one)
    assert a.add_count == k - 1
    assert a.compare(h, a.intern(k)) == 0


def test_compare_signs_and_counter():
    a = WeightArena()
    h3, h4, h5a, h5b = a.intern(3), a.intern(4), a.intern(5), a.intern(5)
    a.reset_counters()
    assert a.compare(h3, h4) == -1
    assert a.compare(h4, h3) == 1
    assert a.compare(h5a, h5b) == 0
    assert a.counters() == (3, 0)


def test_foreign_handle_faults():
    a, b = WeightArena(), WeightArena()
    ha = a.intern(1)
    hb = b.intern(2)
    with pytest.raises(ContractViolation):
        b.compare(ha, hb)
    with pytest.raises(ContractViolation):
        b.add(ha, hb)
    with pytest.raises(ContractViolation):
        a.compare(ha, hb)


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audit"])
def test_handle_below_the_base_faults(audit):
    # one below the zero cell is no handle of this arena; it must not read
    # the arena's last cell
    a = WeightArena(audit=audit, mask_seed=5)
    h = a.intern(3)
    below = a.zero() - 1
    for pair in ((below, h), (h, below), (below, below)):
        with pytest.raises(ContractViolation):
            a.compare(*pair)
        with pytest.raises(ContractViolation):
            a.add(*pair)
    assert a.counters() == (0, 0)


def test_infinity_sentinel_is_free_and_largest():
    a = WeightArena()
    h = a.intern(10**18)
    before = a.cmp_count
    assert a.compare(INFINITY, h) == 1
    assert a.compare(h, INFINITY) == -1
    assert a.compare(INFINITY, INFINITY) == 0
    assert a.cmp_count == before
    with pytest.raises(ContractViolation):
        a.add(h, INFINITY)


def test_infinity_against_a_foreign_handle_faults():
    # +inf stays free, but only against INFINITY or this arena's own cells
    for a in (WeightArena(), WeightArena(audit=True, mask_seed=2)):
        h, foreign = a.intern(3), WeightArena().intern(2)
        for pair in ((foreign, INFINITY), (INFINITY, foreign)):
            with pytest.raises(ContractViolation):
                a.compare(*pair)
            with pytest.raises(ContractViolation):
                a.compare_inf(*pair)
        with pytest.raises(ContractViolation):
            a.check_handle(foreign)
        assert a.compare_inf(h, INFINITY) == -1
        assert a.compare_inf(INFINITY, a.zero()) == 1
        assert a.compare_inf(INFINITY, INFINITY) == 0
        a.check_handle(h)
        a.check_handle(INFINITY)
        with pytest.raises(ContractViolation):
            a.compare_inf(h, a.zero())  # neither side is INFINITY
        assert a.counters() == (0, 0)


@pytest.mark.parametrize("bad", ["2.5", "abc", None, True, Decimal("2.5"), 2.5],
                         ids=repr)
def test_intern_accepts_only_ints_and_fractions(bad):
    for a in (WeightArena(), WeightArena(audit=True)):
        with pytest.raises(ContractViolation):
            a.intern(bad)
        with pytest.raises(ContractViolation):
            a.intern_many([1, Fraction(1, 2), bad])
        assert len(a) == 1  # only the zero cell


def test_rational_weights_exact():
    a = WeightArena()
    h = a.intern(Fraction(1, 3))
    g = a.intern(Fraction(2, 3))
    s = a.add(h, g)
    assert a.compare(s, a.intern(1)) == 0
    # floats are rejected outright: ties must stay exact
    with pytest.raises(ContractViolation):
        a.intern(0.5)
    with pytest.raises(ContractViolation):
        a.intern(-1)


def test_counters_reproducible():
    def run():
        a = WeightArena()
        hs = [a.intern(v) for v in (5, 1, 4, 1, 5)]
        for x in hs:
            for y in hs:
                a.compare(x, y)
        a.add(hs[0], hs[1])
        return a.counters()

    assert run() == run() == (25, 1)


def test_audit_mode_masks_storage_and_exports():
    a = WeightArena(audit=True, mask_seed=7)
    h = a.intern(123456)
    # raw storage is masked: the stored cell differs from the value
    assert a._val[h - a._base] != 123456
    assert a.audit_value(h) == 123456
    f = a.intern(Fraction(7, 2))
    assert a.audit_value(f) == Fraction(7, 2)
    assert a.compare(h, f) == 1
    plain = WeightArena()
    hp = plain.intern(1)
    with pytest.raises(ContractViolation):
        plain.audit_value(hp)


def test_fork_values_side_arena():
    a = WeightArena(audit=True)
    hs = [a.intern(v) for v in (3, 1, 2)] + [INFINITY]
    a.reset_counters()
    side, sh = a.fork_values(hs)
    assert side.compare(sh[1], sh[0]) == -1
    assert side.compare(sh[3], sh[0]) == 1  # INFINITY passes through
    assert a.counters() == (0, 0)  # main arena untouched


def test_intern_many_matches_intern():
    a = WeightArena()
    hs = a.intern_many([4, 0, 9])
    b = WeightArena(audit=True)
    hb = b.intern_many([4, 0, 9])
    assert [b.audit_value(h) for h in hb] == [4, 0, 9]
    assert a.compare(hs[0], hs[2]) == -1
    with pytest.raises(ContractViolation):
        a.intern_many([3, -1])


def test_intern_many_checks_the_whole_batch_first():
    a = WeightArena()
    for bad in ([0.5, Fraction(7, 2), 3], [5, -1], [Fraction(1, 3), -Fraction(1, 2)]):
        with pytest.raises(ContractViolation):
            a.intern_many(bad)
        assert len(a) == 1  # only the zero cell
    for bad in ([Fraction(1, 2), -1], [Fraction(-1, 3)], [3, -Fraction(6, 3)]):
        with pytest.raises(ContractViolation, match="weights must be nonnegative"):
            a.intern_many(bad)
        assert len(a) == 1
    b = WeightArena(audit=True, mask_seed=3)
    hb = b.intern_many([Fraction(7, 2), 3, Fraction(5, 2), Fraction(1, 3), Fraction(0)])
    assert [b.audit_value(h) for h in hb] == [Fraction(7, 2), 3, Fraction(5, 2),
                                              Fraction(1, 3), 0]


def test_rising_denominator_keeps_handles_and_order():
    a = WeightArena(audit=True, mask_seed=11)
    hs = a.intern_many([3, Fraction(1, 2), 7])
    calls = []
    rescale = WeightArena._rescale

    def counted(self, den):
        calls.append(den)
        rescale(self, den)

    try:
        WeightArena._rescale = counted
        more = a.intern_many([Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)])
    finally:
        WeightArena._rescale = rescale
    assert calls == [2 * 3 * 7 * 11]  # one rescale for the whole batch
    assert [a.audit_value(h) for h in hs + more] == [
        3, Fraction(1, 2), 7, Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)]
    s = a.add(hs[1], more[0])
    assert a.audit_value(s) == Fraction(5, 6)
    assert a.compare(s, hs[0]) == -1
    assert a.counters() == (1, 1)


def test_denominator_past_the_bound_falls_back_to_exact_values():
    a = WeightArena(audit=True)
    h = a.intern(Fraction(1, 6))
    big = a.intern_many([Fraction(1, 2**61 - 1), Fraction(1, 2**31 - 1)])
    assert a._unscaled and a._den == 1
    assert a.audit_value(h) == Fraction(1, 6)
    assert a.compare(big[0], big[1]) == -1
    later = a.intern(Fraction(1, 5))  # stays unscaled
    assert a._unscaled and a.audit_value(later) == Fraction(1, 5)
    assert a.audit_value(a.add(h, later)) == Fraction(11, 30)
    b = WeightArena()  # single interns cross the bound too
    hb = [b.intern(Fraction(1, q)) for q in (2**31 - 1, 2**61 - 1)]
    assert b._unscaled and b.compare(hb[0], hb[1]) == 1


# -- property test against exact Fraction arithmetic -------------------------

_MERSENNE = (2**31 - 1, 2**61 - 1)  # lcm past the arena's 2**64 bound

small_values = st.one_of(
    st.integers(0, 10**6),
    # decimal fractions, passed as the Fractions they equal
    st.decimals(min_value=0, max_value=10**4, places=3, allow_nan=False,
                allow_infinity=False).map(Fraction),
    st.fractions(min_value=0, max_value=10**4, max_denominator=12),
)
any_values = st.one_of(small_values,
                       st.fractions(min_value=0, max_denominator=10**9))


def ops(values):
    index = st.integers(0, 10**6)
    return st.lists(st.one_of(
        st.tuples(st.just("intern"), values),
        st.tuples(st.just("batch"), st.lists(values, max_size=6)),
        st.tuples(st.just("add"), index, index),
        st.tuples(st.just("compare"), index, index),
        st.tuples(st.just("compare_inf"), index, st.booleans()),
    ), max_size=25)


class _Checked:
    """Drives a plain and an audit arena in step with a list of exact values."""

    def __init__(self):
        self.arenas = (WeightArena(), WeightArena(audit=True, mask_seed=5))
        self.handles = [[a.zero()] for a in self.arenas]
        self.exact = [Fraction(0)]
        self.expected = (0, 0)

    def batch(self, values):
        for arena, hs in zip(self.arenas, self.handles):
            hs.extend(arena.intern_many(values))
        self.exact.extend(Fraction(v) for v in values)
        self.check_counters()

    def run(self, program):
        for op in program:
            kind = op[0]
            if kind == "intern":
                for arena, hs in zip(self.arenas, self.handles):
                    hs.append(arena.intern(op[1]))
                self.exact.append(Fraction(op[1]))
            elif kind == "batch":
                self.batch(op[1])
            else:
                n = len(self.exact)
                i = op[1] % n
                if kind == "add":
                    j = op[2] % n
                    for arena, hs in zip(self.arenas, self.handles):
                        hs.append(arena.add(hs[i], hs[j]))
                    self.exact.append(self.exact[i] + self.exact[j])
                    self.expected = (self.expected[0], self.expected[1] + 1)
                elif kind == "compare":
                    j = op[2] % n
                    want = (self.exact[i] > self.exact[j]) - (self.exact[i] < self.exact[j])
                    for arena, hs in zip(self.arenas, self.handles):
                        assert arena.compare(hs[i], hs[j]) == want
                    self.expected = (self.expected[0] + 1, self.expected[1])
                else:  # INFINITY on either side is free
                    for arena, hs in zip(self.arenas, self.handles):
                        pair = (hs[i], INFINITY) if op[2] else (INFINITY, hs[i])
                        assert arena.compare(*pair) == (-1 if op[2] else 1)
                        assert arena.compare_inf(*pair) == (-1 if op[2] else 1)
            self.check_counters()
        self.check_values()

    def check_counters(self):
        for arena in self.arenas:
            assert arena.counters() == self.expected

    def check_values(self):
        audit, hs = self.arenas[1], self.handles[1]
        assert [audit.audit_value(h) for h in hs] == self.exact


@given(st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_arena_matches_fraction_oracle(data):
    c = _Checked()
    c.batch(data.draw(st.lists(small_values, min_size=1, max_size=6)))
    c.run(data.draw(ops(small_values)))  # denominators divide 27720 * 1000
    dens = [a._den for a in c.arenas]
    bump = data.draw(st.lists(small_values, max_size=4))
    bump.insert(data.draw(st.integers(0, len(bump))), Fraction(1, 13))
    c.batch(bump)
    for arena, den in zip(c.arenas, dens):
        assert arena._den == lcm(den, *(Fraction(v).denominator for v in bump))
        assert arena._den > den and not arena._unscaled
    c.check_values()
    c.run(data.draw(ops(small_values)))
    cross = data.draw(st.lists(small_values, max_size=4))
    for q in _MERSENNE:
        cross.insert(data.draw(st.integers(0, len(cross))),
                     Fraction(data.draw(st.integers(1, 10**30)), q))
    c.batch(cross)
    assert all(a._unscaled and a._den == 1 for a in c.arenas)
    c.check_values()
    c.run(data.draw(ops(any_values)))
