import random

import pytest
from hypothesis import given, settings, strategies as st

from distorder.aux_structures import IntervalMap, MinKeeper
from distorder.errors import ContractViolation
from distorder.weights import INFINITY, WeightArena


class TestIntervalMap:
    def test_set_find(self):
        u = IntervalMap()
        u.set(0, 5, "p")
        assert u.find(3) == (0, 5, "p")

    def test_touching_intervals_allowed(self):
        u = IntervalMap()
        u.set(0, 5, "a")
        u.set(5, 9, "b")
        assert u.find(4)[2] == "a"
        assert u.find(5)[2] == "b"

    def test_overlap_rejected(self):
        u = IntervalMap()
        u.set(0, 5, "a")
        with pytest.raises(ContractViolation):
            u.set(3, 7, "b")

    def test_remove_present_and_absent(self):
        u = IntervalMap()
        u.set(2, 4, "a")
        u.remove(2, 4)
        assert u.find(2) is None
        u.remove(2, 4)  # absent: no-op
        u.set(2, 4, "later")
        assert u.get(2, 4) == "later"

    def test_locate_components(self):
        u = IntervalMap()
        u.set(0, 5, "a")
        u.set(8, 9, "b")
        loc = u.locate(6)
        assert loc.find is None
        assert loc.prev[:2] == (0, 5)
        assert loc.next[:2] == (8, 9)

    def test_locate_boundaries(self):
        u = IntervalMap()
        u.set(0, 5, "a")
        assert u.locate(0).find[:2] == (0, 5)  # closed on the left
        assert u.locate(5).find is None        # open on the right

    def test_extend_right(self):
        u = IntervalMap()
        u.set(0, 2, "a")
        u.set(4, 6, "b")
        u.extend_right(4, 6, 9)
        assert u.find(8)[2] == "b"
        with pytest.raises(ContractViolation):
            u.extend_right(0, 2, 3)  # not the rightmost interval

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 8),
                              st.booleans()), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_against_naive_model(self, ops):
        u = IntervalMap()
        model = {}  # start -> (end, payload)

        def overlaps(a, b):
            return any(a < e and s < b for s, (e, _p) in model.items())

        for k, (a, ln, do_set) in enumerate(ops):
            b = a + ln
            if do_set:
                if overlaps(a, b):
                    with pytest.raises(ContractViolation):
                        u.set(a, b, k)
                else:
                    u.set(a, b, k)
                    model[a] = (b, k)
            else:
                u.remove(a, b)
                if a in model and model[a][0] == b:
                    del model[a]
            u.check()
            for t in (a - 1, a, b - 1, b):
                got = u.find(t)
                want = next(((s, e, p) for s, (e, p) in model.items()
                             if s <= t < e), None)
                assert got == want


def count_runs(mk):
    """Maximal stretches of equal entries in the suffix-minima list S."""
    s = mk._s
    return sum(1 for i in range(len(s)) if i == 0 or s[i] != s[i - 1])


class TestMinKeeper:
    def setup_method(self):
        self.arena = WeightArena()

    def fill(self, values):
        mk = MinKeeper(self.arena)
        mk.change_prefix([(self.arena.intern(v), 0) for v in values])
        return mk

    def test_decrease_moves_min(self):
        mk = self.fill([9, 7, 8])
        mk.decrease(2, self.arena.intern(1))
        assert mk.find_min() == 2

    def test_decrease_to_current_value(self):
        mk = self.fill([9, 7, 8])
        before = mk.find_min()
        mk.decrease(1, self.arena.intern(7))
        assert mk.find_min() == before

    def test_decrease_increase_rejected(self):
        mk = self.fill([4, 2])
        with pytest.raises(ContractViolation):
            mk.decrease(1, self.arena.intern(3))

    def test_change_prefix_examples(self):
        mk = self.fill([9, 7, 8])
        mk.change_prefix([(self.arena.intern(1), 0)])
        assert mk.find_min() == 0
        mk2 = self.fill([5])
        mk2.change_prefix([(self.arena.intern(v), 0) for v in (9, 9, 2, 3)])
        assert len(mk2) == 4 and mk2.find_min() == 2

    def test_find_min_examples(self):
        assert self.fill([3, 1, 2]).find_min() == 1
        assert self.fill([42]).find_min() == 0
        assert self.fill([6, 6, 6]).find_min() == 0  # leftmost tie

    def test_pop(self):
        mk = self.fill([4, 2, 2])
        mk.pop()
        assert len(mk) == 2 and mk.find_min() == 1
        bad = self.fill([4, 2, 3])
        with pytest.raises(ContractViolation):
            bad.pop()

    def test_random_ops_match_suffix_min_recompute(self):
        rng = random.Random(1)
        arena = self.arena
        vals = [rng.randrange(100, 1000) for _ in range(6)]
        mk = self.fill(vals)
        for step in range(300):
            op = rng.random()
            if op < 0.55:
                i = rng.randrange(len(vals))
                nv = max(0, vals[i] - rng.randrange(50))
                vals[i] = nv
                mk.decrease(i, arena.intern(nv))
            elif op < 0.85 or len(vals) < 2:
                k = rng.randrange(1, len(vals) + 2)
                new = [rng.randrange(100, 1000) for _ in range(k)]
                if k >= len(vals):
                    vals = new
                else:
                    vals[:k] = new
                mk.change_prefix([(arena.intern(v), 0) for v in new])
            else:
                if vals[-1] != vals[-2]:
                    m = min(vals[-1], vals[-2])
                    vals[-1] = vals[-2] = m
                    mk.change_prefix(
                        [(arena.intern(v), 0) for v in vals])
                vals.pop()
                mk.pop()
            mk.check()
            want = min(range(len(vals)), key=lambda i: (vals[i], i))
            assert mk.find_min() == want

    def test_amortized_run_potential(self):
        # every operation adds at most two runs to S; over a long random
        # sequence total splits stay within total merges plus op count
        rng = random.Random(7)
        arena = self.arena
        vals = [rng.randrange(1000) for _ in range(8)]
        mk = self.fill(vals)
        runs = count_runs(mk)
        splits = merges = ops = 0
        for _ in range(500):
            if rng.random() < 0.7:
                i = rng.randrange(len(vals))
                vals[i] = max(0, vals[i] - rng.randrange(200))
                mk.decrease(i, arena.intern(vals[i]))
            else:
                k = rng.randrange(1, len(vals))
                new = [rng.randrange(1000) for _ in range(k)]
                vals[:k] = new
                mk.change_prefix([(arena.intern(v), 0) for v in new])
            ops += 1
            now = count_runs(mk)
            if now > runs:
                splits += now - runs
            else:
                merges += runs - now
            runs = now
        assert splits <= merges + 2 * ops

    def test_tiebreak_orders_equal_values(self):
        arena = self.arena
        h = arena.intern(5)
        mk = MinKeeper(arena)
        mk.change_prefix([(h, 3), (h, 1), (h, 2)])
        assert mk.find_min() == 1  # smallest tiebreak wins on equal values

    def test_infinity_entries(self):
        arena = self.arena
        mk = MinKeeper(arena)
        mk.change_prefix([(INFINITY, 0), (arena.intern(4), 1), (INFINITY, 2)])
        assert mk.find_min() == 1
