import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from distorder.aux_structures import EMPTY, IntervalMap, MinKeeper
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

    def test_collapse_is_free(self):
        a = self.arena
        four, two = (a.intern(4), 1), (a.intern(2), 2)
        mk = MinKeeper(a)
        mk.change_prefix([(a.intern(5), 0), four, two])
        c0 = a.cmp_count
        mk.collapse(1, two)  # the last pair: M[2] is dropped
        assert a.cmp_count == c0
        assert mk.entries() == [(mk.entries()[0][0], 0), two]
        assert mk.find_min() == 1
        mk.check()
        # a longer +inf tail stays in place; M[2] joins it
        three = (a.intern(3), 1)
        mk = MinKeeper(a)
        mk.change_prefix([(a.intern(5), 0), three, (a.intern(4), 2), EMPTY, EMPTY])
        c0 = a.cmp_count
        mk.collapse(1, three)
        assert a.cmp_count == c0
        assert len(mk) == 5 and mk.entries()[2] == EMPTY
        assert mk.find_min() == 1
        mk.check()

    def test_order_reads_s_witnesses(self):
        a = self.arena
        mk = MinKeeper(a)
        # S's witnesses are 0, 2, 2, 3, 4
        vals = [1, 5, 3, 6, 7]
        mk.change_prefix([(a.intern(v), i) for i, v in enumerate(vals)])
        c0 = a.cmp_count
        assert [mk.order(i) for i in range(4)] == [-1, 1, -1, -1]
        assert a.cmp_count == c0
        mk = MinKeeper(a)
        # witness 2 for S[0]: M[0] against M[1] is left open
        mk.change_prefix([(a.intern(v), i) for i, v in enumerate((4, 5, 1))])
        assert mk.order(0) is None and mk.order(1) == 1
        # equal entries: M[0] <= M[1] is all S knows
        h = a.intern(2)
        mk = MinKeeper(a)
        mk.change_prefix([(h, 7), (h, 7)])
        assert mk.order(0) is None

    def test_clear_first_is_free_and_refill_spends_one(self):
        a = self.arena
        mk = MinKeeper(a)
        m = [(a.intern(v), i) for i, v in enumerate((3, 7, 5))]
        mk.change_prefix(m)
        c0 = a.cmp_count
        mk.clear_first()
        assert a.cmp_count == c0
        assert mk.entries()[0] == EMPTY and mk.find_min() == 2
        mk.check()  # compares on the arena
        c0 = a.cmp_count
        mk._decrease_known_lower(0, *m[0])
        assert a.cmp_count == c0 + 1 and mk.find_min() == 0
        mk.check()
        # an EMPTY S[1] leaves M[0] itself the leftmost EMPTY; M of one too
        for entries in ([m[0], EMPTY], [m[0]]):
            mk = MinKeeper(a)
            mk.change_prefix(entries)
            c0 = a.cmp_count
            mk.clear_first()
            mk._decrease_known_lower(0, *m[1])
            assert a.cmp_count == c0 and mk.find_min() == 0
            mk.clear_first()
            mk.check()

    def test_shift_spends_one_comparison(self):
        a = self.arena
        mk = MinKeeper(a)
        m = [(a.intern(v), i) for i, v in enumerate((6, 2, 9, 4))]
        mk.change_prefix(m)
        c0 = a.cmp_count
        # a carry lands at rank 2: M[1] and M[2] meld, M[0] moves to slot 1
        mk.shift(2, (a.intern(5), 9), m[1])
        assert a.cmp_count == c0 + 1
        assert mk.entries()[1:] == [m[0], m[1], m[3]]
        assert mk.find_min() == 2
        mk.check()
        # landing past the end extends M; a +inf entry compares for free
        c0 = a.cmp_count
        mk.shift(4, (INFINITY, 3), m[3])
        assert a.cmp_count == c0
        assert len(mk) == 5 and mk.find_min() == 3
        mk.check()

    def test_random_ops_match_suffix_min_recompute(self):
        # a model list of (value, tiebreak) pairs, value math.inf for +inf,
        # checked after every update; EMPTY models as (math.inf, math.inf)
        rng = random.Random(1)
        arena = self.arena

        def draw():
            roll = rng.random()
            if roll < 0.1:
                return EMPTY, (math.inf, math.inf)
            t = rng.randrange(4)  # few tiebreaks: equal pairs happen
            if roll < 0.2:
                return (INFINITY, t), (math.inf, t)
            v = rng.randrange(100, 130)
            return (arena.intern(v), t), (v, t)

        mk = MinKeeper(arena)
        drawn = [draw() for _ in range(6)]
        mk.change_prefix([e for e, _ in drawn])
        vals = [v for _, v in drawn]
        for _ in range(1500):
            op = rng.random()
            n = len(vals)
            before = arena.cmp_count
            if op < 0.25:
                i = rng.randrange(n)
                v, t = vals[i]
                if v == math.inf:
                    v = rng.randrange(90, 130)
                    if t == math.inf:
                        t = rng.randrange(4)
                else:
                    v = max(0, v - rng.randrange(5))
                vals[i] = (v, t)
                mk.decrease(i, arena.intern(v), t)
            elif op < 0.37:
                k = rng.randrange(1, n + 2)
                new = [draw() for _ in range(k)]
                if k >= n:
                    vals = [v for _, v in new]
                else:
                    vals[:k] = [v for _, v in new]
                mk.change_prefix([e for e, _ in new])
            elif op < 0.62:
                # a carry lands at rank r; r == n extends M
                r = rng.randrange(1, n + 1)
                e, v = draw()
                while e == EMPTY:
                    e, v = draw()
                top_at = r - 1 if r == n or vals[r - 1] <= vals[r] else r
                vals[: r + 1] = [v, *vals[: r - 1], vals[top_at]]
                mk.shift(r, e, mk.entries()[top_at])
                assert arena.cmp_count - before <= 1
            elif op < 0.8 and vals[0] == (math.inf, math.inf):
                # rank 0 refilled after it emptied: one comparison at most
                e, v = draw()
                while e == EMPTY:
                    e, v = draw()
                vals[0] = v
                mk._decrease_known_lower(0, *e)
                assert arena.cmp_count - before <= 1
            elif op < 0.8:
                # rank 0 emptied: S[0] becomes S[1], for free
                vals[0] = (math.inf, math.inf)
                mk.clear_first()
                assert arena.cmp_count == before
            elif n >= 2:
                # fold M[j+1] into M[j]; every entry above j + 1 is empty
                lo = n
                while lo > 0 and vals[lo - 1] == (math.inf, math.inf):
                    lo -= 1
                j = rng.randrange(max(0, lo - 2), n - 1)
                top_at = j if vals[j] <= vals[j + 1] else j + 1
                top = mk.entries()[top_at]
                vals[j] = vals[top_at]
                if n == j + 2:
                    vals.pop()
                else:
                    vals[j + 1] = (math.inf, math.inf)
                mk.collapse(j, top)
                assert arena.cmp_count == before
            assert len(mk) == len(vals)
            before = arena.cmp_count
            for i in range(len(vals) - 1):
                o = mk.order(i)
                if o is not None:
                    assert (vals[i] < vals[i + 1]) == (o < 0)
                    assert vals[i] != vals[i + 1]
            assert arena.cmp_count == before
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
