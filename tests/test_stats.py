"""Unit tests for repro.common.stats."""

from repro.common.stats import Counter, MissKind, percentile


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("reads", 2)
        c.add("reads")
        assert c["reads"] == 3
        assert c["absent"] == 0

    def test_merge(self):
        a, b = Counter(), Counter()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 5)
        a.merge(b)
        assert a["x"] == 3 and a["y"] == 5

    def test_prefix_total(self):
        c = Counter()
        c.add("miss.cold", 2)
        c.add("miss.true", 3)
        c.add("hit", 7)
        assert c.total("miss.") == 5
        assert c.total() == 12


class TestMissKind:
    def test_hit_is_not_miss(self):
        assert not MissKind.HIT.is_miss
        assert MissKind.COLD.is_miss

    def test_unnecessary_kinds(self):
        assert MissKind.FALSE_SHARING.is_unnecessary
        assert MissKind.CONSERVATIVE.is_unnecessary
        assert not MissKind.TRUE_SHARING.is_unnecessary
        assert not MissKind.COLD.is_unnecessary


class TestPercentile:
    def test_nearest_rank(self):
        """Rank ``ceil(q/100 * n)``: the median of 1..4 is 2, not 3."""
        assert percentile([4, 1, 3, 2], 50) == 2
        assert percentile([1, 2, 3, 4], 75) == 3
        assert percentile([1, 2, 3, 4], 76) == 4
        assert percentile(list(range(1, 101)), 99) == 99
        assert percentile([5.0], 99) == 5.0

    def test_bounds(self):
        assert percentile([3, 1, 2], 0) == 1
        assert percentile([3, 1, 2], 100) == 3
        assert percentile([], 50) == 0.0
