"""Tests for flap pairing, anomaly detection and interval merging."""

import statistics

from hypothesis import given, strategies as st

from repro.core.knowledge.detectors import (
    TimedPoint,
    detect_shift,
    merge_intervals,
    pair_flaps,
)

import pytest


def P(t, key="k"):
    return TimedPoint(t, key)


class TestPairFlaps:
    def test_simple_pair(self):
        pairs = pair_flaps([P(100)], [P(105)], window_seconds=600)
        assert [(d.timestamp, u.timestamp) for d, u in pairs] == [(100, 105)]

    def test_up_outside_window_not_paired(self):
        assert pair_flaps([P(100)], [P(800)], window_seconds=600) == []

    def test_up_before_down_not_paired(self):
        assert pair_flaps([P(100)], [P(50)], window_seconds=600) == []

    def test_each_up_consumed_once(self):
        pairs = pair_flaps([P(100), P(110)], [P(105)], window_seconds=600)
        assert len(pairs) == 1
        assert pairs[0][0].timestamp == 100

    def test_two_full_flaps(self):
        pairs = pair_flaps([P(100), P(200)], [P(110), P(210)], window_seconds=600)
        assert [(d.timestamp, u.timestamp) for d, u in pairs] == [(100, 110), (200, 210)]

    def test_keys_kept_separate(self):
        pairs = pair_flaps([P(100, "a")], [P(105, "b")], window_seconds=600)
        assert pairs == []

    def test_unsorted_input(self):
        pairs = pair_flaps([P(200), P(100)], [P(210), P(110)], window_seconds=600)
        assert [(d.timestamp, u.timestamp) for d, u in pairs] == [(100, 110), (200, 210)]

    @given(
        st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), max_size=30),
        st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), max_size=30),
        st.floats(min_value=1, max_value=1e4, allow_nan=False),
    )
    def test_property_pairs_are_valid(self, downs, ups, window):
        pairs = pair_flaps([P(t) for t in downs], [P(t) for t in ups], window)
        used_ups = [u.timestamp for _, u in pairs]
        # every pair is ordered and within the window
        for down, up in pairs:
            assert down.timestamp <= up.timestamp <= down.timestamp + window
        # no up consumed twice
        assert len(used_ups) == len(set(zip(used_ups, range(len(used_ups))))) or (
            sorted(used_ups) == used_ups
        )
        assert len(pairs) <= min(len(downs), len(ups))


class TestDetectShift:
    def samples(self, values, key="pair"):
        return [(float(i * 300), key, v) for i, v in enumerate(values)]

    def test_increase_detected(self):
        anomalies = detect_shift(
            self.samples([10, 10, 10, 10, 30]), "increase", factor=1.5
        )
        assert len(anomalies) == 1
        assert anomalies[0].value == 30
        assert anomalies[0].baseline == 10

    def test_decrease_detected(self):
        anomalies = detect_shift(
            self.samples([100, 100, 100, 100, 40]), "decrease", factor=1.5
        )
        assert len(anomalies) == 1

    def test_stable_series_quiet(self):
        assert detect_shift(self.samples([10] * 20), "increase", factor=1.5) == []

    def test_needs_baseline_history(self):
        # too few prior samples: no detection possible
        assert detect_shift(self.samples([10, 100]), "increase", factor=1.5) == []

    def test_absolute_floor_suppresses_zero_baseline_noise(self):
        anomalies = detect_shift(
            self.samples([0.0, 0.0, 0.0, 0.0, 0.4]),
            "increase",
            factor=1.5,
            absolute_floor=0.5,
        )
        assert anomalies == []
        anomalies = detect_shift(
            self.samples([0.0, 0.0, 0.0, 0.0, 0.6]),
            "increase",
            factor=1.5,
            absolute_floor=0.5,
        )
        assert len(anomalies) == 1

    def test_anomalies_do_not_shift_baseline(self):
        # spike then return: second normal sample must not alarm
        values = [10, 10, 10, 10, 50, 10, 10]
        anomalies = detect_shift(self.samples(values), "increase", factor=1.5)
        assert len(anomalies) == 1

    def test_per_key_baselines_independent(self):
        samples = self.samples([10, 10, 10, 10, 30], key="a") + self.samples(
            [30, 30, 30, 30, 30], key="b"
        )
        anomalies = detect_shift(samples, "increase", factor=1.5)
        assert [a.key for a in anomalies] == ["a"]

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            detect_shift([], "sideways", factor=2.0)

    def test_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            detect_shift([], "increase", factor=1.0)

    def test_baseline_needs_a_sample(self):
        with pytest.raises(ValueError):
            detect_shift([], "increase", factor=2.0, min_baseline_samples=0)

    @given(
        st.lists(
            st.one_of(
                st.integers(-5, 5),  # few distinct values: ties
                st.integers(-10**6, 10**6),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=3,
            max_size=20,
        ),
        st.integers(3, 12),
    )
    def test_baseline_is_the_trailing_median(self, values, window):
        # a floor no prefix value clears keeps every one of them in the
        # history; the closing spike clears it and reports its baseline
        spike = 1e15
        anomalies = detect_shift(
            self.samples(values + [spike]), "increase", factor=2.0,
            baseline_window=window, absolute_floor=1e12,
        )
        assert [a.value for a in anomalies] == [spike]
        expected = statistics.median(values[-window:])
        assert anomalies[0].baseline == expected
        assert type(anomalies[0].baseline) is type(expected)


class TestMergeIntervals:
    def test_merge_close_points(self):
        assert merge_intervals([1, 2, 3, 50], gap_seconds=5) == [(1, 3), (50, 50)]

    def test_empty(self):
        assert merge_intervals([], gap_seconds=5) == []

    def test_unsorted(self):
        assert merge_intervals([50, 1, 3, 2], gap_seconds=5) == [(1, 3), (50, 50)]

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50),
        st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
    )
    def test_property_intervals_cover_all_points(self, points, gap):
        intervals = merge_intervals(points, gap)
        for point in points:
            assert any(lo <= point <= hi for lo, hi in intervals)
        # intervals are disjoint and separated by more than gap
        for (a_lo, a_hi), (b_lo, b_hi) in zip(intervals, intervals[1:]):
            assert b_lo - a_hi > gap
