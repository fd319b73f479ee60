"""``detect_shift`` ≡ the reference that re-sorts every trailing window.

The detector keeps, per key, the last ``baseline_window`` accepted
values both in arrival order and sorted, and takes the median off the
sorted list; ``shift.py`` keeps every accepted value and sorts the
trailing window again for every sample.  Over generated series — both
directions, absolute floors, many equal values (ints and floats that
compare equal), equal timestamps across keys, ``min_baseline_samples``
below, at and above the window — the anomalies are the same, down to
the baseline's type.

Mutation-checked (one run each): removing the newest instead of the
oldest value from the sorted window, ``bisect_right`` for the removal
(the newest of equal values goes instead of the oldest: a ``3`` /
``3.0`` baseline changes type), and counting the window's length
instead of the accepted samples against ``min_baseline_samples`` all
fail ``test_the_anomalies_equal_the_reference``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge.detectors import detect_shift

from .shift import detect_shift as reference

values = st.one_of(
    st.integers(0, 4),  # few distinct values: ties
    st.sampled_from([1.0, 2.0, 3.0, -0.0, 0.0]),  # equal to the ints
    st.integers(-50, 50),
    st.floats(-1e3, 1e3, allow_nan=False),
)

samples = st.lists(
    st.tuples(
        st.integers(0, 40).map(float),  # equal stamps across keys
        st.sampled_from(["a", "b", ("c", "d")]),
        values,
    ),
    max_size=120,
)


def outcome(anomalies):
    return [
        (a.timestamp, a.key, a.value, a.baseline, type(a.baseline)) for a in anomalies
    ]


@settings(max_examples=400, deadline=None)
@given(
    samples,
    st.sampled_from(["increase", "decrease"]),
    st.sampled_from([1.01, 1.5, 2.0, 3.0]),
    st.integers(1, 14),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.5, 5.0]),
)
def test_the_anomalies_equal_the_reference(
    drawn, direction, factor, min_samples, window, floor
):
    args = (direction, factor, min_samples, window, floor)
    assert outcome(detect_shift(drawn, *args)) == outcome(reference(drawn, *args))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([10, 10.0, 11, 9.0, 30]), min_size=30, max_size=200))
def test_a_long_series_slides_the_window(series):
    drawn = [(float(i), "k", value) for i, value in enumerate(series)]
    for direction in ("increase", "decrease"):
        args = (direction, 1.5, 3, 12, 0.0)
        assert outcome(detect_shift(drawn, *args)) == outcome(reference(drawn, *args))


def test_a_window_needs_a_sample():
    with pytest.raises(ValueError):
        detect_shift([], "increase", factor=2.0, baseline_window=0)
