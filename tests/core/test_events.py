"""Event extraction from query signals: hysteresis thresholding, the
``max_gap`` merge rule, peak suppression, and the input guards."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Caldera, Event, detect_events, expected_count, find_peaks
from repro.errors import QueryError
from repro.streams import ENTERED_ROOM_QUERY, synthetic_stream


def test_hysteresis_opens_at_enter_and_closes_below_exit():
    signal = [(0, 0.1), (1, 0.35), (2, 0.2), (3, 0.16), (4, 0.1), (5, 0.2)]
    events = detect_events(signal, enter=0.3, exit=0.15)
    # 0.2 and 0.16 sit between exit and enter: the event stays open and
    # ends at the last timestep at or above exit.
    assert events == [Event(1, 3, 1, 0.35)]
    assert events[0].duration == 3


def test_event_open_at_end_of_signal_is_closed_there():
    events = detect_events([(0, 0.0), (1, 0.4), (2, 0.9)], enter=0.3)
    assert events == [Event(1, 2, 2, 0.9)]


def test_no_event_below_enter():
    assert detect_events([(0, 0.2), (1, 0.25)], enter=0.3, exit=0.1) == []


def test_default_exit_is_half_of_enter():
    events = detect_events([(0, 0.4), (1, 0.21), (2, 0.19)], enter=0.4)
    assert events == [Event(0, 1, 0, 0.4)]


@pytest.mark.parametrize("max_gap,expected", [
    (0, [Event(0, 0, 0, 0.5), Event(2, 2, 2, 0.5)]),
    (1, [Event(0, 2, 0, 0.5)]),
    (2, [Event(0, 2, 0, 0.5)]),
])
def test_missing_timestep_counts_like_explicit_zero(max_gap, expected):
    sparse = [(0, 0.5), (2, 0.5)]
    dense = [(0, 0.5), (1, 0.0), (2, 0.5)]
    assert detect_events(sparse, enter=0.3, max_gap=max_gap) == expected
    assert detect_events(dense, enter=0.3, max_gap=max_gap) == expected


def test_max_gap_bounds_the_run_below_exit():
    signal = [(0, 0.5), (1, 0.1), (2, 0.1), (3, 0.1), (5, 0.6)]
    # Four timesteps (1..4) below exit between the two excursions.
    assert detect_events(signal, enter=0.3, max_gap=3) == [
        Event(0, 0, 0, 0.5), Event(5, 5, 5, 0.6)]
    assert detect_events(signal, enter=0.3, max_gap=4) == [
        Event(0, 5, 5, 0.6)]


@settings(max_examples=60, deadline=None)
@given(
    points=st.dictionaries(st.integers(0, 40), st.floats(0.0, 1.0),
                           max_size=25),
    max_gap=st.integers(0, 5),
)
def test_sparse_and_densified_signals_give_the_same_events(points, max_gap):
    sparse = sorted(points.items())
    end = max(points, default=-1) + 1
    dense = [(t, points.get(t, 0.0)) for t in range(end)]
    assert detect_events(sparse, enter=0.3, max_gap=max_gap) == \
        detect_events(dense, enter=0.3, max_gap=max_gap)


def test_naive_and_btree_signals_give_the_same_events(tmp_path):
    """The naive scan emits every timestep, B+Tree only the candidate
    ones; both are the same signal, so they must give the same events."""
    stream = synthetic_stream("s", num_snippets=20, density=0.3, seed=3)
    with Caldera(str(tmp_path)) as db:
        db.archive(stream)
        naive = db.query("s", ENTERED_ROOM_QUERY, method="naive")
        btree = db.query("s", ENTERED_ROOM_QUERY, method="btree")
    assert len(naive.signal) == len(stream) > len(btree.signal)
    for max_gap in (0, 3, 30):
        want = detect_events(naive, enter=0.2, max_gap=max_gap)
        got = detect_events(btree, enter=0.2, max_gap=max_gap)
        assert want
        assert [(e.start, e.end, e.peak_time) for e in got] == \
            [(e.start, e.end, e.peak_time) for e in want]
        assert [e.peak_probability for e in got] == pytest.approx(
            [e.peak_probability for e in want], abs=1e-9)


def test_find_peaks_suppresses_close_lower_peaks():
    signal = [(0, 0.1), (1, 0.5), (2, 0.2), (3, 0.6), (4, 0.1), (10, 0.4)]
    assert find_peaks(signal) == [(1, 0.5), (3, 0.6), (10, 0.4)]
    assert find_peaks(signal, min_separation=3) == [(3, 0.6), (10, 0.4)]
    assert find_peaks(signal, floor=0.45) == [(1, 0.5), (3, 0.6)]
    assert find_peaks([]) == []
    with pytest.raises(QueryError):
        find_peaks(signal, min_separation=0)


def test_expected_count_sums_the_signal():
    assert expected_count([(0, 0.25), (3, 0.5), (7, 0.125)]) == 0.875
    assert expected_count([]) == 0.0


@pytest.mark.parametrize("enter,exit", [
    (0.0, None), (-0.1, None), (1.5, None), (0.5, 0.6), (0.5, -0.1),
])
def test_threshold_guards(enter, exit):
    with pytest.raises(QueryError):
        detect_events([(0, 0.5)], enter=enter, exit=exit)


@pytest.mark.parametrize("p", [-0.01, 1.01])
def test_out_of_range_probability_is_rejected(p):
    signal = [(0, 0.5), (1, p)]
    for fn in (detect_events, find_peaks, expected_count):
        with pytest.raises(QueryError):
            fn(signal)
