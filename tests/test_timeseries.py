"""Tests for utilization time series and time-window statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.timeseries import (
    SLOTS_PER_DAY,
    SLOTS_PER_HOUR,
    SLOTS_PER_WEEK,
    SWEEP_WINDOW_HOURS,
    TimeWindowConfig,
    UtilizationSeries,
    slots_for_days,
    slots_for_hours,
)


class TestTimeWindowConfig:
    def test_default_windows_per_day(self):
        assert TimeWindowConfig(4).windows_per_day == 6
        assert TimeWindowConfig(24).windows_per_day == 1
        assert TimeWindowConfig(1).windows_per_day == 24

    def test_invalid_window_length_rejected(self):
        with pytest.raises(ValueError):
            TimeWindowConfig(5)
        with pytest.raises(ValueError):
            TimeWindowConfig(0)

    def test_window_of_slot(self):
        config = TimeWindowConfig(8)
        assert config.window_of_slot(0) == 0
        assert config.window_of_slot(8 * SLOTS_PER_HOUR) == 1
        assert config.window_of_slot(SLOTS_PER_DAY + 1) == 0

    def test_labels(self):
        assert TimeWindowConfig(8).labels() == ["0-8hr", "8-16hr", "16-24hr"]


class TestUtilizationSeries:
    def test_basic_statistics(self):
        series = UtilizationSeries([0.1, 0.5, 0.9, 0.3], start_slot=10)
        assert series.maximum() == pytest.approx(0.9)
        assert series.minimum() == pytest.approx(0.1)
        assert series.mean() == pytest.approx(0.45)
        assert series.end_slot == 14

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            UtilizationSeries([0.5, 1.5])
        with pytest.raises(ValueError):
            UtilizationSeries([])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            UtilizationSeries([0.2, float("nan"), 0.5])

    def test_from_rows_checks_every_row_and_views_them(self):
        for bad in (1.5, -0.1, float("nan")):
            matrix = np.array([[0.2, 0.4], [0.3, bad]])
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                UtilizationSeries.from_rows(matrix, 5)
        with pytest.raises(ValueError):
            UtilizationSeries.from_rows(np.empty((2, 0)), 5)
        matrix = np.array([[0.2, 1.0 + 1e-10], [0.3, 0.6]])
        rows = UtilizationSeries.from_rows(matrix, 5)
        for row, values in zip(rows, ([0.2, 1.0 + 1e-10], [0.3, 0.6])):
            expected = UtilizationSeries(values, 5)
            assert row.start_slot == 5
            assert np.array_equal(row.values, expected.values)
        assert all(np.shares_memory(row.values, matrix) for row in rows)

    def test_value_at_and_covers(self):
        series = UtilizationSeries([0.2, 0.4], start_slot=5)
        assert series.value_at(6) == pytest.approx(0.4)
        assert series.covers_slot(5)
        assert not series.covers_slot(7)
        with pytest.raises(IndexError):
            series.value_at(7)

    def test_window_max_per_day_shape(self):
        # Two full days of samples.
        values = np.linspace(0, 1, 2 * SLOTS_PER_DAY)
        series = UtilizationSeries(values, start_slot=0)
        config = TimeWindowConfig(6)
        per_day = series.window_max_per_day(config)
        assert per_day.shape == (2, 4)
        assert not np.isnan(per_day).any()
        # Monotonically increasing series: last window of last day has the max.
        assert per_day[-1, -1] == pytest.approx(1.0)

    def test_lifetime_window_max_tracks_busiest_day(self):
        # Day 0 quiet, day 1 busy in window 0 only.
        day0 = np.full(SLOTS_PER_DAY, 0.1)
        day1 = np.full(SLOTS_PER_DAY, 0.1)
        day1[:TimeWindowConfig(8).slots_per_window] = 0.8
        series = UtilizationSeries(np.concatenate([day0, day1]), start_slot=0)
        lifetime = series.lifetime_window_max(TimeWindowConfig(8))
        assert lifetime[0] == pytest.approx(0.8)
        assert lifetime[1] == pytest.approx(0.1)

    def test_partial_window_alignment(self):
        # Series starting mid-day still aligns windows to wall-clock hours.
        start = 10 * SLOTS_PER_HOUR
        series = UtilizationSeries(np.full(SLOTS_PER_HOUR * 6, 0.5), start_slot=start)
        per_day = series.window_max_per_day(TimeWindowConfig(8))
        # Covers windows 1 (8-16) and 2 (16-24) of day 0 only.
        assert per_day.shape == (1, 3)
        assert np.isnan(per_day[0, 0])
        assert per_day[0, 1] == pytest.approx(0.5)

    def test_peaks_and_valleys_detection(self):
        # Clear peak in the 8-16 h window every day.
        day = np.full(SLOTS_PER_DAY, 0.1)
        day[8 * SLOTS_PER_HOUR:16 * SLOTS_PER_HOUR] = 0.7
        series = UtilizationSeries(np.tile(day, 2), start_slot=0)
        result = series.daily_peaks_and_valleys(TimeWindowConfig(8))
        assert len(result) == 2
        for _day, peaks, valleys in result:
            assert peaks == [1]
            assert 1 not in valleys and valleys

    def test_flat_series_has_no_peaks(self):
        series = UtilizationSeries(np.full(SLOTS_PER_DAY, 0.4), start_slot=0)
        result = series.daily_peaks_and_valleys(TimeWindowConfig(8))
        assert result[0][1] == [] and result[0][2] == []

    def test_peak_consistency_zero_for_identical_days(self):
        day = np.clip(np.sin(np.linspace(0, 3, SLOTS_PER_DAY)) * 0.4 + 0.4, 0, 1)
        series = UtilizationSeries(np.tile(day, 3), start_slot=0)
        diffs = series.peak_consistency(TimeWindowConfig(6))
        assert diffs.size > 0
        assert np.all(diffs < 1e-9)

    def test_slice_absolute_clipping(self):
        series = UtilizationSeries([0.1, 0.2, 0.3], start_slot=100)
        assert series.slice_absolute(0, 101).tolist() == [0.1]
        assert series.slice_absolute(102, 200).tolist() == [pytest.approx(0.3)]
        assert series.slice_absolute(200, 300).size == 0


def test_slot_conversions():
    assert slots_for_hours(1) == SLOTS_PER_HOUR
    assert slots_for_days(2) == 2 * SLOTS_PER_DAY


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=400),
       start=st.integers(min_value=0, max_value=SLOTS_PER_DAY))
def test_percentile_bounded_by_min_max(values, start):
    series = UtilizationSeries(values, start_slot=start)
    p95 = series.percentile(95)
    assert series.minimum() - 1e-12 <= p95 <= series.maximum() + 1e-12


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=SLOTS_PER_DAY, max_size=SLOTS_PER_DAY))
def test_lifetime_window_max_dominates_window_percentiles(values):
    series = UtilizationSeries(values, start_slot=0)
    config = TimeWindowConfig(4)
    maxima = series.lifetime_window_max(config)
    p95 = series.lifetime_window_percentile(config, 95)
    mask = ~np.isnan(maxima)
    assert np.all(maxima[mask] + 1e-9 >= p95[mask])


def _reference_lifetime_window_max(series, config):
    """The loop the day-cube reduction replaced: one max per (day, window)
    from ``_window_groups``, folded per window-of-day."""
    out = np.full(config.windows_per_day, -np.inf)
    for _day, window, samples in series._window_groups(config):
        out[window] = max(out[window], samples.max())
    out[out == -np.inf] = np.nan
    return out


def _reference_lifetime_window_percentile(series, config, pct):
    """The loop the day-cube percentile replaced: concatenate each
    window-of-day's per-day samples, then one ``np.percentile``."""
    buckets = [[] for _ in range(config.windows_per_day)]
    for _day, window, samples in series._window_groups(config):
        buckets[window].append(samples)
    out = np.full(config.windows_per_day, np.nan)
    for window, chunks in enumerate(buckets):
        if chunks:
            out[window] = np.percentile(np.concatenate(chunks), pct)
    return out


@settings(max_examples=60, deadline=None)
@given(start=st.integers(min_value=0, max_value=2 * SLOTS_PER_DAY),
       length=st.one_of(st.integers(min_value=1, max_value=2 * SLOTS_PER_HOUR),
                        st.integers(min_value=1, max_value=3 * SLOTS_PER_WEEK)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       tied=st.booleans(),
       pct=st.one_of(st.sampled_from([0.0, 50.0, 95.0, 100.0]),
                     st.floats(min_value=0.0, max_value=100.0)))
def test_lifetime_window_stats_match_window_group_loop(start, length, seed,
                                                       tied, pct):
    """The day-cube reductions equal the ``_window_groups`` loops bit for
    bit, for any start, partial first and last days, lifetimes shorter than
    one window, and every swept window length."""
    values = np.random.default_rng(seed).random(length)
    if tied:
        values = np.round(values * 20) / 20
    series = UtilizationSeries.from_validated(values, start)
    for hours in SWEEP_WINDOW_HOURS:
        config = TimeWindowConfig(hours)
        maxima = series.lifetime_window_max(config)
        expected = _reference_lifetime_window_max(series, config)
        assert maxima.dtype == expected.dtype == np.float64
        assert np.array_equal(maxima, expected, equal_nan=True)
        percentiles = series.lifetime_window_percentile(config, pct)
        expected = _reference_lifetime_window_percentile(series, config, pct)
        assert percentiles.dtype == expected.dtype == np.float64
        assert np.array_equal(percentiles, expected, equal_nan=True)
