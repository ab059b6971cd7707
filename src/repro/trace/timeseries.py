"""Utilization time series at 5-minute granularity.

The paper's telemetry records, for each VM and resource, the *maximum*
utilization observed in every 5-minute interval.  :class:`UtilizationSeries`
wraps such a series together with the helpers the characterization and
scheduling code need: percentiles, per-time-window maxima, per-day peaks and
valleys, and utilization ranges.

All utilization values are fractions of the VM's allocated amount for the
resource, in ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: Telemetry interval used by the platform (the paper's long-term storage
#: default).
MINUTES_PER_SLOT = 5
SLOTS_PER_HOUR = 60 // MINUTES_PER_SLOT
SLOTS_PER_DAY = 24 * SLOTS_PER_HOUR
SLOTS_PER_WEEK = 7 * SLOTS_PER_DAY


def slots_for_hours(hours: float) -> int:
    """Number of 5-minute slots in *hours* (rounded to nearest slot)."""
    return int(round(hours * SLOTS_PER_HOUR))


def slots_for_days(days: float) -> int:
    """Number of 5-minute slots in *days*."""
    return int(round(days * SLOTS_PER_DAY))


def slot_to_day(slot: int) -> int:
    """Day index (0-based) of an absolute slot."""
    return slot // SLOTS_PER_DAY


@dataclass(frozen=True)
class TimeWindowConfig:
    """A division of the day into equal-length windows.

    The paper evaluates window lengths from 1 hour (24 windows/day) to
    24 hours (1 window/day); Coach's default is six 4-hour windows.
    """

    window_hours: int

    def __post_init__(self) -> None:
        if self.window_hours <= 0 or 24 % self.window_hours != 0:
            raise ValueError(
                f"window_hours must divide 24 evenly, got {self.window_hours}"
            )

    @property
    def windows_per_day(self) -> int:
        return 24 // self.window_hours

    @property
    def slots_per_window(self) -> int:
        return self.window_hours * SLOTS_PER_HOUR

    def window_of_slot(self, slot: int) -> int:
        """Window index (within the day) containing an absolute slot."""
        return (slot % SLOTS_PER_DAY) // self.slots_per_window

    def label(self, window_index: int) -> str:
        start = window_index * self.window_hours
        return f"{start}-{start + self.window_hours}hr"

    def labels(self) -> List[str]:
        return [self.label(i) for i in range(self.windows_per_day)]


#: Coach's default configuration: six 4-hour windows (Section 3.3).
DEFAULT_WINDOWS = TimeWindowConfig(window_hours=4)

#: Window lengths swept in Figures 9-11 and 17.
SWEEP_WINDOW_HOURS: Tuple[int, ...] = (1, 2, 3, 4, 6, 12, 24)


#: Most samples one pass of :func:`window_percentiles` sorts at once: 1 MiB
#: of float64, 455 days of slots.  A pass holds at least one series, so a
#: series that spans more days gets a pass of its own.
WINDOW_PERCENTILE_PASS_SAMPLES = 1 << 17


def percentile_ranks(counts, pct: float) -> tuple:
    """``np.percentile``'s (method ``"linear"``) neighbour ranks and weight
    for samples of *counts* values each (an int or an int array, >= 1).

    Returns ``(previous, next, gamma)``: the 0-based sorted ranks around
    the virtual rank ``(counts - 1) * pct / 100`` (``next`` clamped to the
    last rank) and the weight ``virtual - previous``.  For *pct* in
    ``[0, 100]`` these are the ranks and the weight numpy reads.
    """
    virtual = (counts - 1) * np.true_divide(pct, 100)
    previous = np.floor(virtual)
    nxt = np.minimum(previous + 1, counts - 1)
    return previous.astype(np.intp), nxt.astype(np.intp), virtual - previous


def percentile_lerp(left: np.ndarray, right: np.ndarray, gamma) -> np.ndarray:
    """``np.percentile``'s interpolation between the order statistics at
    the ranks :func:`percentile_ranks` returns, step for step:
    ``left + diff * gamma`` below ``gamma = 0.5`` and
    ``right - diff * (1 - gamma)`` at or above, so float64 results are
    bitwise numpy's."""
    diff = right - left
    return np.where(gamma >= 0.5, right - diff * (1 - gamma),
                    left + diff * gamma)


def _check_unit_range(values: np.ndarray) -> None:
    """Raise unless every value lies in ``[0, 1]``, give or take 1e-9."""
    # min and max propagate NaN, which then fails both comparisons.
    if not (values.min() >= -1e-9 and values.max() <= 1.0 + 1e-9):
        raise ValueError("utilization values must lie in [0, 1]")


class UtilizationSeries:
    """Per-slot maximum utilization of one resource over a VM's lifetime.

    Parameters
    ----------
    values:
        Utilization fractions in ``[0, 1]``, one per 5-minute slot.
    start_slot:
        Absolute slot (since the beginning of the trace) at which the series
        starts.  Needed so windows align to wall-clock hours of the day.
    """

    __slots__ = ("values", "start_slot")

    def __init__(self, values: Sequence[float] | np.ndarray, start_slot: int = 0):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("utilization series must be one-dimensional")
        if arr.size == 0:
            raise ValueError("utilization series must not be empty")
        _check_unit_range(arr)
        self.values = np.clip(arr, 0.0, 1.0)
        self.start_slot = int(start_slot)

    @classmethod
    def from_rows(cls, matrix: np.ndarray, start_slot: int) -> List["UtilizationSeries"]:
        """One series per row of a float64 ``(n_series, n_slots)`` matrix,
        all starting at *start_slot*.

        The same as ``[UtilizationSeries(row, start_slot) for row in
        matrix]``, but the range check runs once over the whole matrix, the
        matrix is clipped in place, and each series is a zero-copy view of
        its row.
        """
        if matrix.dtype != np.float64 or matrix.ndim != 2 or matrix.shape[1] == 0:
            raise ValueError("from_rows needs a float64 (n_series, n_slots) "
                             "matrix with n_slots >= 1")
        _check_unit_range(matrix)
        np.clip(matrix, 0.0, 1.0, out=matrix)
        return [cls.from_validated(row, start_slot) for row in matrix]

    @classmethod
    def from_validated(cls, values: np.ndarray, start_slot: int) -> "UtilizationSeries":
        """Wrap an already-validated array without copying or clipping.

        Two callers go through here.  The trace store's row views pass a
        slice of the shared (possibly memory-mapped) telemetry buffer, and
        copying or clipping it would defeat the zero-copy layout;
        :meth:`from_rows` passes the rows of a matrix it has just checked.
        Callers guarantee the array is one-dimensional, non-empty, float64
        and already in ``[0, 1]``.  That holds for any buffer built from
        ``UtilizationSeries`` objects, since ``__init__`` and
        :meth:`from_rows` enforced it on the way in.  For a store read from
        disk, ``TraceStore.open`` checks each buffer's dtype and length but
        not its values, so a sample damaged on disk reaches the row views
        unchecked.
        """
        series = cls.__new__(cls)
        series.values = values
        series.start_slot = int(start_slot)
        return series

    # ------------------------------------------------------------------ #
    # Basic statistics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end_slot(self) -> int:
        """Absolute slot one past the last sample."""
        return self.start_slot + len(self)

    def mean(self) -> float:
        return float(self.values.mean())

    def maximum(self) -> float:
        return float(self.values.max())

    def minimum(self) -> float:
        return float(self.values.min())

    def percentile(self, pct: float) -> float:
        """Percentile of the per-slot maxima (e.g. ``percentile(95)``)."""
        return float(np.percentile(self.values, pct))

    def utilization_range(self, upper: float = 95.0, lower: float = 5.0) -> float:
        """The paper's utilization range: P-upper minus P-lower."""
        return self.percentile(upper) - self.percentile(lower)

    def value_at(self, absolute_slot: int) -> float:
        """Utilization at an absolute trace slot (must be within lifetime)."""
        idx = absolute_slot - self.start_slot
        if idx < 0 or idx >= len(self):
            raise IndexError(
                f"slot {absolute_slot} outside series [{self.start_slot}, {self.end_slot})"
            )
        return float(self.values[idx])

    def covers_slot(self, absolute_slot: int) -> bool:
        return self.start_slot <= absolute_slot < self.end_slot

    def slice_absolute(self, start: int, stop: int) -> np.ndarray:
        """Values for absolute slots ``[start, stop)`` clipped to the lifetime."""
        lo = max(start, self.start_slot) - self.start_slot
        hi = min(stop, self.end_slot) - self.start_slot
        if hi <= lo:
            return np.empty(0, dtype=np.float64)
        return self.values[lo:hi]

    # ------------------------------------------------------------------ #
    # Time-window statistics
    # ------------------------------------------------------------------ #
    def _window_groups(self, config: TimeWindowConfig) -> Iterable[Tuple[int, int, np.ndarray]]:
        """Yield ``(day, window_index, samples)`` for every window overlapping
        the lifetime that has at least one sample."""
        slots_per_window = config.slots_per_window
        first_window_start = (self.start_slot // slots_per_window) * slots_per_window
        for window_start in range(first_window_start, self.end_slot, slots_per_window):
            samples = self.slice_absolute(window_start, window_start + slots_per_window)
            if samples.size == 0:
                continue
            yield slot_to_day(window_start), config.window_of_slot(window_start), samples

    def window_max_per_day(self, config: TimeWindowConfig) -> np.ndarray:
        """Maximum utilization per (day, window).

        Returns an array of shape ``(n_days, windows_per_day)`` covering the
        days the VM overlaps, with ``nan`` for windows without samples.
        """
        first_day = slot_to_day(self.start_slot)
        last_day = slot_to_day(self.end_slot - 1)
        n_days = last_day - first_day + 1
        out = np.full((n_days, config.windows_per_day), np.nan)
        for day, window, samples in self._window_groups(config):
            out[day - first_day, window] = samples.max()
        return out

    def _day_cube(self, config: TimeWindowConfig) -> np.ndarray:
        """The series laid on whole days: shape ``(n_days, windows_per_day,
        slots_per_window)`` over the days the VM overlaps, with ``-inf`` in
        the slots before its start and after its end."""
        first_day = slot_to_day(self.start_slot)
        n_days = slot_to_day(self.end_slot - 1) - first_day + 1
        padded = np.full(n_days * SLOTS_PER_DAY, -np.inf)
        offset = self.start_slot - first_day * SLOTS_PER_DAY
        padded[offset:offset + len(self)] = self.values
        return padded.reshape(n_days, config.windows_per_day, config.slots_per_window)

    def lifetime_window_max(self, config: TimeWindowConfig) -> np.ndarray:
        """Maximum utilization per window-of-day across the whole lifetime.

        This is the "lifetime time window max" of Figure 7: for each of the
        day's windows, the largest utilization the VM ever reached in that
        window on any day.  Windows never observed are ``nan``.

        One reduction over the day cube; equal to the per-day loop
        (:meth:`window_max_per_day`, then a max over days) bit for bit,
        because a maximum does not depend on the order it is taken in.
        """
        result = self._day_cube(config).max(axis=(0, 2))
        result[result == -np.inf] = np.nan
        return result

    def lifetime_window_percentile(self, config: TimeWindowConfig, pct: float) -> np.ndarray:
        """Percentile of per-slot maxima per window-of-day over the lifetime.

        One ``np.percentile`` per window-of-day over that window's samples
        from every day.  ``np.percentile`` depends only on the multiset of
        its input, so this equals concatenating the window's per-day
        samples first (the :meth:`_window_groups` order) bit for bit.
        """
        cube = self._day_cube(config)
        out = np.full(config.windows_per_day, np.nan)
        for window in range(config.windows_per_day):
            samples = cube[:, window, :]
            samples = samples[samples != -np.inf]
            if samples.size:
                out[window] = np.percentile(samples, pct)
        return out

    # ------------------------------------------------------------------ #
    # Peaks and valleys (Section 2.3)
    # ------------------------------------------------------------------ #
    def daily_peaks_and_valleys(
        self, config: TimeWindowConfig, threshold: float = 0.05
    ) -> List[Tuple[int, List[int], List[int]]]:
        """Identify peak and valley windows for each day of the lifetime.

        Following the paper: a VM has a peak (valley) on a day if the spread
        between window maxima that day is at least *threshold* (5%); every
        window whose maximum equals the day's maximum (minimum) is a peak
        (valley).  Maxima are compared after rounding to 5% buckets, matching
        the paper's bucketing.

        Returns a list of ``(day_index, peak_windows, valley_windows)``;
        days without a peak/valley report empty lists.
        """
        per_day = self.window_max_per_day(config)
        first_day = slot_to_day(self.start_slot)
        results: List[Tuple[int, List[int], List[int]]] = []
        for offset in range(per_day.shape[0]):
            row = per_day[offset]
            valid = ~np.isnan(row)
            if valid.sum() == 0:
                results.append((first_day + offset, [], []))
                continue
            bucketed = np.round(row[valid] / threshold) * threshold
            spread = bucketed.max() - bucketed.min()
            if spread < threshold - 1e-12:
                results.append((first_day + offset, [], []))
                continue
            indices = np.flatnonzero(valid)
            peaks = [int(i) for i in indices[np.isclose(
                np.round(row[indices] / threshold) * threshold, bucketed.max())]]
            valleys = [int(i) for i in indices[np.isclose(
                np.round(row[indices] / threshold) * threshold, bucketed.min())]]
            results.append((first_day + offset, peaks, valleys))
        return results

    def peak_consistency(self, config: TimeWindowConfig) -> np.ndarray:
        """Absolute day-over-day differences in per-window maxima.

        Used by Figure 9: for every window-of-day and every pair of
        consecutive days where both have samples, the absolute difference in
        the window's maximum utilization.  Returns a flat array (possibly
        empty for one-day VMs).
        """
        per_day = self.window_max_per_day(config)
        if per_day.shape[0] < 2:
            return np.empty(0)
        diffs = np.abs(np.diff(per_day, axis=0))
        return diffs[~np.isnan(diffs)]

    def __repr__(self) -> str:
        return (
            f"UtilizationSeries(n={len(self)}, start_slot={self.start_slot}, "
            f"mean={self.mean():.3f}, max={self.maximum():.3f})"
        )


def window_percentiles(series: Sequence[UtilizationSeries],
                       config: TimeWindowConfig, pct: float) -> np.ndarray:
    """:meth:`UtilizationSeries.lifetime_window_percentile` of many series.

    Returns ``(len(series), windows_per_day)``; row ``i`` equals
    ``series[i].lifetime_window_percentile(config, pct)`` bit for bit
    (``nan`` for a window without samples).  Series that span the same
    number of days share one sort.  A pass lays each series on whole days
    the way :meth:`UtilizationSeries._day_cube` does, padded with
    ``-inf``, but window by window: row ``(i, w)`` holds every slot of
    window ``w`` on every day.  One sort orders all rows, the padding
    first, and each row's neighbour ranks are read past its padding.
    ``np.percentile`` depends only on the multiset of its input, and a
    sort puts the same values at those ranks as numpy's partition, so
    :func:`percentile_lerp` returns numpy's values (a series holding both
    ``0.0`` and ``-0.0`` may differ in the sign of a zero, which numpy
    takes from the input order).  A pass holds at most
    :data:`WINDOW_PERCENTILE_PASS_SAMPLES` samples, or one series.
    """
    if not 0 <= pct <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    n_windows = config.windows_per_day
    slots_per_window = config.slots_per_window
    out = np.full((len(series), n_windows), np.nan)
    first_days = [slot_to_day(s.start_slot) for s in series]
    spans = np.array([slot_to_day(s.end_slot - 1) - first + 1
                      for s, first in zip(series, first_days)], dtype=np.intp)
    order = np.argsort(spans, kind="stable")
    bounds = np.flatnonzero(np.diff(spans[order])) + 1
    for group in np.split(order, bounds):
        if group.size == 0:
            continue
        n_days = int(spans[group[0]])
        day_slots = n_days * SLOTS_PER_DAY
        row_width = n_days * slots_per_window
        # Where each slot of the padded day layout lands in its window's row.
        slot = np.arange(day_slots)
        position = (((slot % SLOTS_PER_DAY) // slots_per_window) * row_width
                    + (slot // SLOTS_PER_DAY) * slots_per_window
                    + slot % slots_per_window)
        per_pass = max(1, WINDOW_PERCENTILE_PASS_SAMPLES // day_slots)
        for begin in range(0, group.size, per_pass):
            members = group[begin:begin + per_pass]
            cube = np.full((members.size, day_slots), -np.inf)
            for row, index in enumerate(members):
                values = series[index].values
                offset = (series[index].start_slot
                          - first_days[index] * SLOTS_PER_DAY)
                cube[row, position[offset:offset + values.size]] = values
            cube = cube.reshape(members.size, n_windows, row_width)
            counts = np.count_nonzero(cube != -np.inf, axis=2)
            cube.sort(axis=2)
            rows, windows = np.nonzero(counts)
            counts = counts[rows, windows]
            padding = row_width - counts
            previous, nxt, gamma = percentile_ranks(counts, pct)
            out[members[rows], windows] = percentile_lerp(
                cube[rows, windows, padding + previous],
                cube[rows, windows, padding + nxt], gamma)
    return out
