"""Violation replay engines (Section 4.1, "Simulator").

After a cluster's arrivals have been replayed through the scheduler, the
evaluation replays each placed VM's 5-minute utilization against the physical
resources the scheduler committed on its server and counts CPU and memory
violations.  Two interchangeable meters implement that accounting:

* :class:`ReferenceViolationMeter` -- the seed per-server, per-VM loop, kept
  verbatim as the differential-testing and benchmarking reference (the same
  pattern as ``ReferenceLoopScheduler`` on the placement side).
* :class:`VectorizedViolationMeter` -- the dense formulation: every placed
  VM's CPU/memory demand segments are materialized once and scatter-added
  into ``(n_servers, n_slots)`` demand matrices via a single ``bincount``
  over flat ``server * n_slots + slot`` indices; occupancy uses the
  interval difference-array trick; violations for all servers fall out of
  one broadcasted comparison against the per-server capacity vectors.

The vectorized meter also has a **chunked streaming mode**
(``VectorizedViolationMeter(chunk_slots=...)``, wired to
``SimulationConfig.replay_chunk_slots``): the slot axis is tiled into
bounded ``(n_servers, chunk_slots)`` blocks and each VM demand segment is
clipped to the chunk it lands in, so peak replay memory is
``O(n_servers * chunk_slots)`` instead of ``O(n_servers * n_slots)`` --
the difference between a day and a multi-week production trace.  Violation
*counts* are exact integers per chunk, and the per-slot float demand sums
are accumulated in the same segment order inside every chunk, so the
chunked mode is bitwise identical to the dense one (and therefore to the
reference), not merely close.

The meters never copy telemetry during the gather pass: each segment is a
*view* of the VM's ``UtilizationSeries`` buffer.  When the placed VMs are
row views over a columnar :class:`~repro.trace.store.TraceStore`, those
segments are slices of the store's flat per-resource buffer -- and when the
store was opened with ``mmap=True``, slices of the on-disk file.  Combined
with the chunked mode, that means a chunk only faults in the pages of the
slot range it is accumulating: a trace whose utilization buffer exceeds the
in-RAM budget replays end to end (size the tile with
:func:`chunk_slots_for_budget`).

The vectorized meter is arranged to be *bitwise* identical to the reference,
not merely close: segments are emitted in the same (server, VM) iteration
order the reference uses, and ``np.bincount`` accumulates its weights
sequentially in input order, so every per-slot float addition happens in the
same order as the reference loop's ``demand[lo:hi] += series * allocated``.
The differential tests (``tests/test_violation_equivalence.py`` and
``tests/test_chunked_replay.py``) assert exact equality of the resulting
:class:`ViolationStats` across meters and chunk sizes.
"""

# repro: hot-path  -- REP003: demand segments are gathered as views, never
# copied; justified exceptions are listed in analysis_baseline.json.

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import Resource
from repro.core.scheduler import ServerAccount, bulk_cpu_capacity_and_memory_backing
from repro.simulator.metrics import ViolationStats
from repro.trace.vm import VMRecord

#: Absolute tolerance on the memory-backing comparison (seed value).
MEMORY_EPSILON = 1e-6


class ReferenceViolationMeter:
    """The seed per-server, per-VM replay loop.

    Iterates every server, accumulates each placed VM's absolute CPU/memory
    demand into per-server slot arrays, and counts the occupied slots whose
    demand exceeds the committed capacity.  Kept alive for differential
    testing and benchmarking of :class:`VectorizedViolationMeter`.
    """

    def measure(self, servers: Iterable[ServerAccount],
                placed: Dict[str, VMRecord],
                start: int, end: int,
                cpu_contention_fraction: float) -> ViolationStats:
        n_slots = end - start
        observed: Dict[str, int] = {}
        cpu_counts: Dict[str, int] = {}
        mem_counts: Dict[str, int] = {}
        if n_slots <= 0:
            return ViolationStats.from_counts(observed, cpu_counts, mem_counts)

        for server in servers:
            if not server.plans:
                continue
            capacity_cpu = server.capacity[Resource.CPU]
            capacity_mem_backing = server.committed_memory_backing_gb
            cpu_demand = np.zeros(n_slots)
            mem_demand = np.zeros(n_slots)
            occupancy = np.zeros(n_slots, dtype=bool)
            for vm_id in server.plans:
                vm = placed.get(vm_id)
                if vm is None:
                    continue
                lo = max(vm.start_slot, start)
                hi = min(vm.end_slot, end)
                if hi <= lo:
                    continue
                # A series may cover less than [start_slot, end_slot), so the
                # destination slice must be clamped to the samples actually
                # returned, not to the VM lifetime.
                for series, demand, allocated in (
                        (vm.series(Resource.CPU), cpu_demand, vm.allocated(Resource.CPU)),
                        (vm.series(Resource.MEMORY), mem_demand, vm.allocated(Resource.MEMORY))):
                    seg_lo = max(lo, series.start_slot)
                    seg_hi = min(hi, series.end_slot)
                    if seg_hi > seg_lo:
                        demand[seg_lo - start:seg_hi - start] += (
                            series.slice_absolute(seg_lo, seg_hi) * allocated)
                occupancy[lo - start:hi - start] = True

            occupied = int(occupancy.sum())
            if occupied == 0:
                continue
            observed[server.server_id] = occupied
            cpu_counts[server.server_id] = int(np.count_nonzero(
                occupancy & (cpu_demand > cpu_contention_fraction * capacity_cpu)))
            # Memory contention: actual demand exceeds the physical memory the
            # scheduler committed for these VMs (PA pools plus the multiplexed
            # oversubscribed pool), i.e. accesses would fault to disk.
            mem_counts[server.server_id] = int(np.count_nonzero(
                occupancy & (mem_demand > capacity_mem_backing + MEMORY_EPSILON)))
        return ViolationStats.from_counts(observed, cpu_counts, mem_counts)


def _scatter_add(chunks: Sequence[np.ndarray], dest_starts: Sequence[int],
                 chunk_lengths: Sequence[int], allocations: Sequence[float],
                 size: int) -> np.ndarray:
    """Scatter-add variable-length demand segments into a flat accumulator.

    ``chunks[i]`` (fractional utilization samples, ``chunk_lengths[i]`` of
    them) is scaled by ``allocations[i]`` and added at flat indices
    ``dest_starts[i] .. dest_starts[i] + chunk_lengths[i]``.  ``np.bincount``
    adds its weights in input order, so keeping the segments in reference
    iteration order keeps the per-slot accumulation order -- and therefore
    the float results -- bitwise identical to the reference loop.
    """
    if not len(chunks):
        return np.zeros(size)
    lengths = np.asarray(chunk_lengths, dtype=np.intp)
    total = int(lengths.sum())
    values = np.concatenate(chunks) * np.repeat(
        np.asarray(allocations, dtype=np.float64), lengths)
    # Flat index of sample j of chunk i is dest_starts[i] + j.  Fold the
    # per-chunk base into one repeat: repeat(dest_start - chunk_offset) +
    # arange(total) where chunk_offset is the chunk's position in the
    # concatenated sample array.
    starts = np.asarray(dest_starts, dtype=np.intp)
    chunk_offsets = np.cumsum(lengths) - lengths
    indices = np.repeat(starts - chunk_offsets, lengths) + np.arange(total)
    return np.bincount(indices, weights=values, minlength=size)


class _SegmentTable:
    """Demand segments for one resource, in reference iteration order.

    ``values[i]`` is a *view* into VM ``i``'s utilization series (no copy);
    ``rows[i]``/``lo[i]``/``hi[i]`` give the segment's server row and its
    absolute slot range, and ``alloc[i]`` the VM's allocated resource.  The
    table is built once per measurement and then sliced per slot-chunk, so
    gathering cost is paid once regardless of the chunk count.
    """

    __slots__ = ("values", "rows", "lo", "hi", "alloc",
                 "_rows", "_lo", "_hi", "_alloc", "_min_lo", "_max_hi")

    def __init__(self) -> None:
        self.values: List[np.ndarray] = []
        self.rows: List[int] = []
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.alloc: List[float] = []

    def freeze(self) -> None:
        """Convert the metadata lists to arrays once gathering is done."""
        self._rows = np.asarray(self.rows, dtype=np.intp)
        self._lo = np.asarray(self.lo, dtype=np.intp)
        self._hi = np.asarray(self.hi, dtype=np.intp)
        self._alloc = np.asarray(self.alloc, dtype=np.float64)
        self._min_lo = int(self._lo.min()) if self._lo.size else 0
        self._max_hi = int(self._hi.max()) if self._hi.size else 0

    def demand(self, chunk_lo: int, chunk_hi: int, n_rows: int) -> np.ndarray:
        """(n_rows, chunk_width) demand accumulated over ``[chunk_lo, chunk_hi)``.

        Segments are clipped to the chunk; within the chunk they keep their
        gathering order, so each slot's float accumulation order -- and
        therefore its sum -- is identical to the dense single-chunk pass.
        """
        width = chunk_hi - chunk_lo
        size = n_rows * width
        if not self.values:
            return np.zeros((n_rows, width))
        if chunk_lo <= self._min_lo and chunk_hi >= self._max_hi:
            # Fast path (the dense mode): no segment needs clipping.
            dest = self._rows * width + (self._lo - chunk_lo)
            flat = _scatter_add(self.values, dest, self._hi - self._lo,
                                self._alloc, size)
            return flat.reshape(n_rows, width)
        inside = np.nonzero((self._lo < chunk_hi) & (self._hi > chunk_lo))[0]
        if inside.size == 0:
            return np.zeros((n_rows, width))
        clip_lo = np.maximum(self._lo[inside], chunk_lo)
        clip_hi = np.minimum(self._hi[inside], chunk_hi)
        dest = self._rows[inside] * width + (clip_lo - chunk_lo)
        values = self.values
        seg_lo = self._lo
        chunks = [values[i][cl - seg_lo[i]:ch - seg_lo[i]]
                  for i, cl, ch in zip(inside.tolist(), clip_lo.tolist(),
                                       clip_hi.tolist())]
        flat = _scatter_add(chunks, dest, clip_hi - clip_lo,
                            self._alloc[inside], size)
        return flat.reshape(n_rows, width)


def _chunk_ranges(start: int, end: int,
                  chunk_slots: Optional[int]) -> Iterator[Tuple[int, int]]:
    """Tile ``[start, end)`` into ``chunk_slots``-wide ranges (one tile when
    ``chunk_slots`` is None -- the dense mode)."""
    if chunk_slots is None:
        yield start, end
        return
    lo = start
    while lo < end:
        yield lo, min(lo + chunk_slots, end)
        lo += chunk_slots


class VectorizedViolationMeter:
    """Dense scatter-add violation replay, optionally chunked over slots.

    One Python pass gathers each placed VM's demand segments (raw views of
    the utilization series plus server-row/slot-range metadata); everything
    after that -- scaling, accumulation, occupancy, and the capacity
    comparisons for every server -- is a handful of whole-array numpy
    operations per slot-chunk.  With ``chunk_slots=None`` (the default) a
    single chunk covers the whole evaluation window: the dense mode.  With
    a bound, peak memory is ``O(n_servers * chunk_slots)`` while the counts
    stay bitwise identical (violations are integer counts per chunk, and
    per-slot demand sums keep their accumulation order inside each chunk).
    """

    def __init__(self, chunk_slots: Optional[int] = None):
        if chunk_slots is not None and chunk_slots < 1:
            raise ValueError(
                f"chunk_slots must be a positive slot count, got {chunk_slots}")
        self.chunk_slots = chunk_slots

    def measure(self, servers: Iterable[ServerAccount],
                placed: Dict[str, VMRecord],
                start: int, end: int,
                cpu_contention_fraction: float) -> ViolationStats:
        n_slots = end - start
        if n_slots <= 0:
            return ViolationStats.from_counts({}, {}, {})
        active = [server for server in servers if server.plans]
        if not active:
            return ViolationStats.from_counts({}, {}, {})

        capacity_cpu, backing = bulk_cpu_capacity_and_memory_backing(active)

        # One lean Python pass over the placed VMs gathers raw series slices
        # plus (row, slot-range) metadata; everything numeric happens
        # afterwards in whole-array operations.  The loop deliberately avoids
        # the per-call conveniences of the reference (``vm.series()``
        # lookups, ``vm.allocated()`` building a ResourceVector per call,
        # numpy scalar indexing): at 5k VMs those dominate the replay cost.
        cpu_table = _SegmentTable()
        mem_table = _SegmentTable()
        # Occupancy intervals (server row, absolute [lo, hi) slot range);
        # each chunk turns its clipped intervals into a difference array.
        occ_rows: List[int] = []
        occ_lo: List[int] = []
        occ_hi: List[int] = []

        cpu_resource, mem_resource = Resource.CPU, Resource.MEMORY
        placed_get = placed.get
        cpu_values_append = cpu_table.values.append
        cpu_rows_append = cpu_table.rows.append
        cpu_lo_append = cpu_table.lo.append
        cpu_hi_append = cpu_table.hi.append
        cpu_alloc_append = cpu_table.alloc.append
        mem_values_append = mem_table.values.append
        mem_rows_append = mem_table.rows.append
        mem_lo_append = mem_table.lo.append
        mem_hi_append = mem_table.hi.append
        mem_alloc_append = mem_table.alloc.append
        occ_rows_append = occ_rows.append
        occ_lo_append = occ_lo.append
        occ_hi_append = occ_hi.append
        for row, server in enumerate(active):
            for vm_id in server.plans:
                vm = placed_get(vm_id)
                if vm is None:
                    continue
                vm_start = vm.start_slot
                vm_end = vm.end_slot
                lo = vm_start if vm_start > start else start
                hi = vm_end if vm_end < end else end
                if hi <= lo:
                    continue
                utilization = vm.utilization
                config = vm.config
                try:
                    series = utilization[cpu_resource]
                    mem_series = utilization[mem_resource]
                except KeyError as exc:
                    raise KeyError(
                        f"VM {vm_id} has no utilization series for {exc.args[0]}"
                    ) from exc
                values = series.values
                series_start = series.start_slot
                series_end = series_start + values.size
                seg_lo = lo if lo > series_start else series_start
                seg_hi = hi if hi < series_end else series_end
                if seg_hi > seg_lo:
                    cpu_values_append(values[seg_lo - series_start:
                                             seg_hi - series_start])
                    cpu_rows_append(row)
                    cpu_lo_append(seg_lo)
                    cpu_hi_append(seg_hi)
                    cpu_alloc_append(config.cores)
                mem_values = mem_series.values
                mem_start = mem_series.start_slot
                if mem_start != series_start or mem_values.size != values.size:
                    # Memory telemetry covers a different window: recompute.
                    series_end = mem_start + mem_values.size
                    seg_lo = lo if lo > mem_start else mem_start
                    seg_hi = hi if hi < series_end else series_end
                if seg_hi > seg_lo:
                    mem_values_append(mem_values[seg_lo - mem_start:
                                                 seg_hi - mem_start])
                    mem_rows_append(row)
                    mem_lo_append(seg_lo)
                    mem_hi_append(seg_hi)
                    mem_alloc_append(config.memory_gb)
                occ_rows_append(row)
                occ_lo_append(lo)
                occ_hi_append(hi)

        if not occ_rows:
            # Servers hold plans but none of the placed VMs overlap the
            # evaluation period -- every row is unoccupied, as in the
            # reference loop's ``occupied == 0`` skip.
            return ViolationStats.from_counts({}, {}, {})

        cpu_table.freeze()
        mem_table.freeze()
        n_rows = len(active)
        occ_rows_arr = np.asarray(occ_rows, dtype=np.intp)
        occ_lo_arr = np.asarray(occ_lo, dtype=np.intp)
        occ_hi_arr = np.asarray(occ_hi, dtype=np.intp)

        cpu_threshold = cpu_contention_fraction * capacity_cpu
        mem_threshold = backing + MEMORY_EPSILON
        occupied_total = np.zeros(n_rows, dtype=np.int64)
        cpu_total = np.zeros(n_rows, dtype=np.int64)
        mem_total = np.zeros(n_rows, dtype=np.int64)

        for chunk_lo, chunk_hi in _chunk_ranges(start, end, self.chunk_slots):
            inside = np.nonzero((occ_lo_arr < chunk_hi)
                                & (occ_hi_arr > chunk_lo))[0]
            if inside.size == 0:
                # No VM occupies any slot of this chunk: demand may not be
                # inspected (the reference only counts occupied slots).
                continue
            width = chunk_hi - chunk_lo
            # Occupancy difference indices: +1 at interval start, -1 one
            # past the end; the running sum > 0 marks occupied slots.  Rows
            # are padded by one column to absorb intervals ending at the
            # chunk boundary.
            plus = (occ_rows_arr[inside] * (width + 1)
                    + np.maximum(occ_lo_arr[inside], chunk_lo) - chunk_lo)
            minus = (occ_rows_arr[inside] * (width + 1)
                     + np.minimum(occ_hi_arr[inside], chunk_hi) - chunk_lo)
            occ_size = n_rows * (width + 1)
            occ_delta = (np.bincount(plus, minlength=occ_size)
                         - np.bincount(minus, minlength=occ_size))
            occupancy = np.cumsum(
                occ_delta.reshape(n_rows, width + 1), axis=1)[:, :width] > 0

            cpu_demand = cpu_table.demand(chunk_lo, chunk_hi, n_rows)
            mem_demand = mem_table.demand(chunk_lo, chunk_hi, n_rows)
            cpu_total += np.count_nonzero(
                occupancy & (cpu_demand > cpu_threshold[:, None]), axis=1)
            mem_total += np.count_nonzero(
                occupancy & (mem_demand > mem_threshold[:, None]), axis=1)
            occupied_total += occupancy.sum(axis=1)

        observed: Dict[str, int] = {}
        cpu_counts: Dict[str, int] = {}
        mem_counts: Dict[str, int] = {}
        for row, server in enumerate(active):
            if occupied_total[row] == 0:
                continue
            observed[server.server_id] = int(occupied_total[row])
            cpu_counts[server.server_id] = int(cpu_total[row])
            mem_counts[server.server_id] = int(mem_total[row])
        return ViolationStats.from_counts(observed, cpu_counts, mem_counts)


#: Approximate transient bytes the chunked meter allocates per server-slot
#: of one tile: two float64 demand matrices, the int64 occupancy difference
#: array and its cumsum, plus the boolean masks of the threshold
#: comparisons.  Deliberately rounded *up* so a budget computed from it
#: holds with headroom.
CHUNK_BYTES_PER_SERVER_SLOT = 64


def chunk_slots_for_budget(n_servers: int, budget_bytes: int) -> int:
    """Widest chunk whose transient replay allocations fit *budget_bytes*.

    The chunked meter's peak scales with ``n_servers * chunk_slots`` (see
    :data:`CHUNK_BYTES_PER_SERVER_SLOT`); this inverts that relation so a
    caller with a RAM budget -- e.g. streaming an mmap-backed trace store
    much larger than memory -- can pick ``SimulationConfig.replay_chunk_slots``
    instead of guessing.  Always at least 1 (a one-slot tile is valid, just
    slow).
    """
    if n_servers <= 0:
        raise ValueError(f"n_servers must be positive, got {n_servers}")
    if budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
    return max(1, int(budget_bytes // (n_servers * CHUNK_BYTES_PER_SERVER_SLOT)))
