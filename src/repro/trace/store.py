"""Columnar trace storage: struct-of-arrays VM metadata plus flat telemetry.

A list of ``VMRecord`` objects, each holding a
``Dict[Resource, UtilizationSeries]``, is convenient for per-VM callers but
expensive at scale: filtering walks Python objects, every sweep worker
would unpickle its own full copy of the telemetry, and the whole trace
must live in RAM to be replayed.  :class:`TraceStore` is the dense
formulation (the same move :class:`~repro.core.scheduler.ClusterLedger`
made for scheduling state and
:class:`~repro.simulator.replay.VectorizedViolationMeter` for contention
accounting), and it is the one layout every :class:`Trace` has:

* all VM metadata lives in parallel numpy columns (``start_slot``,
  ``end_slot``, per-resource allocations, cluster/config indices,
  long-running flags), so ``Trace.filter`` / ``alive_at`` / ``arriving_in``
  become whole-column comparisons instead of Python loops;
* all telemetry for one resource lives in a single contiguous flat buffer,
  with an ``(n_vms + 1,)`` offsets array mapping VM ``i`` to its samples
  ``buffer[offsets[i]:offsets[i + 1]]``.

Per-VM callers keep working unchanged: :meth:`TraceStore.as_trace`
materializes ordinary :class:`VMRecord` objects whose ``UtilizationSeries``
*views* slice the shared buffer without copying (the ``ServerAccount``-over-
``ClusterLedger`` pattern).  A :class:`Trace` carries its store in
``Trace.store`` and routes the hot filters through the columns; a trace
built from records encodes them with :meth:`from_records`.

Every VM enters a store through one gate, the row encoder
(:class:`_RowEncoder`): :meth:`from_records`, and so every ``Trace``
built from records and ``generate()``, and the streaming builder encode
rows with it, and it rejects a VM that a replay could not use -- a
repeated id, a cluster outside the fleet, a lifetime outside the horizon,
telemetry that is not one float64 coverage from the VM's start slot
within its lifetime.  :meth:`open` applies the same row rules to the
metadata columns it loads, without reading a sample.

The columns have one on-disk format (:meth:`save` / :meth:`open`): an
``.npz`` of metadata columns plus one raw ``.npy`` buffer per resource.
Opening with ``mmap=True`` memory-maps the buffers, so the chunked replay
meter reads only the slot-chunk it is accumulating -- a trace whose
telemetry exceeds RAM stays replayable end to end.  The same format is the
sweep's cross-process transport: a pooled sweep saves the trace once and
every worker opens it with ``mmap=True``, reading one copy through the page
cache instead of unpickling its own (see :mod:`repro.simulator.sweep`).
``open`` checks every file against ``meta.json`` first, so a damaged store
fails there, by name -- in a sweep worker as anywhere else.

The write side has a streaming counterpart: :class:`TraceStoreBuilder`
appends one VM's metadata row and telemetry at a time directly to the
on-disk layout, so a trace larger than RAM can be *ingested* without ever
holding every VM record (or the flat buffers) in memory.  Builder output
is byte-identical to ``from_records(...).save(...)`` for the same VMs, so
``open(mmap=True)`` reads it unchanged: both paths turn VMs into rows
with one encoder (:class:`_RowEncoder`) and write ``meta.json`` and
``columns.npz`` with one serializer (:func:`_write_metadata`), and every
per-row column is listed once, in the schema (``_METADATA_COLUMNS``).

Exactness contract
------------------
Telemetry is float64, the dtype of every ``UtilizationSeries`` built
through its constructor, and this module is the one place that decides
it: the encoder rejects any other series dtype, ``open`` rejects any
other buffer dtype, and ``meta.json`` records it.  So the buffers hold
the very samples the encoded records held, and every result computed
from them is *bitwise* identical to the per-VM reference loops --
``tests/test_trace_store.py`` and the golden-trace pins assert this.
"""

# repro: hot-path  -- REP003: telemetry buffers must stay zero-copy here;
# justified metadata-only copies are listed in analysis_baseline.json.

from __future__ import annotations

import io
import json
import os
import shutil
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource
from repro.trace.hardware import ClusterConfig, Fleet
from repro.trace.timeseries import (
    SLOTS_PER_DAY,
    UtilizationSeries,
    percentile_lerp,
    percentile_ranks,
)
from repro.trace.trace import Trace
from repro.trace.vm import (
    AllocationClass,
    Offering,
    Subscription,
    SubscriptionType,
    VMConfig,
    VMRecord,
)

#: On-disk format version (bumped on incompatible layout changes).
#: Version 2 added the ``alloc_class_code`` column (allocation classes).
STORE_FORMAT_VERSION = 2


# --------------------------------------------------------------------------- #
# Segment-reduce kernels over flat telemetry buffers
#
# A "segment" is one VM's samples for one resource: ``buffer[start:start+len]``.
# The kernels below evaluate a per-segment statistic for *every* VM in a small,
# fixed number of numpy calls instead of one Python-level call per VM -- the
# characterization layer (``repro.characterization.columnar``) is built on
# them.  Exactness contract: each kernel is bitwise-identical to applying the
# corresponding numpy reduction to every ``buffer[start:start+len]`` slice
# individually (the per-VM reference path).
# --------------------------------------------------------------------------- #
def segment_reduce(ufunc: np.ufunc, buffer: np.ndarray, starts: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Per-segment ``ufunc.reduce`` in one ``reduceat`` call.

    Segments must be non-empty and in ascending buffer order (every store
    row selection produced by the ``Trace`` filters satisfies both).  The
    segment bounds are interleaved into one index array; ``reduceat``
    evaluates every ``[start, end)`` slice at the even positions and the
    (discarded) inter-segment gaps at the odd ones.
    """
    n = int(starts.size)
    if n == 0:
        return np.empty(0, dtype=buffer.dtype)
    ends = starts + lengths
    # A bound beyond the buffer means a corrupted (start, length) pair; the
    # edge-trim below must never silently absorb it into the wrong slice.
    overshoot = int(ends.max(initial=0))
    if overshoot > buffer.size:
        raise ValueError(
            f"segment bound {overshoot} overruns the telemetry buffer "
            f"({buffer.size} samples): corrupted segment starts/lengths")
    idx = np.empty(2 * n, dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = ends
    # reduceat indices must be < buffer.size.  Segments are non-empty and
    # ascending, so only the final end can sit exactly at the buffer edge:
    # drop it and let the last slice run to the end of the buffer.
    if idx[-1] == buffer.size:
        idx = idx[:-1]
    if idx.size > 1 and np.any(idx[:-1] >= buffer.size):
        # Out-of-order selections (never produced by the Trace filters) fall
        # back to the per-segment loop rather than mis-slicing.
        return np.array([ufunc.reduce(buffer[s:s + l])
                         for s, l in zip(starts, lengths)])
    return ufunc.reduceat(buffer, idx)[0::2]


def segment_percentiles(buffer: np.ndarray, starts: np.ndarray,
                        lengths: np.ndarray,
                        pcts: Sequence[float]) -> Dict[float, np.ndarray]:
    """Per-segment percentiles without sorting whole segments.

    Segments of equal length share their interpolation ranks
    (:func:`~repro.trace.timeseries.percentile_ranks`), so they are
    gathered into one matrix and *partitioned* (O(n) selection) at exactly
    the neighbour ranks every requested percentile reads; the values at
    those ranks match a full sort.  The interpolation is
    :func:`~repro.trace.timeseries.percentile_lerp`, numpy's step for
    step, so float64 results are bitwise identical to calling
    ``np.percentile`` on every segment, which raises the same
    ``ValueError`` for a percentile outside ``[0, 100]``.
    """
    if not all(0 <= pct <= 100 for pct in pcts):
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = int(starts.size)
    out = {pct: np.empty(n, dtype=np.float64) for pct in pcts}
    if n == 0 or not pcts:
        return out
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    group_bounds = np.flatnonzero(np.diff(sorted_lengths)) + 1
    for group in np.split(order, group_bounds):
        length = int(lengths[group[0]])
        matrix = buffer[starts[group][:, None]
                        + np.arange(length, dtype=np.int64)[None, :]]
        plan = [(pct, *percentile_ranks(length, pct)) for pct in pcts]
        matrix.partition(sorted({int(rank) for _pct, previous, nxt, _gamma
                                 in plan for rank in (previous, nxt)}),
                         axis=1)
        for pct, previous, nxt, gamma in plan:
            out[pct][group] = percentile_lerp(matrix[:, previous],
                                              matrix[:, nxt], gamma)
    return out


def rowwise_mean(buffer: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                 minuend: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-segment mean of ``segment`` (or ``minuend[i] - segment``).

    Mean is order-*dependent* in floating point (numpy uses blocked pairwise
    summation), so a plain ``add.reduceat`` would drift from the per-VM
    reference by rounding.  Instead, segments of equal length are gathered
    into one C-contiguous matrix and reduced with ``mean(axis=1)``: numpy
    applies the identical per-row pairwise reduction it would apply to each
    1-D slice, so results are bitwise-identical to calling ``np.mean`` per
    segment while still batching one numpy call per *distinct length*
    rather than per VM.
    """
    n = int(starts.size)
    out = np.empty(n)
    if n == 0:
        return out
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    group_bounds = np.flatnonzero(np.diff(sorted_lengths)) + 1
    for group in np.split(order, group_bounds):
        length = int(lengths[group[0]])
        gathered = buffer[starts[group][:, None]
                          + np.arange(length, dtype=np.int64)[None, :]]
        if minuend is not None:
            gathered = minuend[group][:, None] - gathered
        out[group] = gathered.mean(axis=1)
    return out


#: The dtype of every telemetry sample and buffer.
_TELEMETRY_DTYPE = np.dtype(np.float64)
#: What :meth:`TraceStore.buffer` returns for a store without rows.
_NO_SAMPLES = np.empty(0, dtype=_TELEMETRY_DTYPE)
_NO_SAMPLES.setflags(write=False)
#: File names of the on-disk layout.
_META_FILE = "meta.json"
_COLUMNS_FILE = "columns.npz"
#: Every ``meta.json`` key :meth:`TraceStore.open` reads.
_META_KEYS: Tuple[str, ...] = (
    "format_version", "n_vms", "n_slots", "resources", "offering_values",
    "subscription_type_values", "allocation_class_values", "cluster_ids",
    "configs", "fleet", "subscriptions")


def _is_json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_json_list_of(kind: type):
    return lambda value: isinstance(value, list) and all(
        isinstance(item, kind) for item in value)


#: The JSON type of every ``meta.json`` value :meth:`TraceStore.open` reads
#: (``format_version`` is compared by value): ``key -> (type, check)``.
_META_TYPES = {
    "n_vms": ("an integer", _is_json_int),
    "n_slots": ("an integer", _is_json_int),
    **{key: ("a list of strings", _is_json_list_of(str))
       for key in ("resources", "offering_values", "subscription_type_values",
                   "allocation_class_values", "cluster_ids")},
    **{key: ("a list of objects", _is_json_list_of(dict))
       for key in ("configs", "subscriptions")},
    "fleet": ("an object", lambda value: isinstance(value, dict)),
}

#: Stable code tables for the enum columns (persisted in ``meta.json`` so a
#: reordering of the enums cannot silently re-label old stores).
_OFFERING_VALUES: Tuple[str, ...] = tuple(o.value for o in Offering)
_SUBTYPE_VALUES: Tuple[str, ...] = tuple(t.value for t in SubscriptionType)
_ALLOC_CLASS_VALUES: Tuple[str, ...] = tuple(c.value for c in AllocationClass)
#: Enum member -> code (its position in the table above).
_OFFERING_CODES = {Offering(v): i for i, v in enumerate(_OFFERING_VALUES)}
_SUBTYPE_CODES = {SubscriptionType(v): i for i, v in enumerate(_SUBTYPE_VALUES)}
_ALLOC_CLASS_CODES = {AllocationClass(v): i
                      for i, v in enumerate(_ALLOC_CLASS_VALUES)}

#: The per-row metadata schema, in ``columns.npz`` order:
#: ``name -> (dtype, table)``, where ``table`` is the ``meta.json`` list an
#: index or code column points into.  Identifier columns hold Python
#: strings; ``server_ids`` may hold ``None``, persisted as ``""`` plus a
#: ``has_server_id`` mask written right after it.
_METADATA_COLUMNS: Dict[str, Tuple[type, Optional[str]]] = {
    "vm_ids": (object, None),
    "subscription_ids": (object, None),
    "server_ids": (object, None),
    "config_index": (np.int32, "configs"),
    "cluster_index": (np.int32, "cluster_ids"),
    "start_slot": (np.int64, None),
    "end_slot": (np.int64, None),
    "offering_code": (np.int8, "offering_values"),
    "subtype_code": (np.int8, "subscription_type_values"),
    "alloc_class_code": (np.int8, "allocation_class_values"),
    "series_start": (np.int64, None),
}
#: Every per-row column of a store: the metadata plus where each row's
#: samples sit in the flat telemetry buffers (persisted as one canonical
#: ``(n_vms + 1,)`` ``offsets`` member).  Construction, selection, the
#: serializer and ``open`` all iterate this list.
_ROW_COLUMNS: Tuple[str, ...] = (*_METADATA_COLUMNS, "row_offset", "row_length")


# --------------------------------------------------------------------------- #
# Deterministic on-disk writers
#
# ``TraceStore.save`` and ``TraceStoreBuilder.finalize`` must emit
# byte-identical files for equal contents (the builder's differential
# contract), so both write ``meta.json`` and ``columns.npz`` through
# :func:`_write_metadata`, never through ``np.savez``, whose zip members
# carry wall-clock timestamps.
# --------------------------------------------------------------------------- #
def _write_npz(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """``np.savez`` with deterministic bytes.

    Members are stored uncompressed in insertion order with a fixed zip
    timestamp (the DOS epoch), so two writes of equal arrays produce equal
    files.  ``np.load`` reads the result exactly like an ``np.savez`` file.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asarray(array))
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(info, member.getvalue())


def _npy_header_bytes(n_samples: int) -> bytes:
    """The exact ``.npy`` v1.0 header ``np.save`` writes for a flat
    telemetry buffer."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(_TELEMETRY_DTYPE),
        "fortran_order": False,
        "shape": (int(n_samples),),
    })
    return header.getvalue()


def _write_metadata(path: Path, state: Dict[str, object],
                    resources: Sequence[Resource]) -> None:
    """Write ``meta.json`` and ``columns.npz`` -- everything but the buffers.

    *state* has the shape of :meth:`TraceStore._meta_state` for a
    contiguous store; the telemetry buffers are the caller's to write
    (``save`` writes them whole, the builder streams them).
    """
    row_length = state["row_length"]
    meta = {
        "format_version": STORE_FORMAT_VERSION,
        "n_vms": len(row_length),
        "n_slots": int(state["n_slots"]),
        "util_dtype": _TELEMETRY_DTYPE.str,
        "resources": [r.value for r in resources],
        "offering_values": list(_OFFERING_VALUES),
        "subscription_type_values": list(_SUBTYPE_VALUES),
        "allocation_class_values": list(_ALLOC_CLASS_VALUES),
        "cluster_ids": state["fleet"].cluster_ids(),
        "configs": [asdict(cfg) for cfg in state["configs"]],
        "fleet": _fleet_to_jsonable(state["fleet"]),
        "subscriptions": [_subscription_to_jsonable(sub)
                          for sub in state["subscriptions"].values()],
    }
    (path / _META_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    members: Dict[str, np.ndarray] = {}
    for name, (dtype, _table) in _METADATA_COLUMNS.items():
        if dtype is not object:
            members[name] = state[name]
            continue
        ids = state[name].tolist()
        members[name] = np.asarray(["" if v is None else v for v in ids],
                                   dtype=np.str_)
        if name == "server_ids":
            members["has_server_id"] = np.asarray(
                [v is not None for v in ids], dtype=bool)
    offsets = np.zeros(len(row_length) + 1, dtype=np.int64)
    np.cumsum(row_length, out=offsets[1:])
    members["offsets"] = offsets
    _write_npz(path / _COLUMNS_FILE, members)


class TraceStore:
    """Struct-of-arrays trace: metadata columns plus flat telemetry buffers.

    Build one with :meth:`from_records` (from VM records) or :meth:`open`
    (from disk); both check every row, so the constructor trusts the
    columns it is given.  Row ``i`` of every column describes the same VM,
    and a :class:`Trace` keeps ``trace.vms[i]`` in lockstep with row ``i``.
    ``cluster_index`` points into the fleet's cluster ids.
    """

    def __init__(self, *, vm_ids: np.ndarray, subscription_ids: np.ndarray,
                 server_ids: np.ndarray, configs: List[VMConfig],
                 config_index: np.ndarray,
                 cluster_index: np.ndarray, start_slot: np.ndarray,
                 end_slot: np.ndarray, offering_code: np.ndarray,
                 subtype_code: np.ndarray, alloc_class_code: np.ndarray,
                 series_start: np.ndarray,
                 row_offset: np.ndarray, row_length: np.ndarray,
                 util: Dict[Resource, np.ndarray], n_slots: int,
                 fleet: Fleet, subscriptions: Dict[str, Subscription],
                 contiguous: bool):
        self.vm_ids = vm_ids
        self.subscription_ids = subscription_ids
        self.server_ids = server_ids
        self.configs = configs
        self.config_index = config_index
        self.cluster_ids = fleet.cluster_ids()
        self.cluster_index = cluster_index
        self.start_slot = start_slot
        self.end_slot = end_slot
        self.offering_code = offering_code
        self.subtype_code = subtype_code
        self.alloc_class_code = alloc_class_code
        self.series_start = series_start
        self.row_offset = row_offset
        self.row_length = row_length
        self.util = util
        self.n_slots = int(n_slots)
        self.fleet = fleet
        self.subscriptions = subscriptions
        self._contiguous = contiguous
        self._id_index: Optional[Dict[str, int]] = None
        self._alloc: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, vms: Iterable[VMRecord], *, fleet: Fleet,
                     n_slots: int,
                     subscriptions: Optional[Dict[str, Subscription]] = None
                     ) -> "TraceStore":
        """Encode VM records as they come (``Trace`` does this for a trace
        built from records, and ``TraceGenerator.generate`` for each VM it
        draws).

        Each record's samples are appended to the telemetry buffers as it
        is encoded, so *vms* may be a generator whose records are dropped
        once encoded.  The buffers hold the source samples unchanged, so
        every downstream replay/characterization result is bitwise
        identical to the per-VM reference loops.

        Raises ``ValueError`` naming the first VM the row encoder rejects
        (see :class:`_RowEncoder`); :meth:`TraceStoreBuilder.append` goes
        through the same encoder, so both reject the same VMs.
        """
        encoder = _RowEncoder(fleet, n_slots)
        sinks: List[io.BytesIO] = []
        for vm in vms:
            samples = encoder.encode(vm)
            if encoder.n == 1:  # the first row fixes the buffers
                sinks = [io.BytesIO() for _ in samples]
            for sink, values in zip(sinks, samples):
                sink.write(values.tobytes())
        util = {resource: np.frombuffer(sink.getbuffer(),
                                        dtype=_TELEMETRY_DTYPE)
                for resource, sink in zip(encoder.resources or (), sinks)}
        return cls(**encoder.rows(), util=util, n_slots=n_slots, fleet=fleet,
                   subscriptions=dict(subscriptions or {}), contiguous=True)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.vm_ids.size)

    @property
    def n_vms(self) -> int:
        return len(self)

    @property
    def resources(self) -> Tuple[Resource, ...]:
        return tuple(self.util)

    @property
    def util_nbytes(self) -> int:
        """Total telemetry bytes across every resource buffer."""
        return int(sum(buffer.nbytes for buffer in self.util.values()))

    @property
    def contiguous(self) -> bool:
        """Whether rows map to one monotone ``(n_vms + 1,)`` offsets array."""
        return self._contiguous

    @property
    def offsets(self) -> np.ndarray:
        """The canonical ``(n_vms + 1,)`` offsets array (contiguous stores)."""
        if not self._contiguous:
            raise ValueError(
                "store is a non-contiguous selection; call compact() first")
        out = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(self.row_length, out=out[1:])
        return out

    @property
    def lifetime_slots(self) -> np.ndarray:
        return self.end_slot - self.start_slot

    @property
    def alloc(self) -> np.ndarray:
        """Per-VM allocations, shape ``(n_vms, len(ALL_RESOURCES))``."""
        if self._alloc is None:
            table = np.array(
                [[cfg.allocation_vector()[r] for r in ALL_RESOURCES]
                 for cfg in self.configs], dtype=np.float64)
            if not len(table):
                table = np.zeros((0, len(ALL_RESOURCES)))
            self._alloc = table[self.config_index]
        return self._alloc

    @property
    def lifetime_hours(self) -> np.ndarray:
        """Element-for-element :attr:`VMRecord.lifetime_hours`."""
        return self.lifetime_slots / (SLOTS_PER_DAY / 24)

    def resource_hours(self, resource: Resource) -> np.ndarray:
        """Element-for-element :meth:`VMRecord.resource_hours`."""
        return self.alloc[:, ALL_RESOURCES.index(resource)] * self.lifetime_hours

    @property
    def cores(self) -> np.ndarray:
        """Per-VM ``config.cores`` column."""
        table = np.array([cfg.cores for cfg in self.configs])
        return table[self.config_index] if len(self.configs) else \
            np.zeros(len(self), dtype=np.int64)

    @property
    def memory_gb(self) -> np.ndarray:
        """Per-VM ``config.memory_gb`` column."""
        table = np.array([cfg.memory_gb for cfg in self.configs])
        return table[self.config_index] if len(self.configs) else \
            np.zeros(len(self), dtype=np.int64)

    def config_names(self) -> np.ndarray:
        """Per-VM ``config.name`` column (object dtype)."""
        table = np.array([cfg.name for cfg in self.configs], dtype=object)
        return table[self.config_index] if len(self.configs) else \
            np.empty(len(self), dtype=object)

    # ------------------------------------------------------------------ #
    # Telemetry segment reductions (see the kernels at module level)
    # ------------------------------------------------------------------ #
    def buffer(self, resource: Resource) -> np.ndarray:
        """The flat telemetry buffer of *resource*.

        A store without rows reads every resource as empty: one encoded
        from no VMs holds no buffers at all, because the first VM fixes
        the resource set.
        """
        if not len(self):
            return _NO_SAMPLES
        return self.util[resource]

    def segment_max(self, resource: Resource) -> np.ndarray:
        """Per-VM ``series.maximum()`` for one resource, in one reduceat."""
        return segment_reduce(np.maximum, self.buffer(resource),
                              self.row_offset, self.row_length)

    def segment_mean(self, resource: Resource) -> np.ndarray:
        """Per-VM ``series.mean()``, bitwise-identical (see rowwise_mean)."""
        return rowwise_mean(self.buffer(resource), self.row_offset,
                            self.row_length)

    def segment_percentiles(self, resource: Resource,
                            pcts: Sequence[float]) -> Dict[float, np.ndarray]:
        """Per-VM ``series.percentile(pct)`` for several percentiles at once.

        Length-bucketed rank partitioning plus the replicated linear
        interpolation -- bitwise identical to per-VM ``np.percentile`` on
        float64 buffers (see :func:`segment_percentiles`).
        """
        return segment_percentiles(self.buffer(resource), self.row_offset,
                                   self.row_length, pcts)

    def utilization_matrix(self, resource: Resource, n_slots: int,
                           rows: Optional[np.ndarray] = None,
                           absolute: bool = True) -> np.ndarray:
        """Dense ``(n_rows, n_slots)`` demand matrix via one flat scatter.

        One fancy-indexed assignment into the flattened matrix instead of
        a per-VM loop.  Bitwise contract: the per-VM loop (kept as the
        oracle in ``tests/test_trace_store.py``) computes
        ``series.values[:k] * scale`` per VM, and each entry below is the
        same float64 product of the same two factors.

        ``rows`` selects (ascending) store rows; ``None`` means every row.
        Series are clipped to the ``[0, n_slots)`` horizon exactly as the
        reference's ``end = min(series.end_slot, n_slots)`` slice.
        """
        if rows is None:
            rows = np.arange(len(self), dtype=np.intp)
        else:
            rows = np.asarray(rows, dtype=np.intp)
        buffer = self.buffer(resource)
        series_start = self.series_start[rows]
        eff_len = np.minimum(self.row_length[rows], n_slots - series_start)
        np.maximum(eff_len, 0, out=eff_len)
        matrix = np.zeros((rows.size, n_slots))
        total = int(eff_len.sum())
        if total == 0:
            return matrix
        bounds = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(eff_len, out=bounds[1:])
        # Position of every scattered sample inside its own segment.
        intra = np.arange(total, dtype=np.int64) - np.repeat(bounds[:-1],
                                                             eff_len)
        src = np.repeat(self.row_offset[rows], eff_len) + intra
        dst = (np.repeat(np.arange(rows.size, dtype=np.int64) * n_slots
                         + series_start, eff_len) + intra)
        samples = buffer[src]
        if absolute:
            scale = self.alloc[rows, ALL_RESOURCES.index(resource)]
            samples = samples * np.repeat(scale, eff_len)
        matrix.ravel()[dst] = samples
        return matrix

    def index_of(self, vm_id: str) -> int:
        """Row index of a VM id (maintained dict, O(1) after first use)."""
        if self._id_index is None:
            self._id_index = {vm_id: i for i, vm_id in
                              enumerate(self.vm_ids.tolist())}
        try:
            return self._id_index[vm_id]
        except KeyError as exc:
            raise KeyError(f"no VM with id {vm_id!r}") from exc

    # ------------------------------------------------------------------ #
    # Vectorized column predicates (the Trace fast paths)
    # ------------------------------------------------------------------ #
    def alive_at_indices(self, slot: int) -> np.ndarray:
        """Rows alive at *slot*, in row order."""
        return np.nonzero((self.start_slot <= slot) & (slot < self.end_slot))[0]

    def arriving_in_indices(self, start: int, end: int) -> np.ndarray:
        """Rows whose allocation slot falls in ``[start, end)``."""
        return np.nonzero((self.start_slot >= start) & (self.start_slot < end))[0]

    def long_running_mask(self, min_days: float = 1.0) -> np.ndarray:
        """Element-for-element the same comparison as
        :meth:`VMRecord.is_long_running` (``lifetime_days > min_days``)."""
        return self.lifetime_slots / SLOTS_PER_DAY > min_days

    def in_cluster_indices(self, cluster_id: str) -> np.ndarray:
        try:
            code = self.cluster_ids.index(cluster_id)
        except ValueError:
            return np.empty(0, dtype=np.intp)
        return np.nonzero(self.cluster_index == code)[0]

    def arrivals_for(self, cluster_id: str, min_start_slot: int) -> np.ndarray:
        """Rows replayed by one cluster simulation: in the cluster, arriving
        at or after *min_start_slot*."""
        try:
            code = self.cluster_ids.index(cluster_id)
        except ValueError:
            return np.empty(0, dtype=np.intp)
        return np.nonzero((self.cluster_index == code)
                          & (self.start_slot >= min_start_slot))[0]

    # ------------------------------------------------------------------ #
    # Row selection
    # ------------------------------------------------------------------ #
    def select(self, indices: Sequence[int]) -> "TraceStore":
        """A store over the given rows, sharing the telemetry buffers.

        Selection is zero-copy on the telemetry: the new store keeps the
        same flat buffers and simply re-points its per-row offset/length
        columns, so filtering a multi-gigabyte trace costs only the small
        metadata gathers.

        Accepts row indices or a boolean row mask (e.g. the output of
        :meth:`long_running_mask`).  Indices may reorder rows but must be
        unique -- a repeated index would duplicate a VM id, which every
        id-based lookup relies on being impossible.
        """
        idx = np.asarray(indices)
        if idx.dtype == np.bool_:
            if idx.shape != (len(self),):
                raise ValueError(
                    f"boolean selection mask has shape {idx.shape}, "
                    f"expected ({len(self)},)")
            idx = np.nonzero(idx)[0]
        idx = idx.astype(np.intp, copy=False)
        if idx.size > 1 and np.unique(idx).size != idx.size:
            raise ValueError("select() indices must be unique (a repeated "
                             "row would duplicate its VM id)")
        state = self._meta_state()
        for name in _ROW_COLUMNS:
            state[name] = state[name][idx]
        return TraceStore(**state, util=self.util, contiguous=False)

    def compact(self) -> "TraceStore":
        """A contiguous copy of a selection (no-op for contiguous stores)."""
        if self._contiguous:
            return self
        n = len(self)
        row_offset = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(self.row_length[:-1], out=row_offset[1:])
        util: Dict[Resource, np.ndarray] = {}
        total = int(self.row_length.sum())
        for resource, buffer in self.util.items():
            packed = np.empty(total, dtype=buffer.dtype)
            for i in range(n):
                src = self.row_offset[i]
                dst = row_offset[i]
                length = self.row_length[i]
                packed[dst:dst + length] = buffer[src:src + length]
            util[resource] = packed
        state = self._meta_state()
        for name in _ROW_COLUMNS:
            state[name] = state[name].copy()
        state["row_offset"] = row_offset
        return TraceStore(**state, util=util, contiguous=True)

    # ------------------------------------------------------------------ #
    # Object views
    # ------------------------------------------------------------------ #
    def as_trace(self) -> Trace:
        """A :class:`Trace` over this store: row views plus vectorized filters.

        ``vms[i]`` is an ordinary :class:`VMRecord` for row ``i`` whose
        series slice the shared buffers (telemetry is not copied).  Every
        column is read as a Python list once, so a row costs list lookups
        rather than numpy scalar reads and enum calls: a sweep worker pays
        this per VM after every :meth:`open`.
        """
        offerings = [Offering(value) for value in _OFFERING_VALUES]
        subtypes = [SubscriptionType(value) for value in _SUBTYPE_VALUES]
        classes = [AllocationClass(value) for value in _ALLOC_CLASS_VALUES]
        buffers = list(self.util.items())
        rows = zip(self.vm_ids.tolist(), self.subscription_ids.tolist(),
                   self.config_index.tolist(), self.cluster_index.tolist(),
                   self.start_slot.tolist(), self.end_slot.tolist(),
                   self.offering_code.tolist(), self.subtype_code.tolist(),
                   self.alloc_class_code.tolist(), self.server_ids.tolist(),
                   self.series_start.tolist(), self.row_offset.tolist(),
                   self.row_length.tolist())
        vms = [
            VMRecord(
                vm_id=vm_id, subscription_id=subscription_id,
                config=self.configs[config],
                cluster_id=self.cluster_ids[cluster],
                start_slot=start, end_slot=end, offering=offerings[offering],
                subscription_type=subtypes[subtype],
                allocation_class=classes[alloc_class], server_id=server_id,
                utilization={
                    resource: UtilizationSeries.from_validated(
                        buffer[offset:offset + length], series_start)
                    for resource, buffer in buffers})
            for (vm_id, subscription_id, config, cluster, start, end,
                 offering, subtype, alloc_class, server_id, series_start,
                 offset, length) in rows]
        return Trace(vms=vms, fleet=self.fleet, n_slots=self.n_slots,
                     subscriptions=self.subscriptions, store=self)

    # ------------------------------------------------------------------ #
    # On-disk backend
    # ------------------------------------------------------------------ #
    def save(self, path) -> Path:
        """Write the store to *path* (a directory; created if missing).

        Layout: ``meta.json`` (format version, shapes, configs, fleet,
        subscriptions, enum tables), ``columns.npz`` (every metadata column
        including the canonical offsets array), and one raw ``util_<r>.npy``
        buffer per resource -- raw so :meth:`open` can memory-map it.
        """
        store = self.compact()
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        _write_metadata(path, store._meta_state(), store.resources)
        for resource, buffer in store.util.items():
            np.save(path / f"util_{resource.value}.npy", buffer)
        return path

    @classmethod
    def open(cls, path, mmap: bool = False) -> "TraceStore":
        """Load a saved store; ``mmap=True`` memory-maps the telemetry.

        The metadata columns always load into RAM (they are a few bytes per
        VM); with ``mmap=True`` the per-resource buffers stay on disk and
        pages are only faulted in as slices are actually read -- which, with
        the chunked replay meter, bounds replay RAM to the slot-chunk, and
        lets every sweep worker read one page-cache copy of a staged store.

        The files are checked against ``meta.json`` before the store is
        built: ``meta.json`` is an object carrying every key read here,
        every ``columns.npz`` member has one entry per VM (``offsets`` one
        more), ``offsets`` start at 0 and never decrease, index and code
        columns stay inside their tables, and each buffer holds exactly
        ``offsets[-1]`` float64 samples.  Every ``meta.json`` value read
        has its JSON type, ``n_slots`` is at least one, and the resources,
        configs, fleet and subscriptions rebuild from it.  Every row then
        passes the row encoder's rules (:class:`_RowEncoder`): the cluster
        table is the fleet's, ``0 <= start_slot < end_slot <= n_slots``,
        VM ids are unique and, when the store has telemetry, each row's
        samples start at its ``start_slot`` and number 1 to its lifetime.
        These
        read only the metadata columns: the sample values are trusted, not
        read, so a memory-mapped open costs the same whatever the telemetry
        size.  A damaged store raises ``ValueError`` naming the store, the
        file, key or column at fault and, for a row, its VM.
        """
        path = Path(path)

        def damaged(part: str, problem: str) -> ValueError:
            return ValueError(f"trace store at {path} is damaged: "
                              f"{part} {problem}")

        try:
            meta = json.loads((path / _META_FILE).read_text())
        except (OSError, ValueError) as exc:
            raise damaged(_META_FILE, f"cannot be read ({exc})") from exc
        if not isinstance(meta, dict):
            raise damaged(_META_FILE, "is not a JSON object")
        # The version goes first: another format version may carry other
        # keys, and what its reader needs to hear is the version.
        if "format_version" in meta and \
                meta["format_version"] != STORE_FORMAT_VERSION:
            raise ValueError(
                f"trace store at {path} has format version "
                f"{meta['format_version']}; this build reads "
                f"{STORE_FORMAT_VERSION}")
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise damaged(_META_FILE, f"lacks the key(s) {missing}")
        for key, (expected, is_expected) in _META_TYPES.items():
            if not is_expected(meta[key]):
                shown = json.dumps(meta[key])
                shown = shown if len(shown) <= 60 else shown[:57] + "..."
                raise damaged(f"{_META_FILE} key {key!r}",
                              f"is {shown}, expected {expected}")
        if meta["n_slots"] < 1:
            raise damaged(f"{_META_FILE} key 'n_slots'",
                          f"is {meta['n_slots']}, expected at least one slot")

        def rebuilt(key: str, build):
            """``build(meta[key])``, its failure reported as damage."""
            try:
                return build(meta[key])
            except (TypeError, ValueError, KeyError) as exc:
                raise damaged(f"{_META_FILE} key {key!r}",
                              f"cannot be rebuilt ({exc!r})") from exc

        resources = rebuilt("resources", lambda values: [
            Resource(value) for value in values])
        # The enum code columns are only meaningful against the tables they
        # were written with; a reordered or extended enum must fail loudly
        # instead of silently re-labelling every VM.
        for key, current in (("offering_values", _OFFERING_VALUES),
                             ("subscription_type_values", _SUBTYPE_VALUES),
                             ("allocation_class_values", _ALLOC_CLASS_VALUES)):
            persisted = tuple(meta[key])
            if persisted != current:
                raise ValueError(
                    f"trace store at {path} was written with {key} "
                    f"{list(persisted)}, but this build uses {list(current)}; "
                    f"refusing to re-label the persisted codes")
        try:
            with np.load(path / _COLUMNS_FILE) as npz:
                members = {name: npz[name] for name in npz.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise damaged(_COLUMNS_FILE, f"cannot be read ({exc})") from exc
        n_vms = meta["n_vms"]
        lengths = dict.fromkeys((*_METADATA_COLUMNS, "has_server_id"), n_vms)
        lengths["offsets"] = n_vms + 1
        for name, length in lengths.items():
            if name not in members:
                raise damaged(_COLUMNS_FILE, f"has no {name!r} column")
            if members[name].shape != (length,):
                raise damaged(f"{_COLUMNS_FILE} column {name!r}",
                              f"has shape {members[name].shape}, expected "
                              f"({length},) for {n_vms} VMs")
        offsets = members["offsets"]
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise damaged(f"{_COLUMNS_FILE} column 'offsets'",
                          "must start at 0 and never decrease")
        state: Dict[str, object] = {}
        for name, (dtype, _table) in _METADATA_COLUMNS.items():
            state[name] = members[name] if dtype is not object else \
                np.asarray(members[name].tolist(), dtype=object)
        state["server_ids"][~members["has_server_id"]] = None
        state["row_offset"] = offsets[:-1].astype(np.int64, copy=True)
        state["row_length"] = np.diff(offsets).astype(np.int64, copy=False)
        vm_ids = state["vm_ids"]

        def check_rows(name: str, ok: np.ndarray, problem: str,
                       *values: np.ndarray) -> None:
            """Reject the store at the first row *ok* fails, naming its VM;
            *problem* is formatted with that row's entry of each *values*."""
            if not ok.all():
                row = int(np.argmin(ok))
                raise damaged(f"{_COLUMNS_FILE} column {name!r}",
                              f"gives VM {vm_ids[row]!r} "
                              + problem.format(*(v[row] for v in values)))

        # The row encoder's rules, on the metadata columns alone.  A VM's
        # cluster must be one of the fleet's, so the fleet's cluster ids
        # are the table ``cluster_index`` points into.
        fleet = rebuilt("fleet", _fleet_from_jsonable)
        cluster_ids = fleet.cluster_ids()
        sizes = {table: len(meta[table])
                 for _dtype, table in _METADATA_COLUMNS.values() if table}
        sizes["cluster_ids"] = len(cluster_ids)
        for name, (_dtype, table) in _METADATA_COLUMNS.items():
            if table is not None:
                column = members[name]
                check_rows(name, (column >= 0) & (column < sizes[table]),
                           f"{name} {{}}, outside the {sizes[table]}-entry "
                           f"{table!r} table", column)
        if meta["cluster_ids"] != cluster_ids:
            raise damaged(f"{_META_FILE} key 'cluster_ids'",
                          f"is {meta['cluster_ids']}, but the fleet's "
                          f"clusters are {cluster_ids}")
        start, end = state["start_slot"], state["end_slot"]
        check_rows("start_slot", start >= 0, "start slot {}, before slot 0",
                   start)
        check_rows("end_slot", end > start,
                   "end slot {}, not after its start slot {}", end, start)
        check_rows("end_slot", end <= meta["n_slots"],
                   f"end slot {{}}, past the {meta['n_slots']}-slot horizon",
                   end)
        # Only a store without telemetry has rows without samples.
        if resources:
            check_rows("series_start", state["series_start"] == start,
                       "telemetry from slot {}, not from its start slot {}",
                       state["series_start"], start)
            length, lifetime = state["row_length"], end - start
            check_rows("offsets", (length > 0) & (length <= lifetime),
                       "{} telemetry samples, not 1 to the {} of its "
                       "lifetime", length, lifetime)
        ids = vm_ids.tolist()
        if len(set(ids)) != len(ids):
            seen: set = set()
            for vm_id in ids:
                if vm_id in seen:
                    raise damaged(f"{_COLUMNS_FILE} column 'vm_ids'",
                                  f"repeats VM id {vm_id!r}")
                seen.add(vm_id)

        util: Dict[Resource, np.ndarray] = {}
        for resource in resources:
            name = f"util_{resource.value}.npy"
            try:
                buffer = np.load(path / name, mmap_mode="r" if mmap else None)
            except (OSError, ValueError) as exc:
                raise damaged(name, f"cannot be read ({exc})") from exc
            if buffer.shape != (offsets[-1],):
                raise damaged(name, f"has shape {buffer.shape}, but offsets "
                                    f"end at {offsets[-1]} samples")
            if buffer.dtype != _TELEMETRY_DTYPE:
                raise damaged(name, f"holds {buffer.dtype} samples, expected "
                                    f"{_TELEMETRY_DTYPE}")
            # A plain ndarray view over the map (its .base keeps the map
            # alive): np.memmap slices in Python, which would make the
            # per-VM row views of as_trace() several times slower.
            util[resource] = buffer.view(np.ndarray) if mmap else buffer

        return cls(
            **state,
            configs=rebuilt("configs", lambda configs: [
                VMConfig(**cfg) for cfg in configs]),
            util=util, n_slots=meta["n_slots"], fleet=fleet,
            subscriptions=rebuilt("subscriptions", lambda subs: {
                sub["subscription_id"]: _subscription_from_jsonable(sub)
                for sub in subs}),
            contiguous=True)

    def _meta_state(self) -> Dict[str, object]:
        """Everything except the telemetry buffers, as constructor keywords."""
        state: Dict[str, object] = {name: getattr(self, name)
                                    for name in _ROW_COLUMNS}
        state.update(configs=self.configs,
                     n_slots=self.n_slots, fleet=self.fleet,
                     subscriptions=self.subscriptions)
        return state


class _RowEncoder:
    """Turns VM records into store rows: the one gate every VM passes on
    its way into a trace, behind :meth:`TraceStore.from_records` and
    :class:`TraceStoreBuilder`.

    :meth:`encode` checks a VM completely before it changes any state, so
    a rejected VM leaves no trace.  A VM is rejected, with a
    ``ValueError`` naming it, unless

    * its id is new;
    * its cluster is one of the fleet's (a replay walks only those);
    * it lives within the trace: ``0 <= start_slot`` and
      ``end_slot <= n_slots``;
    * it carries the resource set the first VM fixed;
    * all its series share one coverage -- the single offsets array is
      what makes the flat layout sliceable -- which starts at the VM's
      start slot and holds at least one and at most its lifetime's
      samples (telemetry may stop early; the replay counts the uncovered
      slots as no demand);
    * every series holds float64 samples.

    Only then does it intern the config, assign the cluster index and enum
    codes and append the row to columns that grow by doubling.
    """

    def __init__(self, fleet: Fleet, n_slots: int):
        self.n_slots = int(n_slots)
        self._cluster_table = {cid: i for i, cid
                               in enumerate(fleet.cluster_ids())}
        self.configs: List[VMConfig] = []
        self._config_table: Dict[VMConfig, int] = {}
        #: Fixed by the first encoded VM.
        self.resources: Optional[Tuple[Resource, ...]] = None
        self._seen_ids: set = set()
        self.n = 0
        self._capacity = 16
        dtypes = {name: dtype for name, (dtype, _table)
                  in _METADATA_COLUMNS.items()}
        dtypes["row_length"] = np.int64
        self._columns = {name: np.empty(self._capacity, dtype=dtype)
                         for name, dtype in dtypes.items()}

    def encode(self, vm: VMRecord) -> List[np.ndarray]:
        """Check *vm* and append its row; returns its samples, one array per
        resource in :attr:`resources` order."""
        if vm.vm_id in self._seen_ids:
            raise ValueError(f"duplicate VM id {vm.vm_id!r} in trace store")
        cluster = self._cluster_table.get(vm.cluster_id)
        if cluster is None:
            raise ValueError(
                f"VM {vm.vm_id} runs in cluster {vm.cluster_id!r}, which is "
                f"not in the fleet {list(self._cluster_table)}")
        if vm.start_slot < 0 or vm.end_slot > self.n_slots:
            raise ValueError(
                f"VM {vm.vm_id} lives in [{vm.start_slot}, {vm.end_slot}), "
                f"outside the trace's slots [0, {self.n_slots})")
        utilization = vm.utilization
        resources = self.resources
        if resources is None:
            resources = tuple(r for r in ALL_RESOURCES if r in utilization)
        if utilization.keys() != set(resources):
            raise ValueError(
                f"VM {vm.vm_id} carries telemetry for "
                f"{sorted(r.value for r in utilization)}, expected "
                f"{sorted(r.value for r in resources)}: a columnar store "
                f"needs a uniform resource set")
        series = [utilization[r] for r in resources]
        start = length = 0
        if series:
            start, length = series[0].start_slot, len(series[0])
        for resource, other in zip(resources, series):
            if other.start_slot != start or len(other) != length:
                raise ValueError(
                    f"VM {vm.vm_id}: {resource.value} series covers "
                    f"[{other.start_slot}, {other.start_slot + len(other)}) "
                    f"but {resources[0].value} covers "
                    f"[{start}, {start + length}); "
                    f"a single offsets array needs equal coverage")
        if series and (start != vm.start_slot
                       or not 0 < length <= vm.lifetime_slots):
            raise ValueError(
                f"VM {vm.vm_id}: telemetry covers [{start}, {start + length}), "
                f"but must start at the VM's start slot {vm.start_slot} and "
                f"hold 1 to {vm.lifetime_slots} samples of its lifetime "
                f"[{vm.start_slot}, {vm.end_slot})")
        samples = [s.values for s in series]
        for resource, values in zip(resources, samples):
            if values.dtype != _TELEMETRY_DTYPE:
                raise ValueError(
                    f"VM {vm.vm_id}: {resource.value} series holds "
                    f"{values.dtype} samples, but a trace store holds "
                    f"{_TELEMETRY_DTYPE}")
        offering = _OFFERING_CODES[vm.offering]
        subtype = _SUBTYPE_CODES[vm.subscription_type]
        alloc_class = _ALLOC_CLASS_CODES[vm.allocation_class]

        # Every check passed: commit the row.
        self.resources = resources
        self._seen_ids.add(vm.vm_id)
        config = self._config_table.get(vm.config)
        if config is None:
            config = self._config_table[vm.config] = len(self.configs)
            self.configs.append(vm.config)
        i = self.n
        if i == self._capacity:
            self._grow()
        columns = self._columns
        columns["vm_ids"][i] = vm.vm_id
        columns["subscription_ids"][i] = vm.subscription_id
        columns["server_ids"][i] = vm.server_id
        columns["config_index"][i] = config
        columns["cluster_index"][i] = cluster
        columns["start_slot"][i] = vm.start_slot
        columns["end_slot"][i] = vm.end_slot
        columns["offering_code"][i] = offering
        columns["subtype_code"][i] = subtype
        columns["alloc_class_code"][i] = alloc_class
        columns["series_start"][i] = start
        columns["row_length"][i] = length
        self.n = i + 1
        return samples

    def _grow(self) -> None:
        self._capacity *= 2
        for name, column in self._columns.items():
            grown = np.empty(self._capacity, dtype=column.dtype)
            grown[:self.n] = column
            self._columns[name] = grown

    def rows(self) -> Dict[str, object]:
        """The encoded rows as :class:`TraceStore` keyword arguments: every
        per-row column plus the config table it indexes."""
        n = self.n
        rows: Dict[str, object] = {name: column[:n]
                                   for name, column in self._columns.items()}
        row_offset = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(rows["row_length"][:-1], out=row_offset[1:])
        rows.update(row_offset=row_offset, configs=self.configs)
        return rows


class TraceStoreBuilder:
    """Stream VM records straight into the on-disk :class:`TraceStore` layout.

    ``from_records(...).save(...)`` holds the whole flat buffers in RAM
    at once; the builder needs only the
    per-VM metadata columns (a few bytes per VM) plus the one record being
    appended -- telemetry goes to the ``util_<resource>.npy`` buffers as it
    arrives, so month-scale traces ingest under a fixed memory budget.

    Byte-identity contract: ``finalize()`` produces exactly the files
    ``TraceStore.from_records(vms, ...).save(path)`` would for the same VMs --
    same ``meta.json``, same ``columns.npz``, same raw buffers -- because
    both paths encode rows with :class:`_RowEncoder`, write metadata with
    :func:`_write_metadata`, and the ``.npy`` writer below patches the very
    header ``np.save`` emits.  ``tests/test_trace_store_builder.py`` pins
    this differentially.  The encoder checks every VM before it commits
    anything, so an append that raises ``ValueError`` leaves the builder as
    it was: later appends and ``finalize()`` proceed as if the rejected VM
    had never been offered.

    Usage::

        with TraceStoreBuilder(path, fleet=fleet, n_slots=n_slots,
                               subscriptions=subs) as builder:
            for vm in vm_source():        # any bounded-memory iterator
                builder.append(vm)
        store = TraceStore.open(path, mmap=True)

    The context manager finalizes on clean exit and aborts (removing the
    partial staging directory) if the body raises.  Files are staged in a
    ``<path>.building`` sibling and moved into *path* only at the end, so a
    crashed ingest never leaves a half-written store behind at *path*; the
    next builder for *path* discards the stale sibling.  The resource set
    is fixed by the first appended VM.
    """

    def __init__(self, path, *, fleet: Fleet, n_slots: int,
                 subscriptions: Optional[Dict[str, Subscription]] = None):
        self._path = Path(path)
        self._staging = self._path.parent / (self._path.name + ".building")
        if self._staging.exists():
            shutil.rmtree(self._staging)
        self._staging.mkdir(parents=True)
        self._fleet = fleet
        self._n_slots = int(n_slots)
        self._subscriptions: Dict[str, Subscription] = \
            dict(subscriptions) if subscriptions else {}
        self._encoder = _RowEncoder(fleet, n_slots)
        self._files: Dict[Resource, BinaryIO] = {}
        self._n_samples = 0
        self._closed = False

    @property
    def n_vms(self) -> int:
        return self._encoder.n

    @property
    def n_samples(self) -> int:
        """Telemetry samples written so far (per resource)."""
        return self._n_samples

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "TraceStoreBuilder is already finalized/aborted; "
                "create a new builder to write another store")

    def _open_buffers(self) -> None:
        for resource in self._encoder.resources:
            handle = (self._staging / f"util_{resource.value}.npy").open("wb")
            self._files[resource] = handle
            # Placeholder header for shape (0,); finalize() patches in the
            # sample count, which leaves the header length unchanged.
            handle.write(_npy_header_bytes(0))

    def append(self, vm: VMRecord) -> None:
        """Append one VM's metadata row and telemetry samples.

        Raises ``ValueError`` -- and changes nothing -- on exactly what
        ``from_records`` rejects (see :class:`_RowEncoder`).
        """
        self._check_open()
        samples = self._encoder.encode(vm)
        if self._encoder.n == 1:  # the first row fixes the buffers
            self._open_buffers()
        for resource, values in zip(self._encoder.resources, samples):
            self._files[resource].write(values.tobytes())
        if samples:
            self._n_samples += len(samples[0])

    def finalize(self) -> Path:
        """Patch headers, write ``meta.json``/``columns.npz``, move the
        staging directory's files into *path*, and return *path*."""
        self._check_open()
        self._closed = True
        for resource, handle in self._files.items():
            header = _npy_header_bytes(self._n_samples)
            if len(header) != len(_npy_header_bytes(0)):
                # numpy pads every header with room for a 21-digit length.
                raise ValueError(
                    f"{self._n_samples} samples outgrow the .npy header of "
                    f"util_{resource.value}.npy")
            handle.seek(0)
            handle.write(header)
            handle.close()
        self._files = {}
        state = dict(self._encoder.rows(), n_slots=self._n_slots,
                     fleet=self._fleet, subscriptions=self._subscriptions)
        _write_metadata(self._staging, state, self._encoder.resources or ())
        self._path.mkdir(parents=True, exist_ok=True)
        for name in sorted(os.listdir(self._staging)):
            os.replace(self._staging / name, self._path / name)
        os.rmdir(self._staging)
        return self._path

    def abort(self) -> None:
        """Discard the partial store; idempotent, never touches *path*."""
        if self._closed:
            return
        self._closed = True
        for handle in self._files.values():
            handle.close()
        self._files = {}
        shutil.rmtree(self._staging, ignore_errors=True)

    def __enter__(self) -> "TraceStoreBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.finalize()
        return False


# --------------------------------------------------------------------------- #
# JSON round-tripping of the carried objects
# --------------------------------------------------------------------------- #
def _fleet_to_jsonable(fleet: Fleet) -> Dict[str, object]:
    return {
        "clusters": [
            {
                "cluster_id": cluster.cluster_id,
                "region": cluster.region,
                "generation_counts": [[gen, count] for gen, count
                                      in cluster.generation_counts],
                "arrival_weight": cluster.arrival_weight,
            }
            for cluster in fleet.clusters
        ]
    }


def _fleet_from_jsonable(payload: Dict[str, object]) -> Fleet:
    clusters = [
        ClusterConfig(
            cluster_id=entry["cluster_id"],
            region=entry["region"],
            generation_counts=tuple(
                (gen, int(count)) for gen, count in entry["generation_counts"]),
            arrival_weight=float(entry["arrival_weight"]),
        )
        for entry in payload["clusters"]
    ]
    return Fleet(clusters=clusters)


def _subscription_to_jsonable(sub: Subscription) -> Dict[str, str]:
    return {
        "subscription_id": sub.subscription_id,
        "subscription_type": sub.subscription_type.value,
        "archetype": sub.archetype,
        "offering": sub.offering.value,
    }


def _subscription_from_jsonable(payload: Dict[str, str]) -> Subscription:
    return Subscription(
        subscription_id=payload["subscription_id"],
        subscription_type=SubscriptionType(payload["subscription_type"]),
        archetype=payload["archetype"],
        offering=Offering(payload["offering"]),
    )
