"""Streaming TraceStoreBuilder: byte-identity, edge cases, lifecycle.

The builder's contract has three parts, each pinned here:

* **Byte identity** -- for any append chunking (and for the generator's
  ``generate_to_store`` at any ``batch_vms``), the finalized directory is
  byte-for-byte what ``TraceStore.from_trace(trace).save(path)`` writes,
  so ``open(mmap=True)`` reads it unchanged and every downstream
  differential guarantee transfers for free.
* **Validation parity** -- the streaming path raises on exactly what the
  eager path raises on (duplicate ids, non-uniform resource sets, unequal
  series coverage), plus the documented streaming restriction (mixed
  source dtypes need an explicit ``util_dtype``).  A rejected VM leaves no
  row behind: the builder goes on as if it had never been offered.
* **Lifecycle** -- an abandoned builder leaves no partial directory
  behind, a killed writer leaves only its ``.building`` staging sibling
  (which the next builder replaces), and a finalized/aborted builder
  refuses further appends.
"""

import signal
import time
from multiprocessing import get_context

import numpy as np
import pytest

from repro.core.resources import Resource
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.store import TraceStore, TraceStoreBuilder
from repro.trace.timeseries import UtilizationSeries
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord


def build_streamed(trace, path, chunk):
    """Stream *trace* through a builder in appends of *chunk* VMs."""
    with TraceStoreBuilder(path, fleet=trace.fleet, n_slots=trace.n_slots,
                           subscriptions=trace.subscriptions) as builder:
        for i in range(0, len(trace.vms), chunk):
            builder.append_many(trace.vms[i:i + chunk])
    return path


def assert_dirs_byte_identical(reference, candidate):
    ref_names = sorted(p.name for p in reference.iterdir())
    assert ref_names == sorted(p.name for p in candidate.iterdir())
    for name in ref_names:
        assert (reference / name).read_bytes() == \
            (candidate / name).read_bytes(), f"{name} differs byte-wise"


def clone_with(vm: VMRecord, utilization) -> VMRecord:
    """The same VM carrying *utilization* (assigned unchecked)."""
    clone = VMRecord(
        vm_id=vm.vm_id, subscription_id=vm.subscription_id, config=vm.config,
        cluster_id=vm.cluster_id, start_slot=vm.start_slot,
        end_slot=vm.end_slot, offering=vm.offering,
        subscription_type=vm.subscription_type, server_id=vm.server_id)
    clone.utilization = utilization
    return clone


def float32_clone(vm: VMRecord) -> VMRecord:
    """The same VM with float32 telemetry (``from_validated`` keeps dtype)."""
    return clone_with(vm, {
        resource: UtilizationSeries.from_validated(
            series.values.astype(np.float32), series.start_slot)
        for resource, series in vm.utilization.items()})


def assert_rejected_vm_leaves_no_row(trace, tmp_path, rejected, match):
    """Append one VM, offer *rejected*, append eight more and finalize: the
    store must be byte-identical to the eager store of the nine accepted
    VMs.  The rejected VMs below are damaged clones of the second accepted
    one, so a leaked id would also reject that VM as a duplicate."""
    accepted = trace.vms[:9]
    streamed = tmp_path / "streamed"
    builder = TraceStoreBuilder(streamed, fleet=trace.fleet,
                                n_slots=trace.n_slots,
                                subscriptions=trace.subscriptions)
    builder.append(accepted[0])
    with pytest.raises(ValueError, match=match):
        builder.append(rejected)
    builder.append_many(accepted[1:])
    builder.finalize()
    eager = tmp_path / "eager"
    TraceStore.from_trace(Trace(vms=accepted, fleet=trace.fleet,
                                n_slots=trace.n_slots,
                                subscriptions=trace.subscriptions)).save(eager)
    assert_dirs_byte_identical(eager, streamed)


def ingest_until_killed(path, trace, ready) -> None:
    """Spawned writer: stage part of a store, signal, wait to be killed."""
    builder = TraceStoreBuilder(path, fleet=trace.fleet, n_slots=trace.n_slots,
                                subscriptions=trace.subscriptions)
    builder.append_many(trace.vms[:20])
    ready.set()
    time.sleep(600)


@pytest.fixture(scope="module")
def eager_dir(tiny_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("eager") / "store"
    TraceStore.from_trace(tiny_trace).save(path)
    return path


class TestByteIdentity:
    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_any_chunking_matches_from_trace_save(self, tiny_trace, eager_dir,
                                                  tmp_path, chunk):
        streamed = build_streamed(tiny_trace, tmp_path / "streamed", chunk)
        assert_dirs_byte_identical(eager_dir, streamed)

    def test_streamed_store_opens_mmap(self, tiny_trace, tmp_path):
        streamed = build_streamed(tiny_trace, tmp_path / "streamed", 16)
        opened = TraceStore.open(streamed, mmap=True)
        assert len(opened) == len(tiny_trace.vms)
        assert opened.n_slots == tiny_trace.n_slots
        reference = TraceStore.from_trace(tiny_trace)
        for resource in reference.resources:
            assert np.array_equal(opened.util[resource],
                                  reference.util[resource])
        assert opened.vm_ids.tolist() == reference.vm_ids.tolist()
        assert np.array_equal(opened.offsets, reference.offsets)

    def test_generate_to_store_matches_eager_for_any_batch(self, tmp_path):
        config = TraceGeneratorConfig(n_vms=60, n_days=5, seed=13,
                                      n_subscriptions=10,
                                      servers_per_cluster=2)
        eager = tmp_path / "eager"
        trace = TraceGenerator(config).generate()
        TraceStore.from_trace(trace).save(eager)
        for batch_vms in (1, 17, 4096):
            out = tmp_path / f"stream-{batch_vms}"
            TraceGenerator(config).generate_to_store(out, batch_vms=batch_vms)
            assert_dirs_byte_identical(eager, out)

    def test_save_is_deterministic(self, tiny_trace, eager_dir, tmp_path):
        again = tmp_path / "again"
        TraceStore.from_trace(tiny_trace).save(again)
        assert_dirs_byte_identical(eager_dir, again)


class TestEdgeCases:
    def test_empty_trace(self, tiny_trace, tmp_path):
        empty = Trace(vms=[], fleet=tiny_trace.fleet, n_slots=288,
                      subscriptions={})
        eager = tmp_path / "eager"
        TraceStore.from_trace(empty).save(eager)
        streamed = tmp_path / "streamed"
        with TraceStoreBuilder(streamed, fleet=empty.fleet,
                               n_slots=empty.n_slots):
            pass
        assert_dirs_byte_identical(eager, streamed)
        opened = TraceStore.open(streamed)
        assert len(opened) == 0
        assert opened.util == {}
        assert opened.util_dtype == np.dtype(np.float64)

    def test_single_vm(self, tiny_trace, tmp_path):
        single = Trace(vms=tiny_trace.vms[:1], fleet=tiny_trace.fleet,
                       n_slots=tiny_trace.n_slots,
                       subscriptions=tiny_trace.subscriptions)
        eager = tmp_path / "eager"
        TraceStore.from_trace(single).save(eager)
        streamed = build_streamed(single, tmp_path / "streamed", 1)
        assert_dirs_byte_identical(eager, streamed)

    def test_float32_source_dtype_streams_unchanged(self, tiny_trace, tmp_path):
        vms = [float32_clone(vm) for vm in tiny_trace.vms[:12]]
        trace = Trace(vms=vms, fleet=tiny_trace.fleet,
                      n_slots=tiny_trace.n_slots,
                      subscriptions=tiny_trace.subscriptions)
        eager = tmp_path / "eager"
        TraceStore.from_trace(trace).save(eager)
        streamed = build_streamed(trace, tmp_path / "streamed", 5)
        assert_dirs_byte_identical(eager, streamed)
        assert TraceStore.open(streamed).util_dtype == np.dtype(np.float32)

    def test_util_dtype_cast_matches_eager_cast(self, tiny_trace, tmp_path):
        eager = tmp_path / "eager"
        TraceStore.from_trace(tiny_trace, util_dtype=np.float32).save(eager)
        streamed = tmp_path / "streamed"
        with TraceStoreBuilder(streamed, fleet=tiny_trace.fleet,
                               n_slots=tiny_trace.n_slots,
                               subscriptions=tiny_trace.subscriptions,
                               util_dtype=np.float32) as builder:
            builder.append_many(tiny_trace.vms)
        assert_dirs_byte_identical(eager, streamed)

    def test_mixed_source_dtype_raises_without_util_dtype(self, tiny_trace,
                                                          tmp_path):
        # The float64 first VM fixes the stream dtype.
        assert_rejected_vm_leaves_no_row(
            tiny_trace, tmp_path, float32_clone(tiny_trace.vms[1]),
            "pass util_dtype")

    def test_non_uniform_resource_set_raises(self, tiny_trace, tmp_path):
        source = tiny_trace.vms[1]
        stripped = clone_with(source, dict(list(source.utilization.items())[:1]))
        assert_rejected_vm_leaves_no_row(tiny_trace, tmp_path, stripped,
                                         "uniform resource set")

    def test_unequal_series_coverage_raises(self, tiny_trace, tmp_path):
        source = tiny_trace.vms[1]
        utilization = dict(source.utilization)
        cpu = utilization[Resource.CPU]
        utilization[Resource.MEMORY] = UtilizationSeries.from_validated(
            cpu.values[:-1], cpu.start_slot)
        assert_rejected_vm_leaves_no_row(tiny_trace, tmp_path,
                                         clone_with(source, utilization),
                                         "equal coverage")

    def test_duplicate_vm_id_raises(self, tiny_trace, tmp_path):
        assert_rejected_vm_leaves_no_row(tiny_trace, tmp_path,
                                         tiny_trace.vms[0], "duplicate VM id")


class TestLifecycle:
    def test_abandoned_builder_leaves_no_partial_directory(self, tiny_trace,
                                                           tmp_path):
        target = tmp_path / "store"
        builder = TraceStoreBuilder(target, fleet=tiny_trace.fleet,
                                    n_slots=tiny_trace.n_slots)
        builder.append_many(tiny_trace.vms[:5])
        builder.abort()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_exception_in_context_aborts(self, tiny_trace, tmp_path):
        target = tmp_path / "store"
        with pytest.raises(RuntimeError, match="mid-ingest failure"):
            with TraceStoreBuilder(target, fleet=tiny_trace.fleet,
                                   n_slots=tiny_trace.n_slots) as builder:
                builder.append_many(tiny_trace.vms[:5])
                raise RuntimeError("mid-ingest failure")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_killed_writer_leaves_only_the_staging_directory(
            self, tiny_trace, eager_dir, tmp_path):
        """A writer SIGKILLed mid-ingest runs no cleanup: only its
        ``<path>.building`` sibling remains, and the next builder for the
        same path replaces it and writes the eager store's bytes."""
        target = tmp_path / "store"
        context = get_context("spawn")
        ready = context.Event()
        writer = context.Process(target=ingest_until_killed,
                                 args=(target, tiny_trace, ready))
        writer.start()
        try:
            staged = ready.wait(timeout=120)
        finally:
            writer.kill()
            writer.join(timeout=60)
        assert staged, "the writer never staged its first VMs"
        assert writer.exitcode == -signal.SIGKILL
        assert [p.name for p in tmp_path.iterdir()] == ["store.building"]
        build_streamed(tiny_trace, target, 7)
        assert_dirs_byte_identical(eager_dir, target)
        assert [p.name for p in tmp_path.iterdir()] == ["store"]

    def test_append_after_finalize_raises(self, tiny_trace, tmp_path):
        builder = TraceStoreBuilder(tmp_path / "store",
                                    fleet=tiny_trace.fleet,
                                    n_slots=tiny_trace.n_slots,
                                    subscriptions=tiny_trace.subscriptions)
        builder.append(tiny_trace.vms[0])
        builder.finalize()
        with pytest.raises(RuntimeError, match="already finalized"):
            builder.append(tiny_trace.vms[1])
        with pytest.raises(RuntimeError, match="already finalized"):
            builder.finalize()

    def test_abort_after_finalize_keeps_the_store(self, tiny_trace, tmp_path):
        target = tmp_path / "store"
        builder = TraceStoreBuilder(target, fleet=tiny_trace.fleet,
                                    n_slots=tiny_trace.n_slots)
        builder.append(tiny_trace.vms[0])
        builder.finalize()
        builder.abort()  # idempotent no-op after finalize
        assert TraceStore.open(target).n_vms == 1

    def test_builder_counters(self, tiny_trace, tmp_path):
        builder = TraceStoreBuilder(tmp_path / "store",
                                    fleet=tiny_trace.fleet,
                                    n_slots=tiny_trace.n_slots)
        builder.append_many(tiny_trace.vms[:4])
        assert builder.n_vms == 4
        assert builder.n_samples == sum(
            len(next(iter(vm.utilization.values())))
            for vm in tiny_trace.vms[:4])
        builder.abort()
