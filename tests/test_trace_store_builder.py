"""Streaming TraceStoreBuilder: byte-identity, edge cases, lifecycle.

The builder's contract has three parts, each pinned here:

* **Byte identity** -- the finalized directory (and the generator's
  ``generate_to_store`` output, for every registered scenario) is
  byte-for-byte what saving the eager store of the same VMs writes, so
  ``open(mmap=True)`` reads it unchanged and every downstream
  differential guarantee transfers for free.
* **Validation parity** -- the streaming path raises on exactly what the
  eager path raises on, because both go through the row encoder: a
  repeated id, a cluster outside the fleet, a lifetime outside
  ``[0, n_slots)``, a non-uniform resource set, unequal series coverage,
  telemetry that does not start at the VM's start slot or outlasts its
  lifetime, samples that are not float64.  A rejected VM leaves no row behind: the builder goes
  on as if it had never been offered.
* **Lifecycle** -- an abandoned builder leaves no partial directory
  behind, a killed writer leaves only its ``.building`` staging sibling
  (which the next builder replaces), and a finalized/aborted builder
  refuses further appends.
"""

import signal
import time
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

from repro.core.resources import Resource
from repro.scenarios import get_scenario, scenario_names
from repro.simulator.benchmarking import assert_store_dirs_identical
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.store import TraceStore, TraceStoreBuilder
from repro.trace.timeseries import UtilizationSeries
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord


def build_streamed(trace, path):
    """Stream *trace* through a builder, one VM per append."""
    with TraceStoreBuilder(path, fleet=trace.fleet, n_slots=trace.n_slots,
                           subscriptions=trace.subscriptions) as builder:
        for vm in trace.vms:
            builder.append(vm)
    return path


def clone_with(vm: VMRecord, utilization) -> VMRecord:
    """The same VM carrying *utilization* (assigned unchecked)."""
    clone = VMRecord(
        vm_id=vm.vm_id, subscription_id=vm.subscription_id, config=vm.config,
        cluster_id=vm.cluster_id, start_slot=vm.start_slot,
        end_slot=vm.end_slot, offering=vm.offering,
        subscription_type=vm.subscription_type, server_id=vm.server_id)
    clone.utilization = utilization
    return clone


def retyped_clone(vm: VMRecord, dtype) -> VMRecord:
    """The same VM with its telemetry cast to *dtype* (``from_validated``
    keeps the dtype)."""
    return clone_with(vm, {
        resource: UtilizationSeries.from_validated(
            series.values.astype(dtype), series.start_slot)
        for resource, series in vm.utilization.items()})


#: Sample dtypes a store rejects: a narrower float, and float64 in the
#: non-native byte order, whose raw bytes the builder would otherwise write
#: swapped under the buffer's native-order header.
NON_STORE_DTYPES = [
    pytest.param(np.dtype(np.float32), id="float32"),
    pytest.param(np.dtype(np.float64).newbyteorder(), id="byte-swapped"),
]


def assert_rejected_vm_leaves_no_row(trace, tmp_path, rejected, match, *,
                                     first=False):
    """*rejected*, offered after the first of nine accepted VMs (before all
    of them with *first*), fails both ways in with a ``ValueError`` that
    matches *match*: a ``Trace`` built from the ten records, and a builder
    fed them one by one.  The builder then appends the rest and finalizes,
    and its store must be byte-identical to the eager store of the nine
    accepted VMs.  The rejected VMs below are damaged clones of the second
    accepted one, so a leaked id would also reject that VM as a
    duplicate."""
    accepted = trace.vms[:9]
    offered = list(accepted)
    offered.insert(0 if first else 1, rejected)
    with pytest.raises(ValueError, match=match):
        Trace(vms=offered, fleet=trace.fleet, n_slots=trace.n_slots,
              subscriptions=trace.subscriptions)
    streamed = tmp_path / "streamed"
    builder = TraceStoreBuilder(streamed, fleet=trace.fleet,
                                n_slots=trace.n_slots,
                                subscriptions=trace.subscriptions)
    for i, vm in enumerate(accepted):
        if i == (0 if first else 1):
            with pytest.raises(ValueError, match=match):
                builder.append(rejected)
        builder.append(vm)
    builder.finalize()
    eager = tmp_path / "eager"
    Trace(vms=accepted, fleet=trace.fleet, n_slots=trace.n_slots,
          subscriptions=trace.subscriptions).store.save(eager)
    assert_store_dirs_identical(eager, streamed)


def ingest_until_killed(path, trace, ready) -> None:
    """Spawned writer: stage part of a store, signal, wait to be killed."""
    builder = TraceStoreBuilder(path, fleet=trace.fleet, n_slots=trace.n_slots,
                                subscriptions=trace.subscriptions)
    for vm in trace.vms[:20]:
        builder.append(vm)
    ready.set()
    time.sleep(600)


#: Generator configurations whose streamed store must equal the eager one:
#: a small plain one, and every registered scenario's, which adds what the
#: plain one lacks (allocation classes, surges, flash crowds, heterogeneous
#: fleets) and is the configuration the golden-scenario pins run eagerly.
GENERATOR_CONFIGS = [
    pytest.param(TraceGeneratorConfig(n_vms=60, n_days=5, seed=13,
                                      n_subscriptions=10,
                                      servers_per_cluster=2), id="plain"),
    *(pytest.param(get_scenario(name).generator_config(), id=name)
      for name in scenario_names()),
]


#: The VMRecord fields compared by value, and those that hold an enum
#: member and must come back as that very member, not an equal string.
VALUE_FIELDS = ("vm_id", "subscription_id", "config", "cluster_id",
                "start_slot", "end_slot", "server_id")
ENUM_FIELDS = ("offering", "subscription_type", "allocation_class")


@pytest.fixture(scope="module", params=GENERATOR_CONFIGS)
def generated(request):
    """One generator configuration and the trace it generates eagerly."""
    return request.param, TraceGenerator(request.param).generate()


@pytest.fixture(scope="module")
def eager_dir(tiny_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("eager") / "store"
    tiny_trace.store.save(path)
    return path


class TestByteIdentity:
    def test_builder_matches_eager_save(self, tiny_trace, eager_dir,
                                        tmp_path):
        streamed = build_streamed(tiny_trace, tmp_path / "streamed")
        assert_store_dirs_identical(eager_dir, streamed)

    def test_streamed_store_opens_mmap(self, tiny_trace, tmp_path):
        streamed = build_streamed(tiny_trace, tmp_path / "streamed")
        opened = TraceStore.open(streamed, mmap=True)
        assert len(opened) == len(tiny_trace.vms)
        assert opened.n_slots == tiny_trace.n_slots
        reference = tiny_trace.store
        for resource in reference.resources:
            assert np.array_equal(opened.util[resource],
                                  reference.util[resource])
        assert opened.vm_ids.tolist() == reference.vm_ids.tolist()
        assert np.array_equal(opened.offsets, reference.offsets)

    def test_generate_to_store_matches_eager(self, tmp_path, generated):
        config, trace = generated
        eager = trace.store.save(tmp_path / "eager")
        streamed = TraceGenerator(config).generate_to_store(tmp_path / "stream")
        assert_store_dirs_identical(eager, streamed)

    def test_streamed_store_reads_back_the_generated_trace(self, tmp_path,
                                                          generated):
        """``generate_to_store -> open(mmap=True) -> as_trace`` -- the path
        a sweep worker reads -- returns every generated record: each field,
        each enum as its member, and each series' coverage and samples."""
        config, trace = generated
        streamed = TraceGenerator(config).generate_to_store(tmp_path / "stream")
        read_back = TraceStore.open(streamed, mmap=True).as_trace()
        assert read_back.n_slots == trace.n_slots
        assert read_back.fleet == trace.fleet
        assert read_back.subscriptions == trace.subscriptions
        assert len(read_back.vms) == len(trace.vms)
        for vm, view in zip(trace.vms, read_back.vms):
            for name in VALUE_FIELDS:
                assert getattr(view, name) == getattr(vm, name), \
                    f"VM {vm.vm_id}: {name}"
            for name in ENUM_FIELDS:
                assert getattr(view, name) is getattr(vm, name), \
                    f"VM {vm.vm_id}: {name}"
            assert view.utilization.keys() == vm.utilization.keys()
            for resource, series in vm.utilization.items():
                view_series = view.utilization[resource]
                assert view_series.start_slot == series.start_slot
                assert np.array_equal(view_series.values, series.values)

    def test_save_is_deterministic(self, tiny_trace, eager_dir, tmp_path):
        again = tmp_path / "again"
        TraceStore.from_records(
            tiny_trace.vms, fleet=tiny_trace.fleet, n_slots=tiny_trace.n_slots,
            subscriptions=tiny_trace.subscriptions).save(again)
        assert_store_dirs_identical(eager_dir, again)


class TestEdgeCases:
    def test_empty_trace(self, tiny_trace, tmp_path):
        empty = Trace(vms=[], fleet=tiny_trace.fleet, n_slots=288,
                      subscriptions={})
        eager = tmp_path / "eager"
        empty.store.save(eager)
        streamed = tmp_path / "streamed"
        with TraceStoreBuilder(streamed, fleet=empty.fleet,
                               n_slots=empty.n_slots):
            pass
        assert_store_dirs_identical(eager, streamed)
        opened = TraceStore.open(streamed)
        assert len(opened) == 0
        assert opened.util == {}

    def test_single_vm(self, tiny_trace, tmp_path):
        single = Trace(vms=tiny_trace.vms[:1], fleet=tiny_trace.fleet,
                       n_slots=tiny_trace.n_slots,
                       subscriptions=tiny_trace.subscriptions)
        eager = tmp_path / "eager"
        single.store.save(eager)
        streamed = build_streamed(single, tmp_path / "streamed")
        assert_store_dirs_identical(eager, streamed)

    @pytest.mark.parametrize("first", [False, True])
    @pytest.mark.parametrize("dtype", NON_STORE_DTYPES)
    def test_non_float64_series_raises(self, tiny_trace, tmp_path, dtype,
                                       first):
        # Rejected as the first VM too: the stream has no dtype to latch.
        assert_rejected_vm_leaves_no_row(
            tiny_trace, tmp_path, retyped_clone(tiny_trace.vms[1], dtype),
            f"VM {tiny_trace.vms[1].vm_id}: cpu series holds {dtype} ",
            first=first)

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

    def test_cluster_outside_the_fleet_raises(self, tiny_trace, tmp_path):
        stray = replace(tiny_trace.vms[1], cluster_id="C99")
        assert_rejected_vm_leaves_no_row(
            tiny_trace, tmp_path, stray,
            f"VM {stray.vm_id} runs in cluster 'C99', which is not in the "
            f"fleet")

    def test_end_past_the_horizon_raises(self, tiny_trace, tmp_path):
        late = replace(tiny_trace.vms[1], end_slot=tiny_trace.n_slots + 1)
        assert_rejected_vm_leaves_no_row(
            tiny_trace, tmp_path, late,
            rf"VM {late.vm_id} lives in \[{late.start_slot}, "
            rf"{tiny_trace.n_slots + 1}\), outside the trace's slots "
            rf"\[0, {tiny_trace.n_slots}\)")

    def test_start_before_slot_zero_raises(self, tiny_trace, tmp_path):
        """A VM and its telemetry from slot -5: the dense demand matrix
        would wrap its first samples around to the trace's last slots."""
        source = tiny_trace.vms[1]
        early = clone_with(replace(source, start_slot=-5), {
            resource: UtilizationSeries.from_validated(
                np.concatenate([np.full(source.start_slot + 5, 0.5),
                                series.values]), -5)
            for resource, series in source.utilization.items()})
        assert_rejected_vm_leaves_no_row(
            tiny_trace, tmp_path, early,
            rf"VM {source.vm_id} lives in \[-5, {source.end_slot}\), "
            rf"outside the trace's slots \[0, {tiny_trace.n_slots}\)")

    def test_series_not_starting_at_start_slot_raises(self, tiny_trace,
                                                      tmp_path):
        """Telemetry that begins a slot after the VM, within its lifetime."""
        source = tiny_trace.vms[1]
        shifted = clone_with(source, {
            resource: UtilizationSeries.from_validated(
                series.values[:-1], series.start_slot + 1)
            for resource, series in source.utilization.items()})
        assert_rejected_vm_leaves_no_row(
            tiny_trace, tmp_path, shifted,
            f"VM {source.vm_id}: telemetry covers "
            rf"\[{source.start_slot + 1}, {source.end_slot}\), but must "
            f"start at the VM's start slot {source.start_slot}")

    def test_series_longer_than_lifetime_raises(self, tiny_trace, tmp_path):
        source = tiny_trace.vms[1]
        cut = replace(source, end_slot=source.end_slot - 1)
        assert_rejected_vm_leaves_no_row(
            tiny_trace, tmp_path, cut,
            f"VM {source.vm_id}: .* hold 1 to {cut.lifetime_slots} samples")


class TestLifecycle:
    def test_abandoned_builder_leaves_no_partial_directory(self, tiny_trace,
                                                           tmp_path):
        target = tmp_path / "store"
        builder = TraceStoreBuilder(target, fleet=tiny_trace.fleet,
                                    n_slots=tiny_trace.n_slots)
        for vm in tiny_trace.vms[:5]:
            builder.append(vm)
        builder.abort()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_exception_in_context_aborts(self, tiny_trace, tmp_path):
        target = tmp_path / "store"
        with pytest.raises(RuntimeError, match="mid-ingest failure"):
            with TraceStoreBuilder(target, fleet=tiny_trace.fleet,
                                   n_slots=tiny_trace.n_slots) as builder:
                for vm in tiny_trace.vms[:5]:
                    builder.append(vm)
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
        build_streamed(tiny_trace, target)
        assert_store_dirs_identical(eager_dir, target)
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
        for vm in tiny_trace.vms[:4]:
            builder.append(vm)
        assert builder.n_vms == 4
        assert builder.n_samples == sum(
            len(next(iter(vm.utilization.values())))
            for vm in tiny_trace.vms[:4])
        builder.abort()
