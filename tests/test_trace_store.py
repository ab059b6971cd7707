"""Columnar trace store: views, filters, persistence, sweep staging.

Three contracts are pinned here:

* **Equivalence** -- a store exposes the same VMs, in the same order, with
  byte-identical telemetry as the records it was encoded from, and every
  vectorized filter selects exactly what the seed's per-VM loop over
  ``trace.vms`` selects (the loops live on here as the oracles).  Replay
  from an mmap-backed store is bitwise identical to replay in RAM.
* **Persistence** -- save -> open round-trips everything (dense and mmap),
  open() rejects a damaged store by name instead of returning one that
  fails later, and the store a pooled sweep stages for its workers never
  outlives the sweep: not on success, a failing policy, a dead worker, or
  a damaged staged file.
* **Validation** -- non-uniform or non-float64 telemetry and duplicate VM
  ids fail loudly when a trace is built, not silently downstream.
"""

import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from repro.characterization import reference_resource_hours_by_duration
from repro.core.policy import COACH_POLICY, NO_OVERSUBSCRIPTION_POLICY, PolicyConfig
from repro.core.resources import Resource
from repro.experiments.figures import figure02_duration
from repro.simulator import sweep as sweep_module
from repro.simulator.benchmarking import measure_sweep_task_footprint
from repro.simulator import (
    PolicySweepError,
    SimulationConfig,
    simulate_policy,
    sweep_policies,
)
from repro.trace.store import STORE_FORMAT_VERSION, TraceStore
from repro.trace.timeseries import UtilizationSeries
from repro.trace.trace import Trace
from repro.trace.vm import VM_CATALOG, VMRecord


@pytest.fixture(scope="module")
def store(tiny_trace):
    return TraceStore.from_trace(tiny_trace)


@pytest.fixture(scope="module")
def store_trace(store):
    return store.as_trace()


class TestColumnarViews:
    def test_row_views_match_source_records(self, tiny_trace, store_trace):
        assert len(store_trace) == len(tiny_trace)
        for vm, view in zip(tiny_trace.vms, store_trace.vms):
            assert view.vm_id == vm.vm_id
            assert view.subscription_id == vm.subscription_id
            assert view.config == vm.config
            assert view.cluster_id == vm.cluster_id
            assert view.start_slot == vm.start_slot
            assert view.end_slot == vm.end_slot
            assert view.offering == vm.offering
            assert view.subscription_type == vm.subscription_type
            assert view.allocation_class == vm.allocation_class
            assert view.server_id == vm.server_id
            for resource, series in vm.utilization.items():
                view_series = view.utilization[resource]
                assert view_series.start_slot == series.start_slot
                np.testing.assert_array_equal(view_series.values, series.values)

    def test_views_share_the_flat_buffer(self, store, store_trace):
        """Telemetry is not copied: every series is a slice of the buffer."""
        for view in store_trace.vms[:20]:
            for resource, series in view.utilization.items():
                assert series.values.base is store.util[resource]

    def test_telemetry_buffers_are_float64(self, store):
        for buffer in store.util.values():
            assert buffer.dtype == np.float64

    def test_offsets_are_canonical(self, store):
        offsets = store.offsets
        assert offsets.shape == (len(store) + 1,)
        assert offsets[0] == 0
        np.testing.assert_array_equal(np.diff(offsets), store.row_length)
        for buffer in store.util.values():
            assert buffer.size == offsets[-1]

    def test_non_uniform_resource_set_rejected(self, tiny_trace):
        vms = [tiny_trace.vms[0], tiny_trace.vms[1]]
        stripped = VMRecord(
            vm_id="stripped", subscription_id="s", config=vms[0].config,
            cluster_id=vms[0].cluster_id, start_slot=vms[0].start_slot,
            end_slot=vms[0].end_slot,
            utilization={Resource.CPU: vms[0].utilization[Resource.CPU]})
        with pytest.raises(ValueError, match="uniform resource set"):
            Trace(vms=vms + [stripped], fleet=tiny_trace.fleet,
                  n_slots=tiny_trace.n_slots)

    def test_unequal_series_coverage_rejected(self, tiny_trace):
        source = tiny_trace.vms[0]
        utilization = dict(source.utilization)
        cpu = utilization[Resource.CPU]
        utilization[Resource.MEMORY] = UtilizationSeries(
            cpu.values[:-1] if len(cpu) > 1 else cpu.values, cpu.start_slot + 1)
        lopsided = VMRecord(
            vm_id="lopsided", subscription_id="s", config=source.config,
            cluster_id=source.cluster_id, start_slot=source.start_slot,
            end_slot=source.end_slot, utilization=utilization)
        with pytest.raises(ValueError, match="equal coverage"):
            Trace(vms=[lopsided], fleet=tiny_trace.fleet,
                  n_slots=tiny_trace.n_slots)

    @pytest.mark.parametrize("dtype", [
        pytest.param(np.dtype(np.float32), id="float32"),
        pytest.param(np.dtype(np.float64).newbyteorder(), id="byte-swapped"),
    ])
    def test_non_float64_series_rejected(self, tiny_trace, dtype):
        source = tiny_trace.vms[0]
        utilization = dict(source.utilization)
        memory = utilization[Resource.MEMORY]
        utilization[Resource.MEMORY] = UtilizationSeries.from_validated(
            memory.values.astype(dtype), memory.start_slot)
        narrowed = VMRecord(
            vm_id="narrowed", subscription_id="s", config=source.config,
            cluster_id=source.cluster_id, start_slot=source.start_slot,
            end_slot=source.end_slot, utilization=utilization)
        with pytest.raises(ValueError,
                           match=f"VM narrowed: memory series holds {dtype} "):
            Trace(vms=[tiny_trace.vms[1], narrowed],
                  fleet=tiny_trace.fleet, n_slots=tiny_trace.n_slots)

    def test_duplicate_ids_rejected(self, tiny_trace):
        store = TraceStore.from_trace(tiny_trace)
        store.vm_ids[1] = store.vm_ids[0]
        with pytest.raises(ValueError, match="duplicate VM id"):
            TraceStore.from_trace(store.as_trace())


class TestOneLayout:
    """Every trace carries a store; one built from records encodes them."""

    def test_trace_from_records_encodes_a_store(self, tiny_trace):
        records = [replace(vm) for vm in tiny_trace.vms[:5]]
        trace = Trace(vms=records, fleet=tiny_trace.fleet,
                      n_slots=tiny_trace.n_slots)
        assert len(trace.store) == 5
        assert trace.vms is not records
        for record, view in zip(records, trace.vms):
            assert view.vm_id == record.vm_id
            for resource, series in view.utilization.items():
                assert series.values.base is trace.store.util[resource]
                np.testing.assert_array_equal(
                    series.values, record.utilization[resource].values)

    def test_trace_given_a_store_does_no_per_vm_work(self, store, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trace given its store re-encoded it")

        monkeypatch.setattr(TraceStore, "from_trace", refuse)
        trace = store.as_trace()
        assert trace.store is store
        assert len(trace.long_running(0.0)) == len(store)

    def test_filters_on_a_trace_without_vms(self, tiny_trace):
        empty = Trace(vms=[], fleet=tiny_trace.fleet, n_slots=tiny_trace.n_slots)
        assert empty.store.util == {}
        assert empty.alive_at(0) == []
        assert empty.arriving_in(0, empty.n_slots) == []
        assert len(empty.long_running()) == 0
        assert [len(side) for side in empty.split_at(1)] == [0, 0]
        assert len(empty.in_cluster(empty.cluster_ids()[0])) == 0
        matrix = empty.utilization_matrix(Resource.CPU)
        assert matrix.shape == (0, empty.n_slots)


def _boundary_slots(trace):
    """Slots where some VM starts or ends, plus the horizon's edges: where
    a filter comparing the wrong way round selects a different VM set."""
    slots = {0, trace.n_slots // 2, trace.n_slots - 1}
    for vm in trace.vms[:10]:
        slots.update((vm.start_slot, vm.end_slot - 1, vm.end_slot))
    return sorted(slots)


class TestVectorizedFilters:
    """Each column filter against the per-VM loop it replaced.  The loops
    walk ``trace.vms`` and ask each record, so they are independent of the
    store's columns."""

    def test_alive_at_matches_object_loop(self, store_trace):
        for slot in _boundary_slots(store_trace):
            expected = [vm.vm_id for vm in store_trace.vms if vm.alive_at(slot)]
            assert [vm.vm_id for vm in store_trace.alive_at(slot)] == expected

    def test_alive_at_returns_the_trace_own_records(self, store_trace):
        vm = store_trace.vms[0]
        mid = (vm.start_slot + vm.end_slot) // 2
        assert any(found is vm for found in store_trace.alive_at(mid))

    def test_arriving_in_matches_object_loop(self, store_trace):
        windows = [(0, 1), (100, 500), (0, store_trace.n_slots)]
        for slot in _boundary_slots(store_trace):
            windows += [(slot - 1, slot), (slot, slot + 1)]
        for start, end in windows:
            expected = [vm.vm_id for vm in store_trace.vms
                        if start <= vm.start_slot < end]
            assert [vm.vm_id
                    for vm in store_trace.arriving_in(start, end)] == expected

    def test_long_running_matches_object_loop(self, store_trace):
        # Some VM's exact lifetime among the thresholds: the boundary case.
        exact = store_trace.vms[0].lifetime_days
        for min_days in (0.5, 1.0, 3.0, exact):
            expected = [vm.vm_id for vm in store_trace.vms
                        if vm.is_long_running(min_days)]
            selected = store_trace.long_running(min_days)
            assert [vm.vm_id for vm in selected] == expected

    def test_in_cluster_matches_object_loop(self, store_trace):
        for cluster_id in store_trace.cluster_ids():
            expected = [vm.vm_id for vm in store_trace.vms
                        if vm.cluster_id == cluster_id]
            assert [vm.vm_id
                    for vm in store_trace.in_cluster(cluster_id)] == expected

    def test_in_cluster_unknown_id_is_empty(self, store_trace):
        assert len(store_trace.in_cluster("no-such-cluster")) == 0

    def test_split_at_matches_object_loop(self, store_trace):
        for split in (store_trace.n_slots // 3, store_trace.vms[0].start_slot):
            before, after = store_trace.split_at(split)
            assert [vm.vm_id for vm in before] == [
                vm.vm_id for vm in store_trace.vms if vm.start_slot < split]
            assert [vm.vm_id for vm in after] == [
                vm.vm_id for vm in store_trace.vms if vm.start_slot >= split]

    def test_generic_filter_matches_and_keeps_store(self, store_trace):
        predicate = lambda vm: vm.config.cores >= 4
        expected = [vm.vm_id for vm in store_trace.vms if predicate(vm)]
        filtered = store_trace.filter(predicate)
        assert [vm.vm_id for vm in filtered] == expected
        assert len(filtered.store) == len(filtered)
        # ... and the selection's telemetry still views the parent buffer.
        if len(filtered):
            series = filtered.vms[0].utilization[Resource.CPU]
            assert series.values.base is store_trace.store.util[Resource.CPU]

    def test_vm_by_id_o1_index(self, tiny_trace, store_trace):
        vm = tiny_trace.vms[len(tiny_trace.vms) // 2]
        assert store_trace.vm_by_id(vm.vm_id).vm_id == vm.vm_id
        with pytest.raises(KeyError):
            store_trace.vm_by_id("vm-does-not-exist")

    def test_duplicate_id_rejected_at_trace_construction(self, tiny_trace):
        vm = tiny_trace.vms[0]
        with pytest.raises(ValueError, match="duplicate VM id"):
            Trace(vms=[vm, vm], fleet=tiny_trace.fleet,
                  n_slots=tiny_trace.n_slots)


class TestDifferential:
    """Results over the store pinned bitwise against per-VM loops."""

    def test_characterization_bitwise_identical(self, store_trace):
        assert figure02_duration(store_trace) == \
            reference_resource_hours_by_duration(store_trace)

    def test_mmap_replay_bitwise_identical(self, tiny_trace, store, tmp_path):
        config = SimulationConfig(clusters=tiny_trace.cluster_ids()[:2],
                                  n_estimators=2)
        reference = simulate_policy(tiny_trace, COACH_POLICY, config)
        store.save(tmp_path / "store")
        mapped = TraceStore.open(tmp_path / "store", mmap=True)
        streamed = simulate_policy(
            mapped.as_trace(), COACH_POLICY,
            replace(config, replay_chunk_slots=113))
        assert streamed == reference


def _edit_columns(edit):
    """A damage that rewrites ``columns.npz`` after *edit* mutates it."""
    def damage(path):
        with np.load(path / "columns.npz") as npz:
            members = {name: npz[name] for name in npz.files}
        edit(members)
        np.savez(path / "columns.npz", **members)
    return damage


def _set_first(column, value):
    def edit(members):
        members[column][0] = value
    return edit


def _decrease_offsets(members):
    members["offsets"][1] = members["offsets"][-1] + 1


def _empty_row(members):
    """VM 1 keeps its offset but hands all its samples to VM 2."""
    members["offsets"][2] = members["offsets"][1]


def _edit_meta(edit):
    """A damage that rewrites ``meta.json`` as *edit* of the parsed one."""
    def damage(path):
        meta = json.loads((path / "meta.json").read_text())
        (path / "meta.json").write_text(json.dumps(edit(meta)))
    return damage


def _truncate(name):
    """A damage that cuts file *name* in half."""
    def damage(path):
        data = (path / name).read_bytes()
        (path / name).write_bytes(data[:len(data) // 2])
    return damage


def _shorten_buffer(path):
    """A well-formed ``.npy`` buffer one sample short of the offsets."""
    np.save(path / "util_cpu.npy", np.load(path / "util_cpu.npy")[:-1])


def _retype_buffer(dtype):
    """The CPU buffer rewritten as *dtype*, every sample in place."""
    def damage(path):
        np.save(path / "util_cpu.npy",
                np.load(path / "util_cpu.npy").astype(dtype))
    return damage


#: Damage applied to a saved store, and the file or column open() must name.
STORE_DAMAGE = [
    pytest.param(_shorten_buffer, "util_cpu.npy", id="short-buffer"),
    pytest.param(_truncate("util_ssd.npy"), "util_ssd.npy",
                 id="truncated-buffer"),
    pytest.param(lambda path: (path / "util_memory.npy").unlink(),
                 "util_memory.npy", id="missing-buffer"),
    pytest.param(_retype_buffer(np.float32), "util_cpu.npy",
                 id="float32-buffer"),
    # Equal values and itemsize, so only the dtype check can tell.
    pytest.param(_retype_buffer(np.dtype(np.float64).newbyteorder()),
                 "util_cpu.npy", id="byte-swapped-buffer"),
    pytest.param(_truncate("meta.json"), "meta.json", id="truncated-meta"),
    pytest.param(_edit_columns(lambda m: m.update(
        start_slot=m["start_slot"][:-1])), "'start_slot'", id="short-column"),
    pytest.param(_edit_columns(lambda m: m.pop("alloc_class_code")),
                 "'alloc_class_code'", id="missing-column"),
    pytest.param(_edit_columns(lambda m: m.update(offsets=m["offsets"] + 1)),
                 "'offsets'", id="offsets-not-at-zero"),
    pytest.param(_edit_columns(_decrease_offsets), "'offsets'",
                 id="offsets-decrease"),
    pytest.param(_edit_columns(_empty_row), "'offsets'",
                 id="zero-length-row"),
    pytest.param(_edit_meta(lambda meta: {key: value
                                          for key, value in meta.items()
                                          if key != "format_version"}),
                 "meta.json", id="meta-missing-key"),
    pytest.param(_edit_meta(list), "meta.json", id="meta-not-an-object"),
    pytest.param(_edit_meta(lambda meta: {**meta, "resources": 5}),
                 "meta.json key 'resources'", id="meta-resources-not-a-list"),
    pytest.param(_edit_meta(lambda meta: {**meta, "fleet": None}),
                 "meta.json key 'fleet'", id="meta-fleet-null"),
    pytest.param(_edit_meta(lambda meta: {**meta, "n_slots": None}),
                 "meta.json key 'n_slots'", id="meta-n-slots-null"),
    pytest.param(_edit_meta(lambda meta: {**meta, "n_slots": 0}),
                 "meta.json key 'n_slots'", id="meta-n-slots-zero"),
    pytest.param(_edit_meta(lambda meta: {**meta, "n_slots": -5}),
                 "meta.json key 'n_slots'", id="meta-n-slots-negative"),
    pytest.param(_edit_meta(lambda meta: {**meta, "n_vms": "x"}),
                 "meta.json key 'n_vms'", id="meta-n-vms-not-an-int"),
    pytest.param(_edit_meta(lambda meta: {**meta, "fleet": {}}),
                 "meta.json key 'fleet'", id="meta-fleet-without-clusters"),
    pytest.param(_edit_meta(lambda meta: {**meta,
                                          "resources": ["cpu", "gpu"]}),
                 "meta.json key 'resources'", id="meta-unknown-resource"),
    pytest.param(_edit_columns(_set_first("config_index", -1)),
                 "'config_index'", id="index-outside-table"),
    pytest.param(_edit_columns(_set_first("offering_code", 99)),
                 "'offering_code'", id="code-outside-table"),
]


class TestPersistence:
    def test_save_open_round_trip(self, tiny_trace, store, tmp_path):
        store.save(tmp_path / "store")
        loaded = TraceStore.open(tmp_path / "store")
        self._assert_stores_equal(loaded, store)
        reloaded = loaded.as_trace()
        assert [vm.vm_id for vm in reloaded] == [vm.vm_id for vm in tiny_trace]
        assert reloaded.fleet.cluster_ids() == tiny_trace.fleet.cluster_ids()
        assert reloaded.subscriptions == tiny_trace.subscriptions
        sample = reloaded.vms[0]
        source = tiny_trace.vms[0]
        assert sample.config == source.config
        assert sample.offering == source.offering
        assert sample.subscription_type == source.subscription_type

    def test_open_mmap_is_lazy_and_equal(self, store, tmp_path):
        store.save(tmp_path / "store")
        mapped = TraceStore.open(tmp_path / "store", mmap=True)
        for resource, buffer in mapped.util.items():
            assert isinstance(buffer.base, np.memmap)
            np.testing.assert_array_equal(np.asarray(buffer),
                                          store.util[resource])

    def test_open_mmap_rows_are_plain_views(self, store, tmp_path):
        """A mapped store's row series are plain ndarray slices of the
        mapping, not np.memmap slices: those run Python-level code per row,
        which made a sweep worker's open + as_trace several times slower."""
        store.save(tmp_path / "store")
        mapped = TraceStore.open(tmp_path / "store", mmap=True)
        for view in mapped.as_trace().vms[:20]:
            for resource, series in view.utilization.items():
                assert type(series.values) is np.ndarray
                assert series.values.base is mapped.util[resource]

    def test_selection_save_compacts(self, store_trace, tmp_path):
        selection = store_trace.long_running()
        selection.store.save(tmp_path / "selection")
        loaded = TraceStore.open(tmp_path / "selection")
        assert len(loaded) == len(selection)
        reloaded = loaded.as_trace()
        for vm, view in zip(selection.vms, reloaded.vms):
            assert vm.vm_id == view.vm_id
            np.testing.assert_array_equal(
                view.utilization[Resource.CPU].values,
                vm.utilization[Resource.CPU].values)

    def test_unknown_format_version_rejected(self, store, tmp_path):
        """Another format version is reported as such, even when its
        ``meta.json`` lacks keys this version reads."""
        store.save(tmp_path / "store")
        meta = (tmp_path / "store" / "meta.json")
        meta.write_text(meta.read_text().replace(
            f'"format_version": {STORE_FORMAT_VERSION}',
            '"format_version": 99'))
        with pytest.raises(ValueError, match="format version"):
            TraceStore.open(tmp_path / "store")
        _edit_meta(lambda meta: {key: value for key, value in meta.items()
                                 if key != "allocation_class_values"})(
            tmp_path / "store")
        with pytest.raises(ValueError, match="format version 99"):
            TraceStore.open(tmp_path / "store")

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("damage, culprit", STORE_DAMAGE)
    def test_damaged_store_rejected(self, store, tmp_path, damage, culprit,
                                    mmap):
        """open() checks every file against meta.json and names the store
        and the file or column at fault, instead of returning a store that
        fails later in replay."""
        path = store.save(tmp_path / "store")
        damage(path)
        with pytest.raises(ValueError) as info:
            TraceStore.open(path, mmap=mmap)
        assert str(path) in str(info.value)
        assert culprit in str(info.value)

    def test_reordered_enum_tables_rejected(self, store, tmp_path):
        """A store written with different enum code tables must not be
        silently re-labelled through the current ones."""
        store.save(tmp_path / "store")
        meta = (tmp_path / "store" / "meta.json")
        meta.write_text(meta.read_text().replace('"iaas"', '"serverless"', 1))
        with pytest.raises(ValueError, match="offering_values"):
            TraceStore.open(tmp_path / "store")

    @staticmethod
    def _assert_stores_equal(loaded: TraceStore, original: TraceStore) -> None:
        assert len(loaded) == len(original)
        assert loaded.n_slots == original.n_slots
        assert loaded.cluster_ids == original.cluster_ids
        assert loaded.configs == original.configs
        np.testing.assert_array_equal(loaded.start_slot, original.start_slot)
        np.testing.assert_array_equal(loaded.end_slot, original.end_slot)
        np.testing.assert_array_equal(loaded.offsets, original.offsets)
        assert loaded.vm_ids.tolist() == original.vm_ids.tolist()
        assert loaded.server_ids.tolist() == original.server_ids.tolist()
        for resource, buffer in original.util.items():
            np.testing.assert_array_equal(loaded.util[resource], buffer)


class _PoolKillingPolicy(PolicyConfig):
    """A policy whose unpickling kills the sweep worker outright (no Python
    exception, just a broken pool), as in ``tests/test_sweep.py``."""

    def __reduce__(self):
        return (os._exit, (1,))


def _raise_oserror(*args, **kwargs):
    raise OSError("no writable temp dir")


@pytest.fixture
def staged_dirs(monkeypatch):
    """Every directory a pooled sweep stages its store in, as created."""
    created = []
    mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        if os.path.basename(path).startswith("repro-sweep-"):
            created.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    return created


def assert_staged_and_removed(staged_dirs):
    assert staged_dirs, "the trace's store should be staged"
    assert not any(os.path.exists(path) for path in staged_dirs)


class TestSweepTransports:
    @pytest.fixture(scope="class")
    def sweep_config(self, tiny_trace):
        return SimulationConfig(clusters=tiny_trace.cluster_ids()[:2],
                                n_estimators=2)

    @pytest.fixture(scope="class")
    def policies(self):
        return {"none": NO_OVERSUBSCRIPTION_POLICY, "coach": COACH_POLICY}

    @pytest.mark.parametrize("unwritable", [
        pytest.param(None, id="staged"),
        pytest.param("mkdtemp", id="pickle-no-temp-dir"),
        pytest.param("save", id="pickle-unwritable-temp-dir"),
    ])
    def test_transports_bitwise_identical(self, tiny_trace, store_trace,
                                          sweep_config, policies, staged_dirs,
                                          monkeypatch, unwritable):
        """Workers opening the staged store and the pickle fallback (reached
        when the temp dir cannot be created or written) compute the serial
        bits, and no staging directory outlives a successful sweep."""
        serial = sweep_policies(tiny_trace, policies, sweep_config)
        if unwritable is not None:
            owner = tempfile if unwritable == "mkdtemp" else TraceStore
            monkeypatch.setattr(owner, unwritable, _raise_oserror)
        pooled = sweep_policies(store_trace, policies,
                                replace(sweep_config, sweep_parallelism=2))
        assert pooled == serial
        if unwritable != "mkdtemp":  # a directory was made: it must be gone
            assert_staged_and_removed(staged_dirs)

    def test_unwritable_temp_dir_ships_the_compacted_store(
            self, store_trace, sweep_config, policies, monkeypatch):
        """The OSError fallback puts the selection's compacted store -- its
        rows' samples only, once -- in every task, never a path."""
        tasks = []
        monkeypatch.setattr(tempfile, "mkdtemp", _raise_oserror)
        monkeypatch.setattr(sweep_module, "_run_sweep_tasks",
                            lambda pool, submitted: tasks.extend(submitted) or {})
        selection = store_trace.long_running()
        assert not selection.store.contiguous
        sweep_policies(selection, policies,
                       replace(sweep_config, sweep_parallelism=2),
                       executor=object())
        assert [task.policy_name for task in tasks] == list(policies)
        shipped = tasks[0].store
        assert all(task.store is shipped and task.store_path is None
                   for task in tasks)
        assert shipped.contiguous
        assert shipped.vm_ids.tolist() == selection.store.vm_ids.tolist()
        assert shipped.util_nbytes == 8 * int(
            selection.store.row_length.sum()) * len(shipped.resources)

    def test_footprint_baseline_ships_the_telemetry_once(self, tiny_trace):
        """The footprint gate's pickled baseline is the seed payload: the
        records' telemetry once, with no store carrying a second copy."""
        outcome = measure_sweep_task_footprint(tiny_trace)
        assert outcome["util_nbytes"] < outcome["pickled_task_bytes"] \
            < 2 * outcome["util_nbytes"]

    def test_failing_policy_removes_staging(self, store_trace, sweep_config,
                                            staged_dirs):
        """PolicySweepError paths must still remove the staged store."""
        broken = COACH_POLICY.with_percentile(-5.0)
        with pytest.raises(PolicySweepError):
            sweep_policies(store_trace,
                           {"broken": broken, "coach": COACH_POLICY},
                           replace(sweep_config, sweep_parallelism=2))
        assert_staged_and_removed(staged_dirs)

    def test_dead_worker_removes_staging(self, store_trace, sweep_config,
                                         staged_dirs):
        """A worker dying without any cleanup leaves nothing behind: the
        sweeping process owns the directory and removes it."""
        killer = _PoolKillingPolicy(
            kind=COACH_POLICY.kind, windows=COACH_POLICY.windows,
            percentile=COACH_POLICY.percentile, oversubscribe=True)
        with pytest.raises(PolicySweepError, match="died abruptly"):
            sweep_policies(store_trace,
                           {"killer": killer, "coach": COACH_POLICY},
                           replace(sweep_config, sweep_parallelism=2))
        assert_staged_and_removed(staged_dirs)

    @pytest.mark.parametrize("damage, culprit", [
        pytest.param(_truncate("util_cpu.npy"), "util_cpu.npy",
                     id="truncated-buffer"),
        pytest.param(_truncate("meta.json"), "meta.json", id="truncated-meta"),
        pytest.param(_edit_columns(lambda m: m.update(
            start_slot=m["start_slot"][:-1])), "'start_slot'",
            id="short-column"),
        pytest.param(_edit_columns(_empty_row), "'offsets'",
                     id="zero-length-row"),
    ])
    def test_damaged_staged_store_fails_loudly(self, store_trace, sweep_config,
                                               policies, staged_dirs,
                                               monkeypatch, damage, culprit):
        """Workers go through open()'s checks: a staged buffer, meta.json or
        column damaged after staging fails the sweep by name instead of
        replaying garbage, and the directory is still removed."""
        save = TraceStore.save

        def save_then_damage(store, path):
            saved = save(store, path)
            damage(saved)
            return saved

        monkeypatch.setattr(TraceStore, "save", save_then_damage)
        with pytest.raises(PolicySweepError) as info:
            sweep_policies(store_trace, policies,
                           replace(sweep_config, sweep_parallelism=2))
        assert info.value.original_type == "ValueError"
        assert culprit in info.value.original_message
        assert_staged_and_removed(staged_dirs)

class TestMiscStore:
    def test_alloc_matrix_matches_configs(self, tiny_trace, store):
        alloc = store.alloc
        for i, vm in enumerate(tiny_trace.vms[:10]):
            assert alloc[i, 0] == vm.allocated(Resource.CPU)
            assert alloc[i, 1] == vm.allocated(Resource.MEMORY)

    def test_index_of_matches_order(self, store):
        for i in (0, len(store) // 2, len(store) - 1):
            assert store.index_of(store.vm_ids[i]) == i
        with pytest.raises(KeyError):
            store.index_of("nope")

    def test_select_rejects_repeated_indices(self, store):
        with pytest.raises(ValueError, match="unique"):
            store.select([0, 0])

    def test_select_accepts_boolean_mask(self, store):
        mask = store.long_running_mask()
        selected = store.select(mask)
        assert len(selected) == int(mask.sum())
        assert (selected.vm_ids.tolist()
                == store.vm_ids[np.nonzero(mask)[0]].tolist())
        with pytest.raises(ValueError, match="mask has shape"):
            store.select(mask[:-1])

    def test_empty_selection_round_trips(self, store_trace):
        empty = store_trace.filter(lambda vm: False)
        assert len(empty) == 0
        assert empty.store is not None
        assert len(empty.alive_at(0)) == 0

    def test_catalog_configs_deduplicated(self, store):
        assert len(store.configs) <= len(VM_CATALOG)
        assert len(set(store.configs)) == len(store.configs)


class TestUtilizationMatrix:
    """The scatter kernel vs the per-VM reference loop, bitwise."""

    @staticmethod
    def _reference_matrix(trace, resource, cluster_id=None, absolute=True):
        """The per-VM loop the scatter kernel replaced."""
        vms = [vm for vm in trace.vms
               if cluster_id is None or vm.cluster_id == cluster_id]
        matrix = np.zeros((len(vms), trace.n_slots))
        for row, vm in enumerate(vms):
            series = vm.series(resource)
            scale = vm.allocated(resource) if absolute else 1.0
            end = min(series.end_slot, trace.n_slots)
            matrix[row, series.start_slot:end] = \
                series.values[: end - series.start_slot] * scale
        return matrix

    @pytest.mark.parametrize("resource", [Resource.CPU, Resource.MEMORY])
    @pytest.mark.parametrize("absolute", [True, False])
    def test_scatter_matches_reference_loop(self, store_trace, resource,
                                            absolute):
        got = store_trace.utilization_matrix(resource, absolute=absolute)
        expected = self._reference_matrix(store_trace, resource,
                                          absolute=absolute)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_cluster_filter_matches_reference_loop(self, store_trace):
        cluster_id = store_trace.cluster_ids()[0]
        got = store_trace.utilization_matrix(Resource.CPU, cluster_id=cluster_id)
        expected = self._reference_matrix(store_trace, Resource.CPU,
                                          cluster_id=cluster_id)
        assert np.array_equal(got, expected)

    def test_truncated_horizon_clips_series(self, store):
        # A horizon shorter than some series exercises the eff_len clipping.
        n_slots = max(int(store.start_slot.min()) + 1, 2)
        matrix = store.utilization_matrix(Resource.CPU, n_slots)
        assert matrix.shape == (len(store), n_slots)
        assert np.isfinite(matrix).all()

    def test_row_subset_scatter(self, store, store_trace):
        rows = np.arange(0, len(store), 3, dtype=np.intp)
        got = store.utilization_matrix(Resource.CPU, store_trace.n_slots,
                                       rows=rows)
        full = store.utilization_matrix(Resource.CPU, store_trace.n_slots)
        assert np.array_equal(got, full[rows])
