"""Differential tests for stream prediction and planning.

Each batch kernel is checked bit for bit against the per-VM path it
replaced, which stays as its oracle:

* ``predict_many`` of the learned, oracle and no-oversubscription models
  against ``predict``, for every golden-trace VM, on the dense trace and on
  its ``TraceStore.open(mmap=True)`` copy, in 1-, 4- and 24-hour windows,
  for streams holding VMs whose history lookup lands on each of the three
  levels, for one VM and for an empty stream;
* :func:`window_percentiles` (the training targets' kernel) against
  :meth:`UtilizationSeries.lifetime_window_percentile`, on one-sample
  series, series that start mid-window and mid-day, one-day VMs, the 0th
  to 100th percentiles, and day-span groups that the pass bound splits;
* :func:`plan_many` against :func:`plan_vm` for every golden-trace VM under
  the four standard policies, for rows planned without oversubscription,
  for memory demand exactly on a GB boundary, and for the validation
  errors, non-finite inputs included;
* a cluster's replay predicts its arrival stream with one call, and
  evacuees re-admitted after a drain reuse their rows.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.trace.timeseries as timeseries
from repro.core.cluster_manager import ClusterManager, build_prediction_model
from repro.core.policy import COACH_POLICY, STANDARD_POLICIES
from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.scheduler import plan_demand_matrix
from repro.core.windows import (
    ResourcePlan,
    allocation_matrix,
    plan_many,
    plan_vm,
)
from repro.prediction.utilization_model import (
    LongTermUtilizationModel,
    NoOversubscriptionModel,
    OracleUtilizationModel,
    WindowPredictionBatch,
    WindowUtilizationPrediction,
)
from repro.simulator.engine import FailureEvent, SimulationConfig, simulate_policy
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.store import TraceStore
from repro.trace.timeseries import (
    SLOTS_PER_DAY,
    TimeWindowConfig,
    UtilizationSeries,
    window_percentiles,
)
from repro.trace.vm import VM_CATALOG

#: The fixed-seed trace of ``tests/test_golden_trace.py``.
GOLDEN_CONFIG = TraceGeneratorConfig(n_vms=500, n_days=10, seed=1234,
                                     n_subscriptions=30, servers_per_cluster=1)
WINDOW_HOURS = (1, 4, 24)


@pytest.fixture(scope="module")
def golden_traces(tmp_path_factory):
    """The golden trace, dense and memory-mapped from a saved copy."""
    trace = TraceGenerator(GOLDEN_CONFIG).generate()
    path = tmp_path_factory.mktemp("golden") / "store"
    trace.store.save(path)
    return {"dense": trace, "mmap": TraceStore.open(path, mmap=True).as_trace()}


@pytest.fixture(scope="module")
def history_vms(golden_traces):
    history, _future = golden_traces["dense"].split_at(7 * SLOTS_PER_DAY)
    return history.long_running().vms


@pytest.fixture(scope="module")
def learned_models(history_vms):
    """One small learned model per window length.  Two history VMs are
    needed for oversubscription, so some level-1 and level-2 VMs are not
    oversubscribable."""
    return {hours: LongTermUtilizationModel(
        windows=TimeWindowConfig(hours), n_estimators=2, max_depth=6,
        random_state=0, min_history_vms=2).fit(history_vms)
        for hours in WINDOW_HOURS}


def _model(kind, hours, learned_models):
    windows = TimeWindowConfig(hours)
    if kind == "learned":
        return learned_models[hours]
    if kind == "oracle":
        return OracleUtilizationModel(windows, 95.0)
    return NoOversubscriptionModel(windows)


def _every_history_level(vms, model):
    """*vms* plus two VMs whose history lookup lands below level 2: a
    known subscription with a configuration it never ran (level 1), and
    an unknown subscription (level 0)."""
    index = model._history
    known = next(vm for vm in vms if index.lookup(vm)[1] == 2)
    new_config = next(
        replace(known, vm_id="new-config", config=config)
        for config in VM_CATALOG.values()
        if index.lookup(replace(known, config=config))[1] == 1)
    stranger = replace(known, vm_id="stranger", subscription_id="unknown-sub")
    stream = list(vms) + [new_config, stranger]
    assert {index.lookup(vm)[1] for vm in stream} == {0, 1, 2}
    return stream


def assert_rows_equal_predict(model, vms) -> WindowPredictionBatch:
    """``predict_many(vms)`` row by row against ``predict`` of each VM."""
    batch = model.predict_many(vms)
    shape = (len(vms), len(ALL_RESOURCES), model.windows.windows_per_day)
    assert batch.windows == model.windows
    assert batch.percentile.shape == batch.maximum.shape == shape
    assert batch.oversubscribable.dtype == bool
    assert batch.oversubscribable.shape == (len(vms),)
    for row, vm in enumerate(vms):
        prediction = model.predict(vm)
        assert bool(batch.oversubscribable[row]) is prediction.oversubscribable
        for index, resource in enumerate(ALL_RESOURCES):
            for stacked, own in ((batch.percentile, prediction.percentile),
                                 (batch.maximum, prediction.maximum)):
                expected = np.asarray(own[resource], dtype=np.float64)
                assert stacked[row, index].tobytes() == expected.tobytes(), \
                    (vm.vm_id, resource)
    return batch


class TestPredictMany:
    @pytest.mark.parametrize("backing", ["dense", "mmap"])
    @pytest.mark.parametrize("hours", WINDOW_HOURS)
    @pytest.mark.parametrize("kind", ["learned", "oracle", "none"])
    def test_rows_equal_predict(self, golden_traces, learned_models, kind,
                                hours, backing):
        vms = _every_history_level(golden_traces[backing].vms,
                                   learned_models[hours])
        batch = assert_rows_equal_predict(
            _model(kind, hours, learned_models), vms)
        if kind == "learned":
            # The stream exercises both answers of the history rule.
            assert batch.oversubscribable.any()
            assert not batch.oversubscribable.all()

    @pytest.mark.parametrize("kind", ["learned", "oracle", "none"])
    def test_one_vm_and_an_empty_stream(self, golden_traces, learned_models,
                                        kind):
        model = _model(kind, 4, learned_models)
        vm = golden_traces["dense"].vms[17]
        assert_rows_equal_predict(model, [vm])
        empty = model.predict_many([])
        assert empty.percentile.shape == empty.maximum.shape == \
            (0, len(ALL_RESOURCES), 6)
        assert empty.oversubscribable.shape == (0,)

    def test_unfitted_model_raises(self, golden_traces):
        with pytest.raises(RuntimeError):
            LongTermUtilizationModel(n_estimators=2).predict_many(
                golden_traces["dense"].vms[:1])


def _edge_series():
    """Series at the edges of the day layout, with duplicate values."""
    rng = np.random.default_rng(5)

    def series(start, length):
        return UtilizationSeries(np.round(rng.random(length), 2), start)

    return [
        series(0, 1),                                # one sample, slot 0
        series(3 * SLOTS_PER_DAY + 37, 1),           # one sample mid-window
        series(SLOTS_PER_DAY - 1, 1),                # the day's last slot
        series(5 * SLOTS_PER_DAY + 131, 400),        # mid-day start
        series(2 * SLOTS_PER_DAY + 7, 3 * SLOTS_PER_DAY),  # mid-window start
        series(4 * SLOTS_PER_DAY, SLOTS_PER_DAY),    # exactly one day
        series(4 * SLOTS_PER_DAY + 20, 100),         # inside one day
        series(SLOTS_PER_DAY - 30, 60),              # across midnight
        UtilizationSeries(np.full(50, 0.4), 1000),   # all values tied
        series(0, 9 * SLOTS_PER_DAY),                # the whole horizon
    ]


class TestWindowPercentiles:
    @pytest.mark.parametrize("pct", [0.0, 50.0, 95.0, 100.0, 37.5])
    @pytest.mark.parametrize("hours", [1, 3, 4, 24])
    def test_rows_equal_lifetime_window_percentile(self, hours, pct):
        config = TimeWindowConfig(hours)
        series = _edge_series()
        got = window_percentiles(series, config, pct)
        expected = np.array([s.lifetime_window_percentile(config, pct)
                             for s in series])
        assert got.shape == (len(series), config.windows_per_day)
        assert got.tobytes() == expected.tobytes()
        # Windows without samples are nan, as in the oracle.
        assert np.isnan(got[0, 1:]).all()

    @pytest.mark.parametrize("bound", [1, 2 * SLOTS_PER_DAY, 7 * SLOTS_PER_DAY])
    def test_groups_split_by_the_pass_bound(self, monkeypatch, bound):
        # 40 series that all span three days: with a bound of one or two
        # days every pass holds one series (the bound is smaller than a
        # series); with seven days a pass holds two.
        rng = np.random.default_rng(6)
        series = [UtilizationSeries(rng.random(int(rng.integers(
            2 * SLOTS_PER_DAY + 1, 3 * SLOTS_PER_DAY))),
            int(rng.integers(0, 40)) + 4 * SLOTS_PER_DAY)
            for _ in range(40)]
        config = TimeWindowConfig(4)
        expected = window_percentiles(series, config, 95.0)
        monkeypatch.setattr(timeseries, "WINDOW_PERCENTILE_PASS_SAMPLES", bound)
        got = window_percentiles(series, config, 95.0)
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == np.array([
            s.lifetime_window_percentile(config, 95.0)
            for s in series]).tobytes()

    def test_training_vms_of_the_golden_trace(self, history_vms):
        config = TimeWindowConfig(4)
        for resource in ALL_RESOURCES:
            series = [vm.series(resource) for vm in history_vms]
            expected = np.array([s.lifetime_window_percentile(config, 95.0)
                                 for s in series])
            assert window_percentiles(series, config, 95.0).tobytes() == \
                expected.tobytes()

    def test_empty_and_out_of_range(self):
        assert window_percentiles([], TimeWindowConfig(4), 95.0).shape == (0, 6)
        series = _edge_series()[:1]
        for pct in (-1.0, 100.5):
            with pytest.raises(ValueError, match="range"):
                window_percentiles(series, TimeWindowConfig(4), pct)
            with pytest.raises(ValueError, match="range"):
                series[0].lifetime_window_percentile(TimeWindowConfig(4), pct)


def assert_plan_rows_equal_plan_vm(batch, vms, prediction_rows, oversubscribe,
                                   granularity):
    """Every ``batch.plan(i)`` against ``plan_vm`` of VM ``i``, bit for bit,
    with the same field types."""
    assert len(batch) == len(vms)
    for row, (vm, prediction) in enumerate(zip(vms, prediction_rows)):
        expected = plan_vm(vm.vm_id, vm.allocation_vector(), prediction,
                           oversubscribe, granularity)
        got = batch.plan(row)
        assert got.vm_id == expected.vm_id
        assert got.windows == expected.windows
        assert got.oversubscribed is expected.oversubscribed
        for resource in ALL_RESOURCES:
            mine, theirs = got.plans[resource], expected.plans[resource]
            assert mine.resource is theirs.resource
            for name in ("requested", "guaranteed"):
                value, reference = getattr(mine, name), getattr(theirs, name)
                assert type(value) is type(reference) is float
                assert np.float64(value).tobytes() == \
                    np.float64(reference).tobytes(), (vm.vm_id, resource, name)
            assert mine.window_demand.tobytes() == theirs.window_demand.tobytes()
            assert mine.window_oversubscribed.tobytes() == \
                theirs.window_oversubscribed.tobytes()
        assert plan_demand_matrix(got).tobytes() == \
            plan_demand_matrix(expected).tobytes()


def _prediction_rows(batch):
    """Each row of a prediction batch as a per-VM prediction."""
    return [WindowUtilizationPrediction(
        batch.windows,
        {resource: batch.percentile[row, index]
         for index, resource in enumerate(ALL_RESOURCES)},
        {resource: batch.maximum[row, index]
         for index, resource in enumerate(ALL_RESOURCES)},
        bool(batch.oversubscribable[row]))
        for row in range(len(batch.oversubscribable))]


class _Vm:
    """The two attributes planning reads from a VM."""

    def __init__(self, vm_id, allocation):
        self.vm_id = vm_id
        self._allocation = allocation

    def allocation_vector(self):
        return self._allocation


class TestPlanMany:
    @pytest.mark.parametrize("policy", sorted(STANDARD_POLICIES))
    def test_golden_trace_plans_equal_plan_vm(self, golden_traces, history_vms,
                                              policy):
        config = STANDARD_POLICIES[policy]
        model = build_prediction_model(config, history_vms, n_estimators=3)
        vms = list(golden_traces["dense"].vms) + [replace(
            golden_traces["dense"].vms[0], vm_id="stranger",
            subscription_id="unknown-sub")]
        prediction = model.predict_many(vms)
        batch = plan_many([vm.vm_id for vm in vms], allocation_matrix(vms),
                          prediction, config.oversubscribe,
                          config.memory_granularity_gb)
        assert_plan_rows_equal_plan_vm(
            batch, vms, [model.predict(vm) for vm in vms],
            config.oversubscribe, config.memory_granularity_gb)
        # The none policy and the stranger are planned without
        # oversubscription.
        assert not batch.oversubscribed[-1]
        assert batch.oversubscribed.any() == config.oversubscribe

    @pytest.mark.parametrize("oversubscribe", [True, False])
    def test_hand_built_rows(self, oversubscribe):
        # Memory on a GB boundary (0.5 x 16 GB = 8 GB exactly, which must
        # not round up), just above one, a zero percentile, rows that may
        # not be oversubscribed, and a 2 GB management granularity.
        windows = TimeWindowConfig(4)
        percentile = np.full((4, len(ALL_RESOURCES), 6), 0.5)
        percentile[1] += 1e-6
        percentile[2] = 0.0
        percentile[3, :, ::2] = 0.25
        maximum = np.minimum(1.0, percentile + np.linspace(0.0, 0.6, 6))
        batch = WindowPredictionBatch(windows, percentile, maximum,
                                      np.array([True, True, True, False]))
        allocation = {Resource.CPU: 4.0, Resource.MEMORY: 16.0,
                      Resource.NETWORK: 2.0, Resource.SSD: 64.0}
        vms = [_Vm(f"vm-{row}", allocation) for row in range(4)]
        for granularity in (1.0, 2.0):
            plans = plan_many([vm.vm_id for vm in vms], allocation_matrix(vms),
                              batch, oversubscribe, granularity)
            assert_plan_rows_equal_plan_vm(plans, vms, _prediction_rows(batch),
                                           oversubscribe, granularity)
        plans = plan_many([vm.vm_id for vm in vms], allocation_matrix(vms),
                          batch, oversubscribe, 1.0)
        memory = plans.plan(0).plans[Resource.MEMORY]
        assert memory.guaranteed == (8.0 if oversubscribe else 16.0)
        assert list(plans.oversubscribed) == [oversubscribe] * 3 + [False]

    def test_validation_errors_match_plan_vm(self):
        windows = TimeWindowConfig(4)
        shape = (2, len(ALL_RESOURCES), 6)
        batch = WindowPredictionBatch(windows, np.full(shape, 0.5),
                                      np.full(shape, 0.5), np.ones(2, bool))
        good = {r: 8.0 for r in ALL_RESOURCES}
        for broken in ({**good, Resource.NETWORK: -2.0},
                       {**good, Resource.SSD: -1e-3}):
            vms = [_Vm("good", good), _Vm("broken", broken)]
            for oversubscribe in (True, False):
                with pytest.raises(ValueError) as expected:
                    for vm, prediction in zip(vms, _prediction_rows(batch)):
                        plan_vm(vm.vm_id, vm.allocation_vector(), prediction,
                                oversubscribe)
                with pytest.raises(ValueError) as got:
                    plan_many(["good", "broken"], allocation_matrix(vms), batch,
                              oversubscribe)
                assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("case", ["nan-first", "broken-first",
                                      "granularity"])
    def test_rounding_errors_match_plan_vm(self, case):
        # plan_vm's memory rounding raises for a NaN memory percentile (a
        # damaged store reaches the oracle model) and for a non-positive
        # granularity, before any validation rule; so the first failing
        # row decides which error plan_many raises.
        windows = TimeWindowConfig(4)
        shape = (3, len(ALL_RESOURCES), 6)
        percentile = np.full(shape, 0.5)
        nan_row, broken_row = (1, 2) if case == "nan-first" else (2, 1)
        percentile[nan_row, ALL_RESOURCES.index(Resource.MEMORY), 3] = np.nan
        batch = WindowPredictionBatch(windows, percentile, np.full(shape, 0.5),
                                      np.ones(3, bool))
        good = {r: 8.0 for r in ALL_RESOURCES}
        allocations = [good, good, good]
        if case != "granularity":
            allocations[broken_row] = {**good, Resource.SSD: -1.0}
        granularity = 0.0 if case == "granularity" else 1.0
        vms = [_Vm(f"vm-{row}", a) for row, a in enumerate(allocations)]
        with pytest.raises(ValueError) as expected:
            for vm, prediction in zip(vms, _prediction_rows(batch)):
                plan_vm(vm.vm_id, vm.allocation_vector(), prediction, True,
                        granularity)
        with pytest.raises(ValueError) as got:
            plan_many([vm.vm_id for vm in vms], allocation_matrix(vms), batch,
                      True, granularity)
        assert str(got.value) == str(expected.value)
        assert (str(got.value) == "negative resource amounts") == \
            (case == "broken-first")
        # Without oversubscription nothing is rounded, so the NaN row plans.
        if case == "nan-first":
            good_vms = [_Vm(f"vm-{row}", good) for row in range(3)]
            assert_plan_rows_equal_plan_vm(
                plan_many([vm.vm_id for vm in good_vms],
                          allocation_matrix(good_vms), batch, False),
                good_vms, _prediction_rows(batch), False, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["requested", "guaranteed",
                                       "window_demand", "window_oversubscribed"])
    def test_validate_rejects_non_finite_fields(self, field, value):
        # Every comparison with NaN is false, so a NaN amount once passed
        # every rule.
        plan = ResourcePlan(Resource.CPU, 4.0, 2.0, np.full(6, 3.0),
                            np.full(6, 1.0))
        plan.validate()
        if field.startswith("window"):
            getattr(plan, field)[2] = value
        else:
            setattr(plan, field, value)
        with pytest.raises(ValueError, match="^non-finite resource amounts$"):
            plan.validate()

    @pytest.mark.parametrize("broken_after", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["allocation", "percentile", "maximum"])
    def test_non_finite_inputs_match_plan_vm(self, field, value, broken_after):
        # Row 1 carries the non-finite value; with broken_after, row 2
        # breaks a later rule, so the first failing row decides the error.
        # Arithmetic on infinities warns before the plan is rejected.
        with np.errstate(invalid="ignore"):
            self._check_non_finite_input(field, value, broken_after)

    @staticmethod
    def _check_non_finite_input(field, value, broken_after):
        windows = TimeWindowConfig(4)
        shape = (3, len(ALL_RESOURCES), 6)
        good = {r: 8.0 for r in ALL_RESOURCES}
        for index, resource in enumerate(ALL_RESOURCES):
            for oversubscribe in (True, False):
                percentile = np.full(shape, 0.5)
                maximum = np.full(shape, 0.7)
                allocations = [dict(good), dict(good), dict(good)]
                if field == "allocation":
                    allocations[1][resource] = value
                else:
                    {"percentile": percentile,
                     "maximum": maximum}[field][1, index, 2] = value
                if broken_after:
                    allocations[2][Resource.SSD] = -1.0
                batch = WindowPredictionBatch(windows, percentile, maximum,
                                              np.ones(3, bool))
                vms = [_Vm(f"vm-{row}", a) for row, a in enumerate(allocations)]
                case = (resource, oversubscribe)
                try:
                    for vm, prediction in zip(vms, _prediction_rows(batch)):
                        plan_vm(vm.vm_id, vm.allocation_vector(), prediction,
                                oversubscribe)
                    expected = None
                except (ValueError, OverflowError) as error:
                    expected = error
                try:
                    plans = plan_many([vm.vm_id for vm in vms],
                                      allocation_matrix(vms), batch,
                                      oversubscribe)
                    got = None
                except (ValueError, OverflowError) as error:
                    got = error
                # A non-finite allocation, and a NaN prediction that is
                # used, fail on row 1; np.clip bounds an infinite
                # prediction into [0, 1], so that row plans.
                row_fails = field == "allocation" or (
                    oversubscribe and np.isnan(value))
                assert (expected is not None) == (row_fails or broken_after), case
                assert type(got) is type(expected), case
                if expected is None:
                    assert_plan_rows_equal_plan_vm(
                        plans, vms, _prediction_rows(batch), oversubscribe, 1.0)
                    continue
                assert str(got) == str(expected), case
                # The memory rounding raises first for a memory row it
                # cannot round; every other failing row breaks the
                # finiteness rule.
                rounded = (oversubscribe and resource is Resource.MEMORY
                           and not value < 0)
                if row_fails and not rounded:
                    assert str(got) == "non-finite resource amounts", case
                elif not row_fails:
                    assert str(got) == "negative resource amounts", case

    def test_rows_are_read_only(self):
        windows = TimeWindowConfig(4)
        shape = (1, len(ALL_RESOURCES), 6)
        batch = WindowPredictionBatch(windows, np.full(shape, 0.5),
                                      np.full(shape, 0.7), np.ones(1, bool))
        allocations = np.full((1, len(ALL_RESOURCES)), 8.0)
        plans = plan_many(["vm"], allocations, batch)
        assert allocations.flags.writeable  # the caller's array is copied
        with pytest.raises(ValueError):
            plans.plan(0).plans[Resource.MEMORY].window_demand[0] = 0.0

    def test_empty_stream(self):
        empty = NoOversubscriptionModel(TimeWindowConfig(4)).predict_many([])
        plans = plan_many([], allocation_matrix([]), empty)
        assert len(plans) == 0
        assert plans.window_demand.shape == (0, len(ALL_RESOURCES), 6)


class _CountingModel:
    """Delegates ``predict_many`` and records each call's stream length."""

    def __init__(self, model):
        self._model = model
        self.calls = []

    def predict_many(self, vms):
        self.calls.append(len(vms))
        return self._model.predict_many(vms)


class TestStreamPlanning:
    def test_request_batch_reuses_planned_rows(self, small_trace):
        vms = list(small_trace.vms)
        cluster = small_trace.fleet.clusters[0]
        model = _CountingModel(OracleUtilizationModel(COACH_POLICY.windows))
        manager = ClusterManager(cluster, COACH_POLICY, model)
        manager.build_plans(vms)
        manager.request_batch(vms[:5])
        manager.request_vm(vms[5])
        assert model.calls == [len(vms)]
        # A different object under a planned VM's id is planned afresh.
        manager.request_vm(replace(vms[6]))
        assert model.calls == [len(vms), 1]

    def test_replay_predicts_each_arrival_stream_once(self, small_trace):
        # Drain the busiest server of every cluster halfway through: the
        # evacuees are re-requested through the manager and must reuse the
        # rows planned before the replay started.
        model = _CountingModel(OracleUtilizationModel(COACH_POLICY.windows))
        mid = small_trace.n_slots // 2
        config = SimulationConfig(failure_events=tuple(
            FailureEvent(mid, cluster_id, 0, "drain")
            for cluster_id in small_trace.cluster_ids()))
        evaluation = simulate_policy(small_trace, COACH_POLICY, config,
                                     prediction_model=model)
        arrivals = len(small_trace.vms)
        assert sum(model.calls) == arrivals
        assert len(model.calls) == len(small_trace.cluster_ids())
        assert evaluation.requested_vms > arrivals  # evacuees re-requested
