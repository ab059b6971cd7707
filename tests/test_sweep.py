"""Process-pool policy sweeps: determinism, merge order, failure surfacing.

The sweep engine (:mod:`repro.simulator.sweep`) must be an invisible
optimization: bitwise-identical results in policy-declaration order for any
worker count, and a worker failure must surface the original exception with
the failing policy's name attached -- never hang, never return a partial
sweep.  (The golden-trace pins in ``tests/test_golden_trace.py`` addition-
ally assert pool results against checked-in numbers.)
"""

import os
import pickle
from dataclasses import replace

import pytest

from repro.core.policy import (
    COACH_POLICY,
    NO_OVERSUBSCRIPTION_POLICY,
    SINGLE_RATE_POLICY,
    PolicyConfig,
)
from repro.simulator import PolicySweepError, SimulationConfig, SweepTask
from repro.simulator.sweep import (
    create_sweep_executor,
    run_sweep_task,
    sweep_policies,
)

#: A policy whose model training raises inside the worker: numpy rejects
#: percentiles outside [0, 100] during the forest-target computation.
BROKEN_POLICY = replace(COACH_POLICY, percentile=-5.0)


class _PoolKillingPolicy(PolicyConfig):
    """A policy whose *unpickling* kills the worker process outright.

    Simulates a hard worker death (OOM-kill, segfault): the parent pickles
    the task fine, but reconstructing it in the spawned worker calls
    ``os._exit`` -- no Python exception, no ``_SweepFailure`` shipped back,
    just a broken pool.
    """

    def __reduce__(self):
        return (os._exit, (1,))


@pytest.fixture(scope="module")
def sweep_policies_under_test():
    return {"none": NO_OVERSUBSCRIPTION_POLICY, "coach": COACH_POLICY}


@pytest.fixture(scope="module")
def sweep_config(tiny_trace):
    return SimulationConfig(clusters=tiny_trace.cluster_ids()[:2],
                            n_estimators=2)


class TestSweepDeterminism:
    def test_pool_matches_serial_bitwise(self, tiny_trace,
                                         sweep_policies_under_test,
                                         sweep_config):
        serial = sweep_policies(tiny_trace, sweep_policies_under_test,
                                sweep_config)
        pooled = sweep_policies(
            tiny_trace, sweep_policies_under_test,
            SimulationConfig(clusters=sweep_config.clusters, n_estimators=2,
                             sweep_parallelism=2))
        assert list(serial) == list(pooled)
        for name in serial:
            assert serial[name] == pooled[name], f"policy {name} diverged"

    def test_merge_preserves_declaration_order(self, tiny_trace, sweep_config):
        """Results come back in declaration order even when it is not the
        standard one and completion order differs."""
        declaration = {"coach": COACH_POLICY, "none": NO_OVERSUBSCRIPTION_POLICY,
                       "single": SINGLE_RATE_POLICY}
        pooled = sweep_policies(
            tiny_trace, declaration,
            SimulationConfig(clusters=sweep_config.clusters, n_estimators=2,
                             sweep_parallelism=3))
        assert list(pooled) == ["coach", "none", "single"]
        # "none" present -> relative capacity columns are filled in.
        assert pooled["none"].additional_capacity_pct == pytest.approx(0.0)
        assert pooled["coach"].additional_capacity_pct is not None

    def test_worker_surplus_is_clamped(self, tiny_trace,
                                       sweep_policies_under_test,
                                       sweep_config):
        """More workers than policies must not spawn idle processes or
        change results."""
        serial = sweep_policies(tiny_trace, sweep_policies_under_test,
                                sweep_config)
        pooled = sweep_policies(
            tiny_trace, sweep_policies_under_test,
            SimulationConfig(clusters=sweep_config.clusters, n_estimators=2,
                             sweep_parallelism=16))
        assert serial == pooled

    def test_external_executor_is_reused_and_left_running(
            self, tiny_trace, sweep_policies_under_test, sweep_config):
        """A caller-owned pool serves consecutive sweeps bitwise-identically
        to serial and survives them (warm-worker reuse, PR 9)."""
        serial = sweep_policies(tiny_trace, sweep_policies_under_test,
                                sweep_config)
        pool_config = SimulationConfig(clusters=sweep_config.clusters,
                                       n_estimators=2, sweep_parallelism=2)
        executor = create_sweep_executor(2)
        try:
            first = sweep_policies(tiny_trace, sweep_policies_under_test,
                                   pool_config, executor=executor)
            second = sweep_policies(tiny_trace, sweep_policies_under_test,
                                    pool_config, executor=executor)
            assert serial == first == second
            # The sweep must not have shut the caller's pool down.
            assert executor.submit(int, 7).result() == 7
        finally:
            executor.shutdown()

    def test_external_executor_forces_pool_path(
            self, tiny_trace, sweep_policies_under_test, sweep_config):
        """Passing a pool opts into the pool path even when the config says
        serial (sweep_parallelism=1) -- the caller built workers to use."""
        executor = create_sweep_executor(2)
        try:
            serial = sweep_policies(tiny_trace, sweep_policies_under_test,
                                    sweep_config)
            pooled = sweep_policies(tiny_trace, sweep_policies_under_test,
                                    sweep_config, executor=executor)
            assert serial == pooled
        finally:
            executor.shutdown()


class TestSweepFailures:
    def test_worker_failure_surfaces_policy_name(self, tiny_trace, sweep_config):
        """A policy raising inside a worker process raises PolicySweepError
        naming the policy and the original exception -- no hang, no partial
        result dict."""
        with pytest.raises(PolicySweepError) as excinfo:
            sweep_policies(
                tiny_trace,
                {"coach": COACH_POLICY, "broken": BROKEN_POLICY},
                SimulationConfig(clusters=sweep_config.clusters, n_estimators=2,
                                 sweep_parallelism=2))
        error = excinfo.value
        assert error.policy_name == "broken"
        assert error.original_type == "ValueError"
        assert "broken" in str(error)
        assert error.original_message in str(error)
        # The worker-side traceback travels with the error for debuggability.
        assert "Traceback" in error.worker_traceback

    def test_failure_leaves_external_executor_usable(self, tiny_trace,
                                                     sweep_config):
        """A failing policy on a caller-owned pool surfaces the same
        PolicySweepError, drains the in-flight siblings, and leaves the
        pool alive for the caller's next sweep."""
        executor = create_sweep_executor(2)
        pool_config = SimulationConfig(clusters=sweep_config.clusters,
                                       n_estimators=2, sweep_parallelism=2)
        try:
            with pytest.raises(PolicySweepError) as excinfo:
                sweep_policies(
                    tiny_trace, {"coach": COACH_POLICY, "broken": BROKEN_POLICY},
                    pool_config, executor=executor)
            assert excinfo.value.policy_name == "broken"
            # The pool survived the failed sweep and still computes.
            survivors = {"none": NO_OVERSUBSCRIPTION_POLICY,
                         "coach": COACH_POLICY}
            recovered = sweep_policies(tiny_trace, survivors, pool_config,
                                       executor=executor)
            assert recovered == sweep_policies(tiny_trace, survivors,
                                               sweep_config)
        finally:
            executor.shutdown()

    def test_serial_failure_uses_same_exception_shape(self, tiny_trace,
                                                      sweep_config):
        with pytest.raises(PolicySweepError) as excinfo:
            sweep_policies(tiny_trace, {"broken": BROKEN_POLICY},
                           sweep_config)
        error = excinfo.value
        assert error.policy_name == "broken"
        assert error.original_type == "ValueError"
        # The serial path chains the original exception for debugging.
        assert isinstance(error.__cause__, ValueError)

    def test_dead_worker_surfaces_policy_name(self, tiny_trace, sweep_config):
        """A worker that dies outright (no Python exception to catch) must
        still raise PolicySweepError with the pending policy attributed --
        not a bare BrokenProcessPool."""
        killer = _PoolKillingPolicy(
            kind=COACH_POLICY.kind, windows=COACH_POLICY.windows,
            percentile=COACH_POLICY.percentile, oversubscribe=True)
        with pytest.raises(PolicySweepError) as excinfo:
            sweep_policies(
                tiny_trace,
                {"killer": killer, "coach": COACH_POLICY},
                SimulationConfig(clusters=sweep_config.clusters, n_estimators=2,
                                 sweep_parallelism=2))
        error = excinfo.value
        assert error.policy_name == "killer"
        assert error.original_type == "BrokenProcessPool"
        assert "died abruptly" in str(error)

    def test_run_sweep_task_never_raises(self, tiny_trace, sweep_config):
        """The worker entry point ships failures as data (raising would
        round-trip through pickle and mask the root cause)."""
        outcome = run_sweep_task(SweepTask("broken", BROKEN_POLICY,
                                           tiny_trace.store, sweep_config))
        assert outcome.evaluation is None
        assert outcome.failure is not None
        assert outcome.failure.original_type == "ValueError"


class TestSweepTask:
    def test_task_round_trips_through_pickle(self, tiny_trace, sweep_config):
        """Spawned workers share nothing: the task must be self-contained."""
        task = SweepTask("coach", COACH_POLICY, tiny_trace.store, sweep_config)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.policy_name == "coach"
        assert clone.policy == COACH_POLICY
        assert clone.config == sweep_config
        assert len(clone.store.as_trace().vms) == len(tiny_trace.vms)
