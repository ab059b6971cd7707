"""Golden-trace regression: pinned PolicyEvaluation numbers.

A small fixed-seed trace is replayed under every standard policy and the
headline outcomes are compared against checked-in expectations.  The point
is to keep replay/scheduler refactors honest: a change that silently shifts
accept or violation rates fails here even if every invariant-style test
still passes.  Integer counts must match exactly; derived floats are pinned
to tight relative tolerances (they are pure arithmetic on the counts and the
trace, so any drift means the replay arithmetic changed).

If a deliberate behaviour change shifts these numbers, regenerate them with
the snippet in the module docstring of the fixture below and update the
table in the same commit that changes the behaviour.
"""

from dataclasses import replace

import pytest

from repro.simulator import SimulationConfig, sweep_policies
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.store import TraceStore

#: policy -> (requested, accepted, rejected, servers_in_use,
#:            avg_concurrent_cores, avg_concurrent_memory_gb,
#:            observed_server_slots, cpu_violation_slots,
#:            memory_violation_slots, additional_capacity_pct)
GOLDEN = {
    "none": (139, 65, 74, 5, 193.95208333333332, 863.9763888888889,
             14400, 21, 0, 0.0),
    "single": (139, 122, 17, 5, 252.83125, 1171.4527777777778,
               14351, 652, 0, 30.357584025263986),
    "coach": (139, 109, 30, 5, 247.81805555555556, 1151.0902777777778,
              14351, 665, 0, 27.77282475983832),
    "aggr-coach": (139, 113, 26, 5, 254.3059027777778, 1177.0416666666667,
                   14351, 472, 0, 31.11790211643055),
}


@pytest.fixture(scope="module")
def golden_trace():
    """The fixed-seed trace behind every golden assertion in this module."""
    config = TraceGeneratorConfig(n_vms=500, n_days=10, seed=1234,
                                  n_subscriptions=30, servers_per_cluster=1)
    return TraceGenerator(config).generate()


@pytest.fixture(scope="module")
def golden_sim_config():
    return SimulationConfig(clusters=["C1", "C2", "C3"], n_estimators=3)


@pytest.fixture(scope="module")
def golden_results(golden_trace, golden_sim_config):
    """Regenerate the GOLDEN table by printing the result of
    ``sweep_policies(golden_trace, config=golden_sim_config)`` with the
    fixture configs above, and update the table in the same commit that
    changes the behaviour."""
    return sweep_policies(golden_trace, config=golden_sim_config)


def test_all_standard_policies_present(golden_results):
    assert set(golden_results) == set(GOLDEN)


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_policy_evaluation_matches_golden(golden_results, policy):
    (requested, accepted, rejected, servers_in_use, cores, memory_gb,
     observed, cpu_violations, mem_violations, additional_pct) = GOLDEN[policy]
    evaluation = golden_results[policy]
    assert evaluation.requested_vms == requested
    assert evaluation.accepted_vms == accepted
    assert evaluation.rejected_vms == rejected
    assert evaluation.servers_in_use == servers_in_use
    assert evaluation.average_concurrent_cores == pytest.approx(cores, rel=1e-9)
    assert evaluation.average_concurrent_memory_gb == pytest.approx(memory_gb, rel=1e-9)
    assert evaluation.violations.observed_server_slots == observed
    assert evaluation.violations.cpu_violation_slots == cpu_violations
    assert evaluation.violations.memory_violation_slots == mem_violations
    assert evaluation.additional_capacity_pct == pytest.approx(additional_pct, rel=1e-9)


def test_oversubscription_ordering_holds_on_golden_trace(golden_results):
    """Structural sanity on top of the exact pins: every oversubscription
    policy hosts at least as much as the no-oversubscription baseline."""
    base = golden_results["none"].average_concurrent_cores
    for name in ("single", "coach", "aggr-coach"):
        assert golden_results[name].average_concurrent_cores >= base


@pytest.mark.parametrize("sweep_workers", [2, 3])
def test_process_pool_sweep_matches_golden(golden_trace, golden_sim_config,
                                           golden_results, sweep_workers):
    """The process-pool sweep is bitwise identical to the serial walk on the
    golden trace, for multiple worker counts: same policies in the same
    order, every PolicyEvaluation equal field for field (including the
    per-server violation breakdowns and the relative capacity columns).
    (This also exercises the staged-store transport on a plain object
    trace, which the sweep columnarizes first.)"""
    sim = replace(golden_sim_config, sweep_parallelism=sweep_workers)
    pooled = sweep_policies(golden_trace, config=sim)
    assert list(pooled) == list(golden_results)
    for name, evaluation in golden_results.items():
        assert pooled[name] == evaluation, f"policy {name} diverged"


@pytest.fixture(scope="module")
def golden_store_trace(golden_trace):
    """The golden trace columnarized: same VMs, same float64 telemetry bits,
    viewed through the TraceStore fast paths."""
    return TraceStore.from_records(
        golden_trace.vms, fleet=golden_trace.fleet,
        n_slots=golden_trace.n_slots,
        subscriptions=golden_trace.subscriptions).as_trace()


def test_store_backed_serial_matches_golden(golden_store_trace,
                                            golden_sim_config, golden_results):
    """A TraceStore-backed serial evaluation reproduces the pinned numbers
    bitwise: the columnar filters and zero-copy views are an invisible
    representation change, not a behaviour change."""
    results = sweep_policies(golden_store_trace, config=golden_sim_config)
    assert list(results) == list(golden_results)
    for name, evaluation in golden_results.items():
        assert results[name] == evaluation, f"policy {name} diverged"


@pytest.mark.parametrize("transport", ["staged", "pickle"])
def test_store_backed_pool_sweep_matches_golden(golden_store_trace,
                                                golden_sim_config,
                                                golden_results, transport,
                                                monkeypatch):
    """Process-pool sweeps over the store-backed golden trace hit the pins
    for both trace transports: workers memory-mapping the store the parent
    staged on disk and workers unpickling the store their task carries (the
    fallback when the store cannot be written) see the same bits."""
    if transport == "pickle":
        def unwritable(store, path):
            raise OSError("no writable temp dir")

        monkeypatch.setattr(TraceStore, "save", unwritable)
    sim = replace(golden_sim_config, sweep_parallelism=2)
    pooled = sweep_policies(golden_store_trace, config=sim)
    assert list(pooled) == list(golden_results)
    for name, evaluation in golden_results.items():
        assert pooled[name] == evaluation, f"policy {name} diverged"
