"""Golden-scenario regression: pinned fingerprints for every named scenario.

Each scenario in :data:`repro.scenarios.SCENARIOS` is run once (module-scope
cache) and its fingerprint -- admission counts, failure counters, violation
slots, and the SHA-256 over the decision ring -- is compared field for field
against the checked-in table.  The decision-ring hash is the strongest pin:
it covers the accept/reject verdict, the chosen server, and the preemption
list of *every* placement decision in order, so any drift in the scheduler,
the trace generator, the failure engine, or the scenario axes fails here
even if the aggregate counts happen to survive.

If a deliberate behaviour change shifts these numbers, regenerate with::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.scenarios import scenario_names, run_scenario
    for name in scenario_names():
        print(json.dumps(run_scenario(name).fingerprint))
    PY

and update the table in the same commit that changes the behaviour.
"""

import json

import pytest

from repro.scenarios import (
    SCENARIOS,
    ScenarioResult,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.__main__ import main
from repro.simulator.benchmarking import assert_store_dirs_identical
from repro.trace.generator import TraceGenerator

#: scenario -> (requested, accepted, rejected, preempted, evacuated,
#:              crashed_vms, failure_events, observed_server_slots,
#:              cpu_violation_slots, memory_violation_slots,
#:              decision_ring_sha256)
GOLDEN = {
    "baseline": (
        400, 395, 5, 0, 0, 0, 0, 50347, 85, 0,
        "04ba81c6b5c3ff22d17ba28b717431be81a6ddc27d662693bd4089bbd6f4bdee"),
    "heterogeneous-fleet": (
        400, 341, 59, 0, 0, 0, 0, 30591, 206, 0,
        "3c31e8724d0a8313ee56dcd645dc776a926e077bc575f9fc3a1352a4a8bc352e"),
    "reserved-heavy": (
        500, 499, 1, 1, 0, 0, 0, 48925, 0, 0,
        "9410c45f270589d82dc8c696325e76dd5db22cbddb01a7eb379b705ed4cc5d6b"),
    "spot-market": (
        600, 252, 348, 38, 0, 0, 0, 16128, 305, 0,
        "9b18abc309ed466ce58d26793e55c6e74181ee99f2ef9b19ed1b238c22cc7bad"),
    "diurnal-surge": (
        400, 395, 5, 0, 0, 0, 0, 50347, 1553, 0,
        "04ba81c6b5c3ff22d17ba28b717431be81a6ddc27d662693bd4089bbd6f4bdee"),
    "flash-crowd": (
        400, 398, 2, 0, 0, 0, 0, 45843, 686, 0,
        "5dc8ec43e26386c5779ecbe2af1c20ac3ca1f9c126835a37b81f9a45ab190a98"),
    "drain-storm": (
        407, 397, 10, 0, 7, 0, 6, 48331, 55, 0,
        "bab37242d86df56fd9876627f9f2533db552934b59a9a163125618c96e05a5f6"),
    "crash-heavy": (
        400, 395, 5, 0, 0, 5, 5, 46315, 85, 0,
        "04ba81c6b5c3ff22d17ba28b717431be81a6ddc27d662693bd4089bbd6f4bdee"),
    "spot-churn-with-crashes": (
        615, 420, 195, 31, 15, 8, 5, 19137, 210, 0,
        "45d1b85e1f9de23566e3adc73b0de8ffa679c6966ee6ab19b277fa64cba64d20"),
}

_FINGERPRINT_FIELDS = (
    "requested", "accepted", "rejected", "preempted", "evacuated",
    "crashed_vms", "failure_events", "observed_server_slots",
    "cpu_violation_slots", "memory_violation_slots", "decision_ring_sha256")


@pytest.fixture(scope="module")
def scenario_results():
    """Every named scenario, run exactly once for the whole module."""
    cache = {}

    def result(name: str) -> ScenarioResult:
        if name not in cache:
            cache[name] = run_scenario(name)
        return cache[name]

    return result


def test_registry_covers_golden_table():
    """The registry and the golden table stay in lockstep, and the registry
    meets the scenario-engine floor of eight named scenarios."""
    assert set(scenario_names()) == set(GOLDEN)
    assert len(SCENARIOS) >= 8


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_matches_golden_fingerprint(scenario_results, name):
    result = scenario_results(name)
    expected = dict(zip(_FINGERPRINT_FIELDS, GOLDEN[name]))
    actual = {field: result.fingerprint[field]
              for field in _FINGERPRINT_FIELDS}
    assert actual == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_invariants_hold(scenario_results, name):
    result = scenario_results(name)
    assert result.ok, result.invariant_failures


def test_crash_heavy_shares_baseline_decisions_but_loses_occupancy():
    """crash-heavy differs from baseline only by its failure axis, and on
    this seed no crash changes a later placement decision -- so the decision
    ring hashes are identical while the crashed VMs' lost occupancy shows up
    as strictly fewer observed server-slots.  That pair is exactly the
    composability promise: toggling one axis shifts only what it touches."""
    assert GOLDEN["crash-heavy"][-1] == GOLDEN["baseline"][-1]
    crash_slots = GOLDEN["crash-heavy"][7]
    baseline_slots = GOLDEN["baseline"][7]
    assert crash_slots < baseline_slots


def test_unknown_scenario_raises_with_known_names():
    with pytest.raises(KeyError) as excinfo:
        get_scenario("no-such-scenario")
    assert "baseline" in str(excinfo.value)


# ---------------------------------------------------------------------- #
# Property: scenarios are reproducible down to the stored bytes
# ---------------------------------------------------------------------- #
def test_same_scenario_writes_byte_identical_stores(tmp_path):
    """Generating the same scenario's trace twice yields byte-identical
    on-disk TraceStores: every random draw descends from the scenario seed,
    so there is no hidden state to drift between runs."""
    scenario = get_scenario("spot-churn-with-crashes")
    first = TraceGenerator(scenario.generator_config()).generate_to_store(
        tmp_path / "first")
    second = TraceGenerator(scenario.generator_config()).generate_to_store(
        tmp_path / "second")
    assert_store_dirs_identical(first, second)


def test_failure_scenarios_leave_no_negative_ledger_residue(scenario_results):
    """Drains and crashes release exactly what was committed: after the
    failure-heavy runs, no ledger array dips below zero anywhere."""
    for name in ("drain-storm", "crash-heavy", "spot-churn-with-crashes"):
        for sim in scenario_results(name).simulations:
            ledger = sim.manager.scheduler.ledger
            assert float(ledger.demand.min(initial=0.0)) >= 0.0, name
            assert float(ledger.pa_memory.min(initial=0.0)) >= 0.0, name
            assert float(ledger.va_demand.min(initial=0.0)) >= 0.0, name


def test_repeated_run_reproduces_fingerprint(scenario_results):
    """Running a scenario a second time in the same process reproduces the
    fingerprint exactly -- no cross-run state in the registry or engine."""
    again = run_scenario("drain-storm")
    assert again.fingerprint == scenario_results("drain-storm").fingerprint


# ---------------------------------------------------------------------- #
# The command line: python -m repro.scenarios
# ---------------------------------------------------------------------- #
def test_cli_lists_every_scenario(capsys):
    assert main(["--list"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == scenario_names()


def test_cli_rejects_unknown_scenario(capsys):
    assert main(["nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown scenario 'nope'" in captured.err
    assert "baseline" in captured.err


def test_cli_json_prints_the_golden_fingerprint(capsys):
    """With --json, stdout is one JSON document and the invariant lines go
    to stderr."""
    assert main(["baseline", "--json"]) == 0
    captured = capsys.readouterr()
    fingerprint = json.loads(captured.out)
    assert {field: fingerprint[field] for field in _FINGERPRINT_FIELDS} \
        == dict(zip(_FINGERPRINT_FIELDS, GOLDEN["baseline"]))
    assert captured.err.splitlines() == [
        f"invariant {name}: ok"
        for name in SCENARIOS["baseline"].expected_invariants]
