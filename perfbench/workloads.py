"""The benchmark's workloads, one repetition each.

Every workload is one batch job driven through the public API the way a
user runs the Coach pipeline: ingest a generated trace into an on-disk
store (``TraceGenerator.generate_to_store`` -> ``TraceStore.open(mmap=True)``
-> ``.as_trace()``, timed as set-up), then the run proper.  The inputs are
a pure function of the seed; the program only ever sees the generated
trace.

* ``admission-flood`` -- a saturated fleet under the no-oversubscription
  policy fed by a diurnal surge, flash crowds, drains and crashes, built
  as an unregistered ``repro.scenarios.Scenario`` and replayed per cluster
  like ``run_scenario``; its declared invariants are checked, then the
  characterization suite runs over its many short VMs.
* ``policy-sweep`` -- Figure 20: the four standard policies through
  ``sweep_policies`` on two spawn workers with the shared-memory trace
  transport, then the characterization suite over the same trace.

:func:`run_repetition` returns the timings, the admission counters, the
quality numbers, a digest of every result (equal across repetitions of a
seed) and the correctness failures found.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.cluster_manager import build_prediction_model
from repro.core.policy import NO_OVERSUBSCRIPTION_POLICY, STANDARD_POLICIES
from repro.scenarios.axes import FailurePlan
from repro.scenarios.registry import Scenario
from repro.scenarios.runner import INVARIANTS, _decision_ring_hash
from repro.simulator.benchmarking import run_characterization_suite
from repro.simulator.engine import ClusterSimulation, SimulationConfig
from repro.simulator.metrics import ViolationStats
from repro.simulator.sweep import sweep_policies
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.patterns import SurgeConfig
from repro.trace.store import TraceStore
from repro.trace.timeseries import SLOTS_PER_DAY

from tracer import NULL_TRACER

#: Worker processes of the policy sweep (the benchmark host has 2 cores).
SWEEP_WORKERS = 2
#: Forest size of the learned model, as in the repo's sweep and replay
#: benchmarks: three trees keep a repetition short enough that a run
#: repeats it several times on a trace large enough to be steady.
FOREST_TREES = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads (``FULL`` is what is measured)."""

    flood_vms: int
    flood_servers_per_cluster: int
    sweep_vms: int
    sweep_servers_per_cluster: int


FULL = Sizes(flood_vms=8000, flood_servers_per_cluster=32,
             sweep_vms=800, sweep_servers_per_cluster=3)
#: The self-test's sizes: same code path, seconds instead of minutes.
TINY = Sizes(flood_vms=600, flood_servers_per_cluster=4,
             sweep_vms=120, sweep_servers_per_cluster=1)


def flood_scenario(seed: int, sizes: Sizes) -> Scenario:
    return Scenario(
        name="admission-flood",
        description="Saturated default fleet, class-blind no-oversubscription "
                    "admission, diurnal surge + flash crowds, drains and "
                    "crashes.",
        seed=seed, n_vms=sizes.flood_vms, n_days=8, n_subscriptions=80,
        servers_per_cluster=sizes.flood_servers_per_cluster,
        surge=SurgeConfig(daily_amplitude=0.5, peak_hour=14.0,
                          weekly_amplitude=0.25, peak_weekday=2),
        flash_crowd_slots=(2 * SLOTS_PER_DAY + 150, 5 * SLOTS_PER_DAY + 60),
        flash_crowd_fraction=0.3,
        failures=FailurePlan(n_drains=8, n_crashes=4, start_slot=SLOTS_PER_DAY),
        expected_invariants=tuple(INVARIANTS),
    )


def sweep_generator(seed: int, sizes: Sizes) -> TraceGeneratorConfig:
    return TraceGeneratorConfig(
        n_vms=sizes.sweep_vms, n_days=21, n_subscriptions=60, seed=seed,
        servers_per_cluster=sizes.sweep_servers_per_cluster)


# ---------------------------------------------------------------------- #
# Result digest
# ---------------------------------------------------------------------- #
def _feed(digest, value) -> None:
    """Hash *value* canonically: dataclasses, mappings, sequences, arrays."""
    if is_dataclass(value) and not isinstance(value, type):
        digest.update(type(value).__name__.encode())
        for field in fields(value):
            digest.update(field.name.encode())
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, dict):
        for key in sorted(value, key=repr):
            digest.update(repr(key).encode())
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(b"[%d" % len(value))
        for item in value:
            _feed(digest, item)
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    else:
        digest.update(repr(value).encode())


def result_digest(*values) -> str:
    digest = hashlib.sha256()
    for value in values:
        _feed(digest, value)
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# One repetition
# ---------------------------------------------------------------------- #
@dataclass
class Repetition:
    """What one repetition measured and checked (times in seconds)."""

    setup_s: float
    run_s: float
    #: CPU seconds of the run phase, this process plus reaped workers.
    cpu_s: float
    run_window: tuple
    #: VM requests replayed (summed over every policy of a sweep).
    vm_requests: int
    #: Accepted / requested VMs under the workload's main policy.
    requested: int
    accepted: int
    digest: str
    #: One message per failed operation.
    failures: List[str]
    quality: Dict[str, float]
    store_mb: float


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _ingest(generator: TraceGeneratorConfig, workdir: Path, tracer):
    """The set-up every workload pays: stream to disk, mmap-open, view."""
    path = workdir / "store"
    with tracer.span("trace.generate"):
        TraceGenerator(generator).generate_to_store(path)
    with tracer.span("trace.open"):
        trace = TraceStore.open(path, mmap=True).as_trace()
    store_mb = sum(p.stat().st_size for p in path.iterdir()) / 2**20
    return trace, store_mb


def _characterize(trace, tracer):
    with tracer.span("characterization.suite"):
        return run_characterization_suite(trace)


def _check_counts(label: str, requested: int, accepted: int, rejected: int,
                  failures: List[str]) -> None:
    if requested != accepted + rejected:
        failures.append(f"{label}: requested {requested} != accepted "
                        f"{accepted} + rejected {rejected}")


def _admission_flood(scenario: Scenario, trace, tracer) -> dict:
    config = scenario.simulation_config()
    simulations: List[ClusterSimulation] = []
    parts: List[ViolationStats] = []
    with tracer.span("engine.policy"):
        model = tracer.build_model(build_prediction_model,
                                   NO_OVERSUBSCRIPTION_POLICY, [])
        for cluster_id in sorted(trace.cluster_ids()):
            sim = ClusterSimulation(trace, cluster_id,
                                    NO_OVERSUBSCRIPTION_POLICY, model, config)
            parts.append(sim.run().violations)
            simulations.append(sim)
        violations = ViolationStats.merge(parts)
    failures: List[str] = []
    with tracer.span("scenarios.invariants"):
        for name in scenario.expected_invariants:
            message = INVARIANTS[name](scenario, config, simulations)
            tracer.count("scenarios.invariants_checked")
            if message is not None:
                tracer.count("scenarios.invariant_failures")
                failures.append(f"{name}: {message}")
    characterization = _characterize(trace, tracer)
    stats = [sim.manager.stats for sim in simulations]
    requested = sum(s.requests for s in stats)
    accepted = sum(s.accepted for s in stats)
    rejected = sum(s.rejected for s in stats)
    _check_counts("admission", requested, accepted, rejected, failures)
    counters = {
        "requested": requested, "accepted": accepted, "rejected": rejected,
        "preempted": sum(s.preempted for s in stats),
        "evacuated": sum(sim.evacuated for sim in simulations),
        "crashed_vms": sum(sim.crashed_vms for sim in simulations),
        "observed_server_slots": violations.observed_server_slots,
        "decision_ring_sha256": _decision_ring_hash(simulations),
    }
    return {
        "vm_requests": requested, "requested": requested, "accepted": accepted,
        "digest": result_digest(counters, characterization),
        "failures": failures,
        "quality": {
            "mem_violation_pct": violations.memory_violation_pct,
            "cpu_violation_pct": violations.cpu_violation_pct,
        },
    }


def _policy_sweep(trace, tracer) -> dict:
    # Traced runs evaluate the policies in-process so every layer below the
    # sweep is visible to the tracer; untraced runs use the worker pool.
    workers = 1 if tracer.enabled else SWEEP_WORKERS
    with tracer.span("sweep.sweep_policies"):
        results = sweep_policies(trace, STANDARD_POLICIES,
                                 SimulationConfig(n_estimators=FOREST_TREES,
                                                  sweep_parallelism=workers))
    characterization = _characterize(trace, tracer)
    failures: List[str] = []
    for name, evaluation in results.items():
        _check_counts(name, evaluation.requested_vms, evaluation.accepted_vms,
                      evaluation.rejected_vms, failures)
    coach, none = results["coach"], results["none"]
    if coach.accepted_vms < none.accepted_vms:
        failures.append(f"coach admitted {coach.accepted_vms} VMs, fewer "
                        f"than none's {none.accepted_vms}")
    return {
        "vm_requests": sum(e.requested_vms for e in results.values()),
        "requested": coach.requested_vms, "accepted": coach.accepted_vms,
        "digest": result_digest([e.to_dict() for e in results.values()],
                                characterization),
        "failures": failures,
        "quality": {
            "extra_capacity_pct": coach.additional_capacity_pct,
            "mem_violation_pct": coach.violations.memory_violation_pct,
            "cpu_violation_pct": coach.violations.cpu_violation_pct,
        },
    }


WORKLOADS = ("admission-flood", "policy-sweep")


def run_repetition(workload: str, seed: int, sizes: Sizes, workroot: Path,
                   tracer=NULL_TRACER) -> Repetition:
    """Set up and run one repetition of *workload*; the store is deleted."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{list(WORKLOADS)}")
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot))
    scenario: Optional[Scenario] = None
    if workload == "admission-flood":
        scenario = flood_scenario(seed, sizes)
        generator = scenario.generator_config()
    else:
        generator = sweep_generator(seed, sizes)
    try:
        setup_begin = time.perf_counter()
        trace, store_mb = _ingest(generator, workdir, tracer)
        run_begin = time.perf_counter()
        cpu_begin = _cpu_seconds()
        if workload == "admission-flood":
            outcome = _admission_flood(scenario, trace, tracer)
        else:
            outcome = _policy_sweep(trace, tracer)
        run_end = time.perf_counter()
        cpu_s = _cpu_seconds() - cpu_begin
        del trace
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Repetition(
        setup_s=run_begin - setup_begin, run_s=run_end - run_begin,
        cpu_s=cpu_s,
        run_window=(run_begin, run_end),
        store_mb=store_mb, **outcome)
