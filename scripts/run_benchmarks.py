#!/usr/bin/env python3
"""Run the perf-tracking benchmarks and emit a machine-readable JSON record.

Writes ``BENCH_<date>.json`` (see ``--output-dir``) with the headline
performance numbers tracked PR over PR:

* placement throughput (plans/s) of the vectorized scheduler, plus the
  multi-size scaling curve (to 100k servers) of the incremental batched
  scheduler against the dense baseline, with per-size peak RSS and an
  explicit flag + factor whenever the dense rate is extrapolated from a
  timed prefix,
* replay throughput (observed server-slots/s) of the vectorized meter,
* policy-sweep wall-clock, serial vs. process pool -- the pool timed
  cold (worker spawn + imports) and warm (compute only) on one reused
  executor -- with bitwise equality checks against the serial walk,
* peak replay memory (tracemalloc bytes) for dense vs. chunked streaming
  replay, plus the process high-water RSS,
* trace-store numbers: per-worker sweep-task bytes (pickled trace vs.
  staged-store path) and mmap-backed streaming replay peak vs. the
  full in-RAM load.

The workloads are the same builders the ``benchmarks/`` suite uses
(:mod:`repro.simulator.synthetic`), so numbers are comparable with the
pytest benchmarks.  ``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) shrinks the
workloads for shared CI runners; the JSON records which mode produced it.

Usage::

    python scripts/run_benchmarks.py [--output-dir DIR] [--smoke]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.core.scheduler import ClusterScheduler
from repro.simulator.replay import VectorizedViolationMeter

# Workloads AND measurement harnesses are shared with the benchmarks/
# suite via repro.simulator.synthetic / repro.simulator.benchmarking, so
# the JSON trajectory and the pytest benchmark numbers cannot silently
# diverge.
from repro.simulator.benchmarking import (
    bench_smoke_enabled,
    measure_characterization_throughput,
    measure_mmap_bounded_replay,
    measure_replay_memory,
    measure_scenario_matrix,
    measure_scheduler_scaling,
    measure_streaming_ingest,
    measure_sweep_serial_vs_pool,
    measure_sweep_task_footprint,
)
from repro.simulator.synthetic import (
    BENCH_CHUNK_SLOTS,
    BENCH_WINDOWS,
    SCALE_BENCH_CLUSTER,
    build_chunked_bench_state,
    build_placement_bench_plans,
    build_replay_scale_state,
    generate_store_bench_trace,
    generate_sweep_bench_trace,
    streaming_ingest_batch_vms,
    streaming_ingest_config,
)


def measure_placement(smoke: bool) -> dict:
    """Plans/s of the vectorized scheduler on the 200-server cluster."""
    plans = build_placement_bench_plans(smoke=smoke)
    scheduler = ClusterScheduler(SCALE_BENCH_CLUSTER, BENCH_WINDOWS)
    begin = time.perf_counter()
    for plan in plans:
        scheduler.place(plan)
    seconds = time.perf_counter() - begin
    return {
        "n_plans": len(plans),
        "n_servers": SCALE_BENCH_CLUSTER.server_count,
        "accepted": scheduler.accepted_count(),
        "seconds": seconds,
        "plans_per_second": len(plans) / seconds,
    }


def measure_scaling(smoke: bool) -> dict:
    """Scheduler scaling curve: incremental place vs the dense baseline."""
    return measure_scheduler_scaling(smoke=smoke)


def measure_replay(smoke: bool) -> dict:
    """Observed server-slots/s of the vectorized violation meter."""
    servers, placed, n_slots = build_replay_scale_state(smoke=smoke)
    meter = VectorizedViolationMeter()
    meter.measure(servers, placed, 0, n_slots, 0.5)  # warm-up
    begin = time.perf_counter()
    stats = meter.measure(servers, placed, 0, n_slots, 0.5)
    seconds = time.perf_counter() - begin
    return {
        "n_vms": len(placed),
        "n_slots": n_slots,
        "observed_server_slots": stats.observed_server_slots,
        "seconds": seconds,
        "server_slots_per_second": stats.observed_server_slots / seconds,
    }


def measure_sweep(smoke: bool) -> dict:
    """Wall-clock of the standard-policy sweep, serial vs. process pool."""
    trace = generate_sweep_bench_trace(smoke=smoke)
    outcome = measure_sweep_serial_vs_pool(trace)
    results = outcome.pop("results")
    outcome["trace_slots"] = trace.n_slots
    evaluations = {}
    for name, evaluation in results.items():
        evaluations[name] = evaluation.to_dict()
    outcome["evaluations"] = evaluations
    return outcome


def measure_chunked_replay(smoke: bool) -> dict:
    """Peak replay memory: dense vs. chunked streaming on a multi-week state."""
    servers, placed, n_slots = build_chunked_bench_state(smoke=smoke)
    outcome = measure_replay_memory(servers, placed, n_slots, BENCH_CHUNK_SLOTS)
    outcome["n_vms"] = len(placed)
    outcome["n_slots"] = n_slots
    outcome["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome


def measure_trace_store(smoke: bool) -> dict:
    """Trace-store numbers: sweep-task bytes and mmap-bounded replay peaks."""
    trace = generate_store_bench_trace(smoke=smoke)
    outcome = measure_sweep_task_footprint(trace)
    with tempfile.TemporaryDirectory() as workdir:
        outcome["mmap_replay"] = measure_mmap_bounded_replay(trace, workdir)
    return outcome


def measure_streaming(smoke: bool) -> dict:
    """Bounded-memory ingest: streaming builder vs the eager from_trace path."""
    config = streaming_ingest_config(smoke=smoke)
    with tempfile.TemporaryDirectory() as workdir:
        outcome = measure_streaming_ingest(
            config, workdir, batch_vms=streaming_ingest_batch_vms(smoke=smoke))
    outcome["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome


def measure_scenarios(smoke: bool) -> dict:
    """Scenario-matrix wall-clock: the repro.scenarios registry end to end."""
    return measure_scenario_matrix(smoke=smoke)


def measure_characterization(smoke: bool) -> dict:
    """Section-2 suite wall-clock: columnar kernels vs the per-VM reference."""
    trace = generate_sweep_bench_trace(smoke=smoke, columnar=True)
    return measure_characterization_throughput(trace)


def measure_static_analysis() -> dict:
    """Invariant-linter counts: convention debt tracked alongside perf.

    ``active_findings`` must be 0 on a releasable tree (CI enforces it);
    ``suppressed_findings`` is the justified-violation debt whose trajectory
    the BENCH record makes visible PR over PR.
    """
    from repro.analysis import (
        AnalysisEngine,
        apply_baseline,
        default_rules,
        load_baseline,
    )

    root = Path(__file__).resolve().parents[1]
    findings = AnalysisEngine(default_rules()).analyze_paths(
        [root / "src" / "repro"], rel_root=root)
    baseline_path = root / "analysis_baseline.json"
    baseline = load_baseline(baseline_path) if baseline_path.exists() else {}
    result = apply_baseline(findings, baseline)
    by_rule: dict = {}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    return {
        "active_findings": len(result.active),
        "suppressed_findings": len(result.suppressed),
        "baseline_entries": len(baseline),
        "unused_baseline_entries": len(result.unused_entries),
        "findings_by_rule": dict(sorted(by_rule.items())),
    }


def git_revision() -> str:
    command = ["git", "rev-parse", "--short", "HEAD"]
    try:
        out = subprocess.run(
            command,
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parents[1],
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def smoke_requested(args: argparse.Namespace) -> bool:
    return args.smoke or bench_smoke_enabled()


def print_summary(record: dict) -> None:
    placement = record["placement"]
    replay = record["replay"]
    sweep = record["sweep"]
    chunked = record["chunked_replay"]
    dense_mb = chunked["dense_peak_bytes"] / 1e6
    chunked_mb = chunked["chunked_peak_bytes"] / 1e6
    print(f"  placement  {placement['plans_per_second']:12.0f} plans/s")
    scaling = record["scheduler_scaling"]
    # "~" marks a dense rate extrapolated from a timed prefix (the factor
    # is in the JSON as dense_extrapolation_factor) -- the incremental
    # rate and the speedup denominator, never a measured end-to-end dense
    # wall-clock at that size.
    points = ", ".join(
        f"{p['n_servers']}sv {p['incremental_plans_per_s']:.0f}/s "
        f"({'~' if p['dense_extrapolated'] else ''}{p['speedup']:.1f}x)"
        for p in scaling["curve"])
    print(f"  scaling    {points}")
    if any(p["dense_extrapolated"] for p in scaling["curve"]):
        print("             (~ = dense baseline extrapolated from a "
              "prefix; factor recorded in the JSON)")
    print(f"  replay     {replay['server_slots_per_second']:12.0f} server-slots/s")
    print(f"  sweep      serial {sweep['serial_seconds']:.2f}s", end="")
    print(f"  pool cold {sweep['pool_cold_seconds']:.2f}s", end="")
    print(f"  warm {sweep['pool_seconds']:.2f}s", end="")
    print(f"  ({sweep['workers']} workers, warm {sweep['speedup']:.2f}x, "
          f"cold {sweep['cold_speedup']:.2f}x)")
    print(f"  chunked    peak {chunked_mb:.1f} MB vs dense {dense_mb:.1f} MB", end="")
    print(f"  ({chunked['peak_reduction']:.1f}x reduction)")
    store = record["trace_store"]
    mmap_replay = store["mmap_replay"]
    pickled_mb = store["pickled_task_bytes"] / 1e6
    staged_kb = store["staged_task_bytes"] / 1e3
    print(f"  sweep task {pickled_mb:10.1f} MB pickled vs {staged_kb:.1f} KB staged", end="")
    print(f"  ({store['footprint_reduction']:.0f}x smaller per worker)")
    mmap_mb = mmap_replay["mmap_peak_bytes"] / 1e6
    budget_mb = mmap_replay["budget_bytes"] / 1e6
    buffer_mb = mmap_replay["buffer_nbytes"] / 1e6
    print(f"  mmap       peak {mmap_mb:.1f} MB (budget {budget_mb:.1f} MB", end="")
    print(f", buffer {buffer_mb:.1f} MB, {mmap_replay['peak_reduction']:.1f}x vs in-RAM)")
    ingest = record["streaming_ingest"]
    stream_mb = ingest["stream_peak_bytes"] / 1e6
    eager_mb = ingest["eager_peak_bytes"] / 1e6
    print(f"  ingest     peak {stream_mb:.1f} MB streaming vs {eager_mb:.1f} MB"
          f" eager ({ingest['peak_reduction']:.1f}x, "
          f"{ingest['vms_per_second']:.0f} VMs/s, bitwise identical)")
    characterization = record["characterization"]
    print(f"  character. columnar {characterization['columnar_seconds']:.2f}s"
          f" vs reference {characterization['reference_seconds']:.2f}s", end="")
    print(f"  ({characterization['speedup']:.1f}x, bitwise identical)")
    matrix = record["scenario_matrix"]
    print(f"  scenarios  {matrix['scenarios']} scenarios in "
          f"{matrix['total_seconds']:.2f}s "
          f"({matrix['vms_per_second']:.0f} VMs/s, invariants ok)")
    analysis = record["static_analysis"]
    print(f"  analysis   {analysis['active_findings']} active finding(s), "
          f"{analysis['suppressed_findings']} baselined "
          f"({analysis['baseline_entries']} entries, "
          f"{analysis['unused_baseline_entries']} unused)")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for the BENCH_<date>.json record (default: cwd)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink workloads for CI (REPRO_BENCH_SMOKE=1 implies this)",
    )
    args = parser.parse_args(argv)
    smoke = smoke_requested(args)

    print(f"running perf benchmarks (smoke={smoke}) ...")
    record = {
        "date": datetime.date.today().isoformat(),
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "placement": measure_placement(smoke),
        "scheduler_scaling": measure_scaling(smoke),
        "replay": measure_replay(smoke),
        "sweep": measure_sweep(smoke),
        "chunked_replay": measure_chunked_replay(smoke),
        "trace_store": measure_trace_store(smoke),
        "streaming_ingest": measure_streaming(smoke),
        "characterization": measure_characterization(smoke),
        "scenario_matrix": measure_scenarios(smoke),
        "static_analysis": measure_static_analysis(),
    }
    print_summary(record)

    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    output_path = output_dir / f"BENCH_{record['date']}.json"
    output_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
