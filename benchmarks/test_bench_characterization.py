"""Characterization-throughput benchmark: columnar kernels vs per-VM loops.

The claim: the Section-2 statistic suite (Figures 2-12) over a multiweek
trace runs >= 5x faster through the segment-reduce kernels than through
the seed per-VM ``UtilizationSeries`` loops (each statistic's
``reference_*``), while every statistic stays bitwise identical (the
harness hard-asserts equality before the ratio is even considered).

The harness (:mod:`repro.simulator.benchmarking`) times
``run_characterization_suite``, which ``perfbench/`` also times as its
characterization stage, so this gate and the end-to-end stage time the
same statistics.  Every round of either side runs on a fresh ``Trace``
over the same store, so no round reuses the per-store statistics an
earlier round cached: the gate times a cold suite, as a pipeline runs it.
"""

from conftest import assert_perf, bench_smoke_enabled, run_once

from repro.simulator.benchmarking import measure_characterization_throughput
from repro.simulator.synthetic import generate_sweep_bench_trace


def test_bench_characterization_columnar(benchmark):
    """Columnar characterization is >= 5x the per-VM reference, bitwise-equal."""
    trace = generate_sweep_bench_trace(smoke=bench_smoke_enabled())
    outcome = run_once(benchmark, measure_characterization_throughput, trace)
    print(f"\ncharacterization: columnar {outcome['columnar_seconds'] * 1e3:.0f} ms"
          f" vs reference {outcome['reference_seconds'] * 1e3:.0f} ms"
          f" ({outcome['speedup']:.1f}x) on {outcome['n_vms']} VMs /"
          f" {outcome['n_slots']} slots")
    # The harness hard-asserts bitwise equality; restate the structural
    # claim so a harness regression cannot silently weaken the benchmark.
    assert outcome["bitwise_identical"]
    # Wall-clock ratio is machine-dependent: relaxed under smoke.
    assert_perf(outcome["speedup"] >= 5.0,
                "columnar characterization should be >= 5x the per-VM "
                f"reference, got {outcome['speedup']:.1f}x")
