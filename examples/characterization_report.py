"""Characterization report: regenerate the Section 2 analysis on a trace.

Prints the headline numbers behind Figures 2-12, computed through the
columnar segment-reduce path over the trace store, and reports the
measured speedup over the per-VM reference loops — both passes run, and
their results are asserted identical before anything is printed.  Run with
``python examples/characterization_report.py``.
"""

from repro import generate_trace
from repro.characterization import (
    cluster_savings,
    median_vm_shape,
    predictability_summary,
    resource_hours_by_duration,
    stranding_by_scenario,
    utilization_summary,
)
from repro.simulator.benchmarking import measure_characterization_throughput
from repro.trace.timeseries import SLOTS_PER_DAY


def main() -> None:
    trace = generate_trace(n_vms=800, n_days=14, seed=5, n_subscriptions=60,
                           servers_per_cluster=3)

    # Full Section-2 suite, columnar vs per-VM reference: asserts bitwise
    # equality, returns the wall-clocks (also how the benchmarks measure it).
    timing = measure_characterization_throughput(trace)
    print("== Columnar characterization ==")
    print(f"{timing['n_vms']} VMs / {timing['n_slots']} slots: "
          f"columnar {timing['columnar_seconds'] * 1e3:.0f} ms vs "
          f"per-VM reference {timing['reference_seconds'] * 1e3:.0f} ms "
          f"({timing['speedup']:.1f}x, results bitwise identical)")

    duration = resource_hours_by_duration(trace)
    one_day = duration["threshold_hours"].index(24)
    print("\n== Allocated resources (Figures 2-3) ==")
    print(f"VMs lasting >1 day: {duration['vms_pct'][one_day]:.0f}% of VMs, "
          f"{duration['cpu_hours_pct'][one_day]:.0f}% of core-hours")
    print("Median VM:", median_vm_shape(trace))

    print("\n== Stranding (Figures 4-5) ==")
    stranding = stranding_by_scenario(trace, sample_every_slots=SLOTS_PER_DAY)
    for scenario, result in stranding.items():
        fractions = {r.value: f"{100 * v:.0f}%" for r, v in result.stranded_fraction.items()}
        print(f"{scenario:12s} stranded: {fractions}")

    print("\n== Underutilization (Figure 6) ==")
    for key, value in utilization_summary(trace).items():
        print(f"  {key}: {value:.2f}")

    print("\n== Temporal savings (Figures 10-11) ==")
    for label, row in cluster_savings(trace, window_hours_sweep=[24, 6, 4, 1]).items():
        print(f"  {label:7s} CPU saved {row['cpu']:.1f}%  memory saved {row['memory']:.1f}%")

    print("\n== Predictability (Figure 12, memory) ==")
    for grouping, stats in predictability_summary(trace).items():
        print(f"  {grouping:28s} median matches {stats['median_matching_vms']:.0f}, "
              f"median range {stats['median_peak_range_pct']:.0f}%, "
              f"within 10%: {100 * stats['fraction_within_tolerance']:.0f}%")


if __name__ == "__main__":
    main()
