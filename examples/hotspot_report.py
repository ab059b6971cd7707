"""Contention hotspots: which servers concentrate the violations?

Replays the coach policy over a small synthetic trace (the replay runs on
the trace store's columnar fast paths) and prints the per-server hotspot
table and per-cluster violation-rate CDFs from
:func:`repro.experiments.figures.hotspot_report` -- the starting point for a
mitigation/migration experiment: the paper's Section 5 mitigations act
exactly on the servers this report ranks first.
Run with ``python examples/hotspot_report.py``.
"""

import statistics

from repro.core.policy import COACH_POLICY
from repro.experiments.figures import hotspot_report
from repro.simulator import SimulationConfig, simulate_policy
from repro.trace.generator import generate_trace


def main() -> None:
    trace = generate_trace(n_vms=500, n_days=10, seed=1234, n_subscriptions=30,
                           servers_per_cluster=1)
    evaluation = simulate_policy(
        trace, COACH_POLICY,
        SimulationConfig(clusters=["C1", "C2", "C3"], n_estimators=3))
    report = hotspot_report(evaluation.violations, top_n=5)

    print(f"{report['n_servers']} servers hosted occupied slots; worst offenders:\n")
    # "pressure" = (cpu + mem violation slots) / observed slots; a slot
    # violating both resources counts twice, so it can exceed 100%.
    print(f"{'server':12s} {'cluster':8s} {'observed':>9s} {'cpu viol':>9s} "
          f"{'mem viol':>9s} {'pressure':>8s}")
    for row in report["hotspots"]:
        print(f"{row['server_id']:12s} {row['cluster_id']:8s} "
              f"{row['observed_slots']:9d} {row['cpu_violation_slots']:9d} "
              f"{row['memory_violation_slots']:9d} "
              f"{100.0 * row['violation_rate']:6.2f}%")

    print("\nPer-cluster violation-rate distribution (CDF):")
    for cluster_id, stats in report["per_cluster"].items():
        rates = stats["violation_rate"]
        median = statistics.median(rates)
        print(f"  {cluster_id}: {stats['n_servers']} servers, "
              f"median rate {100.0 * median:.2f}%, "
              f"worst {100.0 * rates[-1]:.2f}%, "
              f"cpu={stats['cpu_violation_slots']} "
              f"mem={stats['memory_violation_slots']} violation slots")

    print("\nServers at the top of this table are the mitigation/migration")
    print("candidates: trimming or migrating their noisiest VM resolves the")
    print("bulk of the cluster's contention (Section 5 of the paper).")


if __name__ == "__main__":
    main()
