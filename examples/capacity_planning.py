"""Capacity planning: compare oversubscription policies on the same trace.

Reproduces the Figure 20 experiment at a small scale: how many more VMs the
platform hosts under Single / Coach / Aggressive Coach, and what it costs in
contention.  Run with ``python examples/capacity_planning.py``.
"""

from repro import generate_trace
from repro.core.policy import STANDARD_POLICIES
from repro.simulator import SimulationConfig, sweep_policies


def main() -> None:
    trace = generate_trace(n_vms=900, n_days=14, seed=11, n_subscriptions=60,
                           servers_per_cluster=2)
    config = SimulationConfig(clusters=["C1", "C4", "C8"], n_estimators=5)
    results = sweep_policies(trace, STANDARD_POLICIES, config)

    print(f"{'policy':12s} {'hosted cores':>12s} {'additional':>10s} "
          f"{'CPU viol.':>10s} {'MEM viol.':>10s} {'servers':>8s}")
    for name in ("none", "single", "coach", "aggr-coach"):
        r = results[name]
        print(f"{name:12s} {r.average_concurrent_cores:12.0f} "
              f"{(r.additional_capacity_pct or 0):9.1f}% "
              f"{r.violations.cpu_violation_pct:9.1f}% "
              f"{r.violations.memory_violation_pct:9.1f}% "
              f"{r.servers_in_use:8d}")

    coach = results["coach"]
    none = results["none"]
    print(f"\nCoach hosts {coach.average_concurrent_cores / max(none.average_concurrent_cores, 1e-9):.2f}x "
          "the sellable cores of the no-oversubscription baseline.")


if __name__ == "__main__":
    main()
