"""Quickstart: generate a trace, train Coach's predictor, and place CoachVMs.

Run with ``python examples/quickstart.py``.
"""

from repro import COACH_POLICY, Resource, generate_trace
from repro.core.cluster_manager import ClusterManager, build_prediction_model
from repro.trace.timeseries import SLOTS_PER_DAY


def main() -> None:
    # 1. A synthetic two-week trace standing in for the Azure telemetry.
    trace = generate_trace(n_vms=600, n_days=14, seed=1, n_subscriptions=50,
                           servers_per_cluster=3)
    print("Trace:", {k: round(v, 2) for k, v in trace.summary().items()})

    # 2. Train the long-term utilization model on the first week.
    history, _future = trace.split_at(7 * SLOTS_PER_DAY)
    model = build_prediction_model(COACH_POLICY, history.long_running().vms,
                                   n_estimators=8)

    # 3. Admit the second week's arrivals to one cluster as CoachVMs.
    cluster_id = "C8"
    manager = ClusterManager(trace.fleet.get(cluster_id), COACH_POLICY, model)
    arrivals = [vm for vm in trace.vms
                if vm.cluster_id == cluster_id and vm.start_slot >= 7 * SLOTS_PER_DAY]
    # Plan every arrival in one prediction pass; each request then reuses
    # its planned row instead of predicting one VM at a time.
    manager.build_plans(arrivals)
    for vm in arrivals:
        manager.request_vm(vm)

    summary = manager.capacity_summary()
    print(f"Placed {summary['vms_placed']:.0f} VMs "
          f"({summary['vms_rejected']:.0f} rejected) on "
          f"{summary['servers_in_use']:.0f} servers")
    print(f"Memory guaranteed up front but not reserved thanks to oversubscription: "
          f"{summary['savings_memory_gb']:.0f} GB; CPU: {summary['savings_cores']:.0f} cores")

    # 4. Inspect one CoachVM's guaranteed/oversubscribed split.
    for coach_vm in list(manager.placed_vms().values())[:3]:
        print(f"  {coach_vm.vm_id}: {coach_vm.config.name} -> "
              f"PA {coach_vm.memory.pa_gb:.0f} GB + VA {coach_vm.memory.va_gb:.0f} GB "
              f"(oversubscription rate "
              f"{100 * coach_vm.oversubscription_rate(Resource.MEMORY):.0f}%)")


if __name__ == "__main__":
    main()
