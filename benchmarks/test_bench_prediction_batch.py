"""Stream prediction and planning against the per-VM oracle.

A cluster's replay plans its whole arrival stream with one
``predict_many`` call and one ``plan_many`` pass.  This benchmark times
that path against per-VM ``predict`` plus ``plan_vm`` on a trace of the
policy-sweep workload's size (800 VMs over 21 days) with the workload's
3-tree coach model.  The harness hard-asserts that every plan is bitwise
equal; the ratio goes through ``assert_perf``.

The reference walks each tree with the same fixed-depth level walk over
one VM's few rows, which costs several times more per call than a
per-row list walk would (53-60 us against 8.6 us on 6 rows), so the
ratio overstates the stream path's gain over a list-walk baseline.  The
bound, >= 25x, is half the lowest ratio measured on a 2-vCPU container
(51.5-60.7x), so a several-fold regression of the stream path fails it.
"""

from conftest import assert_perf, run_once

from repro.simulator.benchmarking import measure_prediction_batch
from repro.simulator.synthetic import generate_multiweek_trace


def test_bench_prediction_batch(benchmark):
    trace = generate_multiweek_trace(n_days=21, n_vms=800, seed=7,
                                     n_subscriptions=60, servers_per_cluster=3)
    outcome = run_once(benchmark, measure_prediction_batch, trace)
    print(f"\nstream planning: {outcome['n_vms']} VMs "
          f"({outcome['oversubscribed']} oversubscribed), per-VM "
          f"{outcome['per_vm_seconds'] * 1e3:.0f} ms vs stream "
          f"{outcome['stream_seconds'] * 1e3:.1f} ms "
          f"({outcome['speedup']:.1f}x)")
    assert outcome["bitwise_identical"]
    assert outcome["n_vms"] == 800
    assert outcome["oversubscribed"] > 0
    assert_perf(outcome["speedup"] >= 25.0,
                "predict_many + plan_many should be >= 25x per-VM predict + "
                f"plan_vm, got {outcome['speedup']:.1f}x")
