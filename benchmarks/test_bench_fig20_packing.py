"""Figure 20: additional capacity and violations per oversubscription policy."""
from conftest import run_once
from repro.experiments.figures import figure20_packing


def test_fig20_packing_and_violations(benchmark, packing_trace):
    rows = run_once(benchmark, figure20_packing, packing_trace,
                    clusters=("C1", "C4", "C8"), n_estimators=4)
    print("\nFigure 20 (paper: Single +22%, Coach +38%, Aggr +47%; violations few %):")
    for name in ("none", "single", "coach", "aggr-coach"):
        row = rows[name]
        print(f"  {name:10s} capacity +{row['additional_capacity_pct']:.1f}% "
              f"cpuV {row['cpu_violation_pct']:.1f}% memV {row['memory_violation_pct']:.1f}%")
    assert rows["single"]["additional_capacity_pct"] > 0
    assert rows["coach"]["additional_capacity_pct"] >= rows["single"]["additional_capacity_pct"] - 5.0
