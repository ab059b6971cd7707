"""Section-2 characterization analyses (Figures 2-12).

Each statistic computed over the trace store has a ``reference_<statistic>``
beside it: the per-VM loop it must equal bitwise.
"""

from repro.characterization.allocated import (
    CORE_THRESHOLDS,
    DURATION_THRESHOLDS_HOURS,
    MEMORY_THRESHOLDS_GB,
    median_vm_shape,
    reference_median_vm_shape,
    reference_resource_hours_by_duration,
    reference_resource_hours_by_size,
    resource_hours_by_duration,
    resource_hours_by_size,
)
from repro.characterization.predictability import (
    GROUPINGS,
    group_predictability,
    predictability_summary,
    reference_group_predictability,
)
from repro.characterization.savings import (
    cluster_savings,
    reference_cluster_savings,
    reference_weekly_savings_profile,
    savings_distribution,
    vm_window_savings,
    weekly_savings_profile,
)
from repro.characterization.stranding import (
    OVERSUBSCRIPTION_SCENARIOS,
    StrandingResult,
    measure_stranding,
    reference_measure_stranding,
    reference_stranding_by_scenario,
    stranding_by_scenario,
)
from repro.characterization.temporal import (
    fraction_consistent,
    peak_consistency_cdf,
    peaks_and_valleys_by_window,
    reference_peak_consistency_cdf,
    reference_peaks_and_valleys_by_window,
    vm_week_profile,
)
from repro.characterization.underutilization import (
    reference_utilization_scatter,
    reference_utilization_summary,
    utilization_scatter,
    utilization_summary,
)

__all__ = [
    "CORE_THRESHOLDS",
    "DURATION_THRESHOLDS_HOURS",
    "GROUPINGS",
    "MEMORY_THRESHOLDS_GB",
    "OVERSUBSCRIPTION_SCENARIOS",
    "StrandingResult",
    "cluster_savings",
    "fraction_consistent",
    "group_predictability",
    "measure_stranding",
    "median_vm_shape",
    "peak_consistency_cdf",
    "peaks_and_valleys_by_window",
    "predictability_summary",
    "reference_cluster_savings",
    "reference_group_predictability",
    "reference_measure_stranding",
    "reference_median_vm_shape",
    "reference_peak_consistency_cdf",
    "reference_peaks_and_valleys_by_window",
    "reference_resource_hours_by_duration",
    "reference_resource_hours_by_size",
    "reference_stranding_by_scenario",
    "reference_utilization_scatter",
    "reference_utilization_summary",
    "reference_weekly_savings_profile",
    "resource_hours_by_duration",
    "resource_hours_by_size",
    "savings_distribution",
    "stranding_by_scenario",
    "utilization_scatter",
    "utilization_summary",
    "vm_week_profile",
    "vm_window_savings",
    "weekly_savings_profile",
]
