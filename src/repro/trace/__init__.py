"""Trace substrate: VM records, hardware, temporal patterns, and generation."""

from repro.trace.generator import (
    TraceGenerator,
    TraceGeneratorConfig,
    generate_trace,
    generate_trace_to_store,
    small_trace,
)
from repro.trace.hardware import ClusterConfig, Fleet, HARDWARE_GENERATIONS, ServerConfig, default_clusters
from repro.trace.patterns import ARCHETYPES, PatternParameters, SubscriptionProfile
from repro.trace.timeseries import (
    DEFAULT_WINDOWS,
    MINUTES_PER_SLOT,
    SLOTS_PER_DAY,
    SLOTS_PER_HOUR,
    SWEEP_WINDOW_HOURS,
    TimeWindowConfig,
    UtilizationSeries,
    slots_for_days,
    slots_for_hours,
)
from repro.trace.store import TraceStore, TraceStoreBuilder
from repro.trace.trace import Trace
from repro.trace.vm import (
    TYPICAL_VM_CONFIG,
    VM_CATALOG,
    Offering,
    Subscription,
    SubscriptionType,
    VMConfig,
    VMRecord,
)

__all__ = [
    "ARCHETYPES",
    "ClusterConfig",
    "DEFAULT_WINDOWS",
    "Fleet",
    "HARDWARE_GENERATIONS",
    "MINUTES_PER_SLOT",
    "Offering",
    "PatternParameters",
    "SLOTS_PER_DAY",
    "SLOTS_PER_HOUR",
    "SWEEP_WINDOW_HOURS",
    "ServerConfig",
    "Subscription",
    "SubscriptionProfile",
    "SubscriptionType",
    "TYPICAL_VM_CONFIG",
    "TimeWindowConfig",
    "Trace",
    "TraceGenerator",
    "TraceStore",
    "TraceStoreBuilder",
    "TraceGeneratorConfig",
    "UtilizationSeries",
    "VMConfig",
    "VMRecord",
    "VM_CATALOG",
    "default_clusters",
    "generate_trace",
    "generate_trace_to_store",
    "slots_for_days",
    "slots_for_hours",
    "small_trace",
]
