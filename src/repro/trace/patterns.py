"""Temporal utilization pattern synthesis.

The characterization (Section 2.3) shows that VM utilization exhibits
recurring daily peaks and valleys: some VMs peak at noon, others at night,
many are flat, and a minority are unpredictable.  Subscriptions behave
consistently, which is what makes history-based prediction work (Figure 12).

This module generates per-slot utilization series with those properties.
Each *pattern archetype* describes how a VM's utilization moves over the day
and week; a :class:`PatternParameters` instance pins the archetype's free
parameters (base level, peak height, peak window, noise) so that VMs from
the same subscription draw near-identical parameters.

A VM's series come from :func:`generate_vm_series` in two steps: the random
draws, one resource after another in a fixed order, then one array pass
over the VM's ``(n_resources, lifetime)`` matrix that reads the
per-slot tables of a :class:`SlotCalendar` built once for the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.resources import Resource
from repro.trace.timeseries import SLOTS_PER_DAY, SLOTS_PER_HOUR

#: Names of the supported archetypes.
ARCHETYPES = (
    "diurnal",        # busy during working hours, quiet at night
    "nocturnal",      # batch work at night (complementary to diurnal)
    "evening-peak",   # interactive/consumer traffic peaking in the evening
    "constant",       # flat utilization
    "weekly-batch",   # busy on weekdays, idle on weekends
    "bursty",         # unpredictable spikes
)


@dataclass(frozen=True)
class PatternParameters:
    """Free parameters of a temporal pattern for one resource of one VM."""

    archetype: str
    #: Baseline utilization fraction outside the peak.
    base: float
    #: Peak utilization fraction reached inside the peak window.
    peak: float
    #: Hour of day at which the daily peak is centred.
    peak_hour: float
    #: Width of the daily peak in hours.
    peak_width_hours: float
    #: Multiplier applied on weekends (captures weekday/weekend asymmetry).
    weekend_factor: float
    #: Standard deviation of multiplicative noise.
    noise: float
    #: Probability per slot of an unpredictable burst (bursty archetype).
    burst_probability: float = 0.0
    #: Height of unpredictable bursts.
    burst_height: float = 0.0


def _clamped(archetype: str, base: float, peak: float, peak_hour: float,
             peak_width_hours: float, weekend_factor: float, noise: float,
             burst_probability: float, burst_height: float) -> PatternParameters:
    """Parameters with every field clipped to its sane range."""
    return PatternParameters(
        archetype,
        base=min(max(base, 0.01), 0.98),
        peak=min(max(peak, 0.02), 1.0),
        peak_hour=peak_hour % 24.0,
        peak_width_hours=min(max(peak_width_hours, 0.5), 12.0),
        weekend_factor=min(max(weekend_factor, 0.05), 1.5),
        noise=min(max(noise, 0.0), 0.3),
        burst_probability=min(max(burst_probability, 0.0), 0.2),
        burst_height=min(max(burst_height, 0.0), 1.0),
    )


def archetype_defaults(archetype: str) -> PatternParameters:
    """Typical parameters for each archetype (before per-subscription jitter)."""
    table: Dict[str, PatternParameters] = {
        "diurnal": PatternParameters(
            "diurnal", base=0.12, peak=0.55, peak_hour=13.0, peak_width_hours=6.0,
            weekend_factor=0.5, noise=0.05),
        "nocturnal": PatternParameters(
            "nocturnal", base=0.10, peak=0.60, peak_hour=2.0, peak_width_hours=5.0,
            weekend_factor=0.9, noise=0.05),
        "evening-peak": PatternParameters(
            "evening-peak", base=0.15, peak=0.50, peak_hour=20.0, peak_width_hours=4.0,
            weekend_factor=1.2, noise=0.05),
        "constant": PatternParameters(
            "constant", base=0.30, peak=0.32, peak_hour=12.0, peak_width_hours=24.0,
            weekend_factor=1.0, noise=0.03),
        "weekly-batch": PatternParameters(
            "weekly-batch", base=0.20, peak=0.55, peak_hour=10.0, peak_width_hours=8.0,
            weekend_factor=0.15, noise=0.06),
        "bursty": PatternParameters(
            "bursty", base=0.15, peak=0.30, peak_hour=12.0, peak_width_hours=6.0,
            weekend_factor=1.0, noise=0.10, burst_probability=0.02, burst_height=0.6),
    }
    try:
        return table[archetype]
    except KeyError as exc:
        raise ValueError(f"unknown archetype {archetype!r}") from exc


def jitter_parameters(
    params: PatternParameters, rng: np.random.Generator, scale: float = 1.0
) -> PatternParameters:
    """Perturb pattern parameters, e.g. to derive a subscription's profile
    from the archetype default or a VM's profile from its subscription."""
    base = params.base + rng.normal(0.0, 0.04 * scale)
    peak = params.peak + rng.normal(0.0, 0.07 * scale)
    peak_hour = params.peak_hour + rng.normal(0.0, 1.0 * scale)
    peak_width_hours = params.peak_width_hours * float(np.exp(rng.normal(0.0, 0.1 * scale)))
    weekend_factor = params.weekend_factor + rng.normal(0.0, 0.08 * scale)
    noise = params.noise * float(np.exp(rng.normal(0.0, 0.2 * scale)))
    return _clamped(params.archetype, base, peak, peak_hour, peak_width_hours,
                    weekend_factor, noise, params.burst_probability,
                    params.burst_height)


def memory_parameters_from_cpu(
    cpu_params: PatternParameters, rng: np.random.Generator
) -> PatternParameters:
    """Derive a memory pattern correlated with the CPU pattern.

    Section 2.3: memory utilization is more diverse in its mean but much less
    variable over time (P95-P5 range usually below 30%, and below 10% for half
    of the VMs); VMs with high CPU utilization tend to also use more memory.
    """
    base = 0.5 + 0.45 * cpu_params.base + rng.normal(0.0, 0.12)
    # Memory swings are a small fraction of the CPU swing.
    swing = max(0.0, (cpu_params.peak - cpu_params.base)) * float(rng.uniform(0.1, 0.45))
    return _clamped(cpu_params.archetype, base, base + swing,
                    cpu_params.peak_hour, cpu_params.peak_width_hours,
                    cpu_params.weekend_factor, min(0.04, cpu_params.noise * 0.5),
                    cpu_params.burst_probability * 0.3,
                    cpu_params.burst_height * 0.3)


def scaled_parameters(
    params: PatternParameters, rng: np.random.Generator, mean_scale: float, swing_scale: float
) -> PatternParameters:
    """Derive a pattern for a secondary resource (network, SSD) from CPU."""
    base = params.base * mean_scale + rng.normal(0.0, 0.03)
    swing = max(0.0, params.peak - params.base) * swing_scale
    return _clamped(params.archetype, base, base + swing, params.peak_hour,
                    params.peak_width_hours, params.weekend_factor,
                    params.noise, params.burst_probability, params.burst_height)


@dataclass(frozen=True)
class SurgeConfig:
    """Correlated fleet-wide demand surges layered over every VM's series.

    The overlay is a *deterministic* function of the slot index (no RNG
    draws), so enabling it never shifts the generator's random stream: two
    configs differing only in ``surge`` sample identical VM populations,
    lifetimes, and noise, and differ exactly by the multiplicative overlay.
    The diurnal term peaks once a day at ``peak_hour``; the weekly term
    scales whole days, peaking on ``peak_weekday``.  Amplitudes are
    fractions of the base level (0.3 -> +30% at the peak).
    """

    #: Amplitude of the shared daily surge (fraction of baseline).
    daily_amplitude: float = 0.0
    #: Hour of day at which the shared daily surge peaks.
    peak_hour: float = 14.0
    #: Width (FWHM, hours) of the shared daily surge.
    peak_width_hours: float = 5.0
    #: Amplitude of the weekly surge (fraction of baseline).
    weekly_amplitude: float = 0.0
    #: Weekday (0 = Monday) on which the weekly surge peaks.
    peak_weekday: int = 1


def surge_overlay(surge: SurgeConfig, n_slots: int) -> np.ndarray:
    """Per-slot multiplicative surge factors (``>= 0``) for slots
    ``[0, n_slots)``, deterministically.

    The daily term is the Gaussian bump :func:`generate_vm_series` gives
    a VM's daily peak; the weekly term is a cosine over the weekday
    distance to ``peak_weekday``.  A zero-amplitude config returns
    all-ones.
    """
    slots = np.arange(n_slots)
    hour_of_day = (slots % SLOTS_PER_DAY) / SLOTS_PER_HOUR
    weekday = (slots // SLOTS_PER_DAY) % 7

    delta = np.minimum(np.abs(hour_of_day - surge.peak_hour),
                       24.0 - np.abs(hour_of_day - surge.peak_hour))
    sigma = surge.peak_width_hours / 2.355
    daily = surge.daily_amplitude * np.exp(-0.5 * (delta / max(sigma, 1e-6)) ** 2)

    day_delta = np.minimum(np.abs(weekday - surge.peak_weekday),
                           7.0 - np.abs(weekday - surge.peak_weekday))
    weekly = surge.weekly_amplitude * 0.5 * (1.0 + np.cos(np.pi * day_delta / 3.5))

    return np.maximum(1.0 + daily + weekly, 0.0)


class SlotCalendar:
    """The per-slot tables of a trace's horizon, built once per trace.

    Each entry depends only on the absolute slot index, so every VM's
    series reads a slice of these tables instead of rebuilding them for
    its lifetime.
    """

    __slots__ = ("hour_of_day", "is_weekend", "surge")

    def __init__(self, n_slots: int, surge: Optional[SurgeConfig] = None):
        slots = np.arange(n_slots)
        #: Hour of the day (fractional, 0 <= h < 24) at each slot.
        self.hour_of_day = (slots % SLOTS_PER_DAY) / SLOTS_PER_HOUR
        #: Whether each slot falls on a Saturday or Sunday.
        self.is_weekend = (slots // SLOTS_PER_DAY) % 7 >= 5
        #: The surge overlay at each slot, or ``None`` without a surge.
        self.surge = None if surge is None else surge_overlay(surge, n_slots)


def generate_vm_series(
    params: Sequence[PatternParameters],
    calendar: SlotCalendar,
    start_slot: int,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate one VM's per-slot maximum-utilization series, one row per
    entry of *params*, as a float64 ``(len(params), n_slots)`` matrix
    covering slots ``[start_slot, start_slot + n_slots)``.

    The random draws come first, one resource after another in *params*
    order: the resource's noise, then, if it bursts, its burst mask and
    burst heights.  Every row is then computed in one array pass that
    reads the calendar's slices and draws nothing more.

    The output is the *maximum* utilization within each 5-minute slot, so the
    noise model is multiplicative with a slight upward bias (maxima of noisy
    processes sit above their mean).  A daily Gaussian bump centred at the
    peak hour, scaled on weekends, gives the noise-free shape; the calendar's
    surge overlay, if any, multiplies the clipped series.
    """
    if n_slots <= 0:
        raise ValueError("n_slots must be positive")
    n_rows = len(params)
    noise = np.empty((n_rows, n_slots))
    bursts = None
    for row, p in enumerate(params):
        noise[row] = rng.normal(0.0, p.noise, size=n_slots)
        if p.burst_probability > 0.0:
            if bursts is None:
                bursts = np.zeros((n_rows, n_slots), dtype=bool)
                heights = np.zeros((n_rows, n_slots))
            bursts[row] = rng.random(n_slots) < p.burst_probability
            heights[row] = rng.random(n_slots)

    # One column per parameter, one row per resource.
    base, peak, peak_hour, sigma, weekend_factor, burst_height = np.array(
        [(p.base, p.peak, p.peak_hour, max(p.peak_width_hours / 2.355, 1e-6),
          p.weekend_factor, p.burst_height) for p in params]).T[:, :, None]
    window = slice(start_slot, start_slot + n_slots)

    # Gaussian bump centred at the peak hour with wrap-around at midnight.
    distance = np.abs(calendar.hour_of_day[window] - peak_hour)
    delta = np.minimum(distance, 24.0 - distance)
    bump = np.exp(-0.5 * (delta / sigma) ** 2)
    shape = base + (peak - base) * bump
    shape *= np.where(calendar.is_weekend[window], weekend_factor, 1.0)

    series = shape * (1.0 + np.abs(noise) * 0.5 + noise * 0.5)
    if bursts is not None:
        series = np.where(bursts, np.maximum(series, burst_height *
                                             (0.7 + 0.3 * heights)), series)
    np.clip(series, 0.005, 1.0, out=series)
    if calendar.surge is not None:
        series *= calendar.surge[window]
        np.clip(series, 0.005, 1.0, out=series)
    return series


def generate_resource_patterns(
    cpu_params: PatternParameters, rng: np.random.Generator
) -> Dict[Resource, PatternParameters]:
    """Per-resource pattern parameters for one VM, derived from its CPU pattern."""
    return {
        Resource.CPU: cpu_params,
        Resource.MEMORY: memory_parameters_from_cpu(cpu_params, rng),
        # Network follows CPU's rhythm with a lower mean (Section 2.3 notes
        # network and storage resemble CPU in mean, memory in range).
        Resource.NETWORK: scaled_parameters(cpu_params, rng, mean_scale=0.6, swing_scale=0.5),
        Resource.SSD: scaled_parameters(cpu_params, rng, mean_scale=0.5, swing_scale=0.25),
    }


@dataclass(frozen=True)
class SubscriptionProfile:
    """The per-subscription behaviour from which its VMs are derived."""

    archetype: str
    cpu_params: PatternParameters
    #: How tightly the subscription's VMs cluster around the profile.  Small
    #: values make history-based prediction accurate (Figure 12).
    vm_jitter: float = 0.35


def make_subscription_profile(
    archetype: str, rng: np.random.Generator
) -> SubscriptionProfile:
    base = archetype_defaults(archetype)
    return SubscriptionProfile(
        archetype=archetype,
        cpu_params=jitter_parameters(base, rng, scale=1.0),
        vm_jitter=float(rng.uniform(0.2, 0.5)),
    )


def vm_cpu_parameters(
    profile: SubscriptionProfile, rng: np.random.Generator, config_scale: float,
) -> PatternParameters:
    """Pattern parameters for one VM of a subscription.

    ``config_scale`` shifts the mean utilization for particular VM
    configurations (e.g. very large VMs tend to be better utilized).
    """
    params = jitter_parameters(profile.cpu_params, rng, scale=profile.vm_jitter)
    return _clamped(params.archetype, params.base * config_scale,
                    params.peak * config_scale, params.peak_hour,
                    params.peak_width_hours, params.weekend_factor,
                    params.noise, params.burst_probability,
                    params.burst_height)
