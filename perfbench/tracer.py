"""In-memory span tracer for the benchmark's traced runs.

A :class:`Tracer` records one span per call at each layer boundary: name,
start, end and the span that caused it, all under one run id.  Spans come
from two places, both in the benchmark's own files:

* the workload code opens spans around its own calls into a layer
  (``with tracer.span("trace.open"): ...``);
* :meth:`Tracer.install` wraps the public entry points the library calls
  internally -- ``ClusterManager.request_batch`` / ``deallocate``, the
  violation meter's ``measure``, the trace filters, model construction and
  ``predict``, the per-policy ``simulate_policy`` of the sweep, and every
  characterization family.  :meth:`Tracer.uninstall` restores them.

Nothing under ``src/`` is edited; untraced runs use :data:`NULL_TRACER`,
whose spans cost one attribute lookup.  Spans stay in memory and are
written out once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Tuple

#: Layers in report order: the repo's modules (``core`` = cluster_manager
#: + scheduler; ``engine`` and ``replay`` are the simulator's two halves).
LAYERS = ("trace", "prediction", "core", "engine", "replay", "sweep",
          "characterization", "scenarios")

#: Key in ``run_characterization_suite``'s result -> the function it calls.
CHARACTERIZATION_FAMILIES = {
    "duration": "resource_hours_by_duration",
    "size": "resource_hours_by_size",
    "shape": "median_vm_shape",
    "scatter": "utilization_scatter",
    "summary": "utilization_summary",
    "peaks": "peaks_and_valleys_by_window",
    "consistency": "peak_consistency_cdf",
    "savings": "cluster_savings",
    "weekly": "weekly_savings_profile",
    "stranding": "stranding_by_scenario",
    "predictability": "group_predictability",
}


class _NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value: float = 1) -> None:
        pass

    def build_model(self, build, policy, history_vms, *args, **kwargs):
        return build(policy, history_vms, *args, **kwargs)


NULL_TRACER = _NullTracer()


class _TimedModel:
    """Proxy handed to ``ClusterSimulation`` in place of the prediction
    model: times every ``predict`` call, delegates everything else."""

    def __init__(self, model: object, tracer: "Tracer"):
        self._model = model
        self._tracer = tracer

    def predict(self, vm):
        with self._tracer.span("prediction.predict"):
            return self._model.predict(vm)

    def __getattr__(self, name: str):
        return getattr(self._model, name)


class Tracer:
    """Span and counter recorder for one traced repetition."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (span id, parent span id or -1, name, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        begin = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, begin, end)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # ------------------------------------------------------------------ #
    # Wrapping the library's entry points
    # ------------------------------------------------------------------ #
    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the library entry points a run calls internally."""
        import repro.characterization as characterization
        import repro.simulator.engine as engine
        import repro.simulator.sweep as sweep
        from repro.core.cluster_manager import ClusterManager
        from repro.simulator.replay import VectorizedViolationMeter
        from repro.trace.store import TraceStore
        from repro.trace.trace import Trace

        tracer = self
        request_batch = ClusterManager.request_batch
        cluster_run = engine.ClusterSimulation.run
        measure = VectorizedViolationMeter.measure
        build_model = engine.build_prediction_model

        def traced_request_batch(manager, vms):
            vms = list(vms)
            begin = time.perf_counter()
            with tracer.span("core.admit"):
                results = request_batch(manager, vms)
            tracer.samples["core.admit_call_ms"].append(
                1e3 * (time.perf_counter() - begin))
            tracer.samples["core.plans_per_call"].append(len(vms))
            accepted = sum(1 for result in results if result.accepted)
            tracer.count("core.accepted", accepted)
            tracer.count("core.rejected", len(results) - accepted)
            return results

        def traced_cluster_run(simulation):
            with tracer.span("engine.cluster_run"):
                result = cluster_run(simulation)
            tracer.count("core.evacuated", simulation.evacuated)
            tracer.count("core.crashed_vms", simulation.crashed_vms)
            return result

        def traced_measure(meter, *args, **kwargs):
            with tracer.span("replay.measure"):
                stats = measure(meter, *args, **kwargs)
            tracer.count("replay.server_slots", stats.observed_server_slots)
            return stats

        def traced_build_model(policy, history_vms, *args, **kwargs):
            return tracer.build_model(build_model, policy, history_vms,
                                      *args, **kwargs)

        self._patch(ClusterManager, "request_batch", traced_request_batch)
        self._timed(ClusterManager, "deallocate", "core.release")
        self._patch(engine.ClusterSimulation, "run", traced_cluster_run)
        self._patch(VectorizedViolationMeter, "measure", traced_measure)
        self._timed(Trace, "split_at", "trace.filter")
        self._timed(Trace, "long_running", "trace.filter")
        self._timed(TraceStore, "arrivals_for", "trace.filter")
        self._patch(engine, "build_prediction_model", traced_build_model)
        self._timed(sweep, "simulate_policy", "engine.policy")
        for family, function in CHARACTERIZATION_FAMILIES.items():
            self._timed(characterization, function,
                        f"characterization.{family}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def build_model(self, build, policy, history_vms, *args, **kwargs):
        """Time model construction and hand back a predict-timing proxy."""
        history_vms = list(history_vms)
        self.count("prediction.fit_history_vms", len(history_vms))
        with self.span("prediction.fit"):
            model = build(policy, history_vms, *args, **kwargs)
        return _TimedModel(model, self)

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {span_id: end - begin
               for span_id, _parent, _name, begin, end in self.spans}
        for _span_id, parent, _name, begin, end in self.spans:
            if parent >= 0:
                own[parent] -= end - begin
        return own

    def summarize(self, run_window: Tuple[float, float]) -> Dict[str, object]:
        """Per-name totals, per-layer self time inside *run_window*, and the
        unattributed residual of the window."""
        own = self.self_times()
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        layer_self = {layer: 0.0 for layer in LAYERS}
        start, stop = run_window
        covered = 0.0
        for span_id, parent, name, begin, end in self.spans:
            total[name] += end - begin
            self_time[name] += own[span_id]
            calls[name] += 1
            if begin >= start and end <= stop:
                layer_self[name.split(".", 1)[0]] += own[span_id]
                if parent < 0:
                    covered += end - begin
        return {
            "total": dict(total), "self": dict(self_time), "calls": dict(calls),
            "layer_self": layer_self,
            "unattributed": (stop - start) - covered,
        }

    def dump(self, path) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w") as handle:
            json.dump({
                "run_id": self.run_id,
                "spans": [{"id": s, "parent": p, "name": n,
                           "start": b, "end": e}
                          for s, p, n, b, e in self.spans],
                "counters": dict(self.counters),
            }, handle)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, run_window: Tuple[float, float]
                  ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The per-layer metrics of one traced repetition (times in seconds),
    and each layer's self time as a share of the run window, with the part
    no span covers under ``unattributed``: the shares sum to one."""
    summary = tracer.summarize(run_window)
    total, own = summary["total"], summary["self"]
    counters = tracer.counters
    plans = tracer.samples["core.plans_per_call"]
    admit_ms = tracer.samples["core.admit_call_ms"]
    accepted = counters["core.accepted"]
    attempted = accepted + counters["core.rejected"]
    measure_s = total.get("replay.measure", 0.0)
    metrics = {
        "trace.generate_s": total.get("trace.generate", 0.0),
        "trace.open_s": total.get("trace.open", 0.0),
        "trace.filter_s": own.get("trace.filter", 0.0),
        "prediction.fit_s": own.get("prediction.fit", 0.0),
        "prediction.fit_history_vms": counters["prediction.fit_history_vms"],
        "prediction.predict_s": own.get("prediction.predict", 0.0),
        "prediction.predict_calls": summary["calls"].get("prediction.predict", 0),
        "core.admit_s": own.get("core.admit", 0.0),
        "core.admit_calls": len(plans),
        "core.plans_per_call.mean": sum(plans) / max(1, len(plans)),
        "core.plans_per_call.max": max(plans, default=0),
        "core.admit_call_ms.p50": median(admit_ms) if admit_ms else 0.0,
        "core.admit_call_ms.p99": percentile(admit_ms, 99.0),
        "core.accepted": accepted,
        "core.rejected": counters["core.rejected"],
        "core.accept_ratio": accepted / max(1.0, attempted),
        "core.release_s": own.get("core.release", 0.0),
        "core.release_calls": summary["calls"].get("core.release", 0),
        "core.evacuated": counters["core.evacuated"],
        "core.crashed_vms": counters["core.crashed_vms"],
        "engine.cluster_run_s": total.get("engine.cluster_run", 0.0),
        "engine.self_s": summary["layer_self"]["engine"],
        "replay.measure_s": measure_s,
        "replay.server_slots": counters["replay.server_slots"],
        "replay.server_slots_per_s":
            counters["replay.server_slots"] / max(measure_s, 1e-9),
        "sweep.serial_s": total.get("engine.policy", 0.0),
        "characterization.suite_s": total.get("characterization.suite", 0.0),
        "scenarios.invariants_checked": counters["scenarios.invariants_checked"],
        "scenarios.invariant_failures": counters["scenarios.invariant_failures"],
    }
    for family in CHARACTERIZATION_FAMILIES:
        metrics[f"characterization.{family}_s"] = total.get(
            f"characterization.{family}", 0.0)
    run_s = run_window[1] - run_window[0]
    shares = {layer: seconds / run_s
              for layer, seconds in summary["layer_self"].items()}
    shares["unattributed"] = summary["unattributed"] / run_s
    return metrics, shares
