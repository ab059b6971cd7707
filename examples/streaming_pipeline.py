"""End-to-end bounded-memory pipeline: generate -> store -> replay -> characterize.

The eager path (``generate_trace`` then ``trace.store.save``) holds every
VM record and the concatenated telemetry buffers in RAM at once.  This
example runs the same pipeline without ever doing that:

1. **Generate + ingest, streaming.**  ``generate_trace_to_store`` drives the
   synthetic generator through a ``TraceStoreBuilder`` one VM at a time,
   appending telemetry straight to the on-disk columnar layout.
2. **Replay, memory-mapped.**  ``TraceStore.open(mmap=True)`` loads only the
   metadata columns; the chunked violation meter faults telemetry pages in
   one slot-chunk at a time.
3. **Characterize, columnar.**  Section-2 statistics run as segment
   reductions over the same mmap'd buffers.

Both ingest paths are byte-identical on disk (the builder's differential
contract), so the printed peak-memory ratio is the whole story -- nothing
else about the results changes.  Both stores live in a temporary directory
that is removed when the run ends.  Run with::

    python examples/streaming_pipeline.py

See docs/trace_store.md ("Streaming ingest") for the builder API.
"""

import shutil
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro.core.policy import COACH_POLICY
from repro.simulator.engine import SimulationConfig, simulate_policy
from repro.simulator.replay import chunk_slots_for_budget
from repro.trace.generator import generate_trace, generate_trace_to_store
from repro.trace.store import TraceStore

N_VMS = 2000
N_DAYS = 30
SEED = 2026


def traced(label, fn):
    """Run *fn* under tracemalloc; print and return (result, peak_bytes)."""
    tracemalloc.start()
    begin = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - begin
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"  {label:<28s} peak {peak / 1e6:8.1f} MB   {seconds:6.1f}s")
    return result, peak


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="streaming-pipeline-"))
    try:
        run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workdir: Path) -> None:
    store_path = workdir / "trace-store"
    print(f"Month-scale workload: {N_VMS} VMs x {N_DAYS} days -> {store_path}")

    # 1. Streaming ingest vs the eager baseline, same seed -> same bytes.
    print("Ingest:")
    _, stream_peak = traced(
        "streaming generate_to_store",
        lambda: generate_trace_to_store(store_path, n_vms=N_VMS, n_days=N_DAYS,
                                        seed=SEED))

    def eager():
        trace = generate_trace(n_vms=N_VMS, n_days=N_DAYS, seed=SEED)
        return trace.store.save(workdir / "eager-store")

    eager_path, eager_peak = traced("eager from_trace + save", eager)
    for name in sorted(p.name for p in eager_path.iterdir()):
        assert (eager_path / name).read_bytes() == \
            (store_path / name).read_bytes(), f"{name} differs"
    print(f"  -> byte-identical stores; streaming peaked "
          f"{eager_peak / max(1, stream_peak):.1f}x lower")

    # 2. Replay from disk, memory-mapped, under a budget the telemetry
    #    buffer itself exceeds.
    store = TraceStore.open(store_path, mmap=True)
    budget = max(1, store.util_nbytes // 3)
    max_servers = max(c.server_count for c in store.fleet.clusters)
    chunk = chunk_slots_for_budget(max_servers, budget)
    print(f"Replay (buffer {store.util_nbytes / 1e6:.1f} MB, "
          f"budget {budget / 1e6:.1f} MB, chunk {chunk} slots):")
    evaluation, replay_peak = traced(
        "mmap + chunked replay",
        lambda: simulate_policy(store.as_trace(), COACH_POLICY,
                                SimulationConfig(replay_chunk_slots=chunk)))
    assert replay_peak < budget, "replay exceeded the memory budget"
    print(f"  -> {evaluation.accepted_vms}/{evaluation.requested_vms} VMs "
          f"accepted, memory violations "
          f"{evaluation.violations.memory_violation_pct:.2f}%, within budget")

    # 3. Columnar characterization over the same mmap'd store.
    from repro.characterization import utilization_summary
    print("Characterize:")
    summary, _ = traced("utilization_summary",
                        lambda: utilization_summary(store.as_trace()))
    print(f"  -> {len(summary)} headline statistics computed from the "
          f"mmap'd buffers")
    print("Done.")


if __name__ == "__main__":
    main()
