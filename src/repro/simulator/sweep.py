"""Process-parallel policy sweep orchestration.

:func:`sweep_policies` walks a whole policy suite over one trace.  The phases
that dominate a sweep -- random-forest training and the replay arithmetic --
hold the GIL, so threads cannot speed it up.  This module fans the sweep out
across processes instead, at the policy level: one :class:`SweepTask` per
policy, dispatched to a ``ProcessPoolExecutor``
(``SimulationConfig.sweep_parallelism`` workers).  Callers that sweep
repeatedly can hand ``sweep_policies`` a long-lived pool from
:func:`create_sweep_executor`, paying the worker spawn + import bill once
instead of per sweep.

Determinism contract
--------------------
Every worker runs the exact same ``simulate_policy`` code path on the exact
same pickled inputs (the trace, the :class:`PolicyConfig`, and the
:class:`SimulationConfig`), and all model training is seeded
(``random_state=0`` forests), so a policy's :class:`PolicyEvaluation` is
bitwise identical whether it was computed in-process or in a worker.
Results are merged in *policy-declaration order* regardless of completion
order, so the returned mapping -- including the relative
``compare_policies`` columns -- is bitwise identical for any worker count.
``tests/test_golden_trace.py`` pins this against the golden trace.

Trace transport
---------------
Shipping the trace itself is the sweep's memory bill: pickling one
:class:`SweepTask` per policy makes every worker unpickle a private copy of
the full telemetry (``sweep_parallelism * trace_size`` bytes at peak).  So
the pooled sweep saves the trace's :class:`~repro.trace.store.TraceStore`
once in a private ``tempfile.mkdtemp`` directory, and every task carries
only that store's path.  Workers ``TraceStore.open(path, mmap=True)`` it,
so their input passes ``open``'s file checks and all of them read one
copy through the page cache.  A temp directory that cannot be created or
written (``OSError``) falls back to pickling the compacted store into
every task.  Either way a worker builds its trace with ``as_trace()``.
The parent removes the directory in a ``finally`` around the pool, so
neither a failing policy nor an abruptly dying worker leaves it behind;
only a SIGKILL of the sweeping process itself does (a ``repro-sweep-*``
directory in the temp dir).  Workers read the exact float values the
parent holds, so both paths are bitwise identical (pinned in
``tests/test_golden_trace.py``).

Failure contract
----------------
A policy that raises inside a worker must not hang the sweep or surface a
bare pickling error.  Workers catch everything and ship a
:class:`_SweepFailure` back to the parent, which cancels the outstanding
tasks and raises :class:`PolicySweepError` carrying the policy name, the
original exception type/message, and the worker's formatted traceback.  The
serial path wraps failures in the same exception type so callers handle one
shape.  When several policies fail, the one earliest in declaration order
wins (deterministic error reporting).
"""

from __future__ import annotations

import shutil
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, Optional

from repro.core.policy import STANDARD_POLICIES, PolicyConfig
from repro.simulator.engine import SimulationConfig, simulate_policy
from repro.simulator.metrics import PolicyEvaluation, compare_policies
from repro.trace.store import TraceStore
from repro.trace.trace import Trace

#: Start method for sweep workers.  ``spawn`` is used on every platform: it
#: is the only method that exists everywhere, and it never inherits thread
#: or RNG state from the parent, which keeps the determinism contract free
#: of fork-time surprises (at the price of re-importing numpy per worker).
_MP_START_METHOD = "spawn"


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: evaluate a single policy on a trace.

    The task is fully self-contained and picklable -- the trace's store (or
    the path of its on-disk copy), the policy, and the simulation knobs
    travel together -- so it can be shipped to a spawned worker process
    that shares no state with the parent.  Exactly one of ``store`` /
    ``store_path`` is set: with a path, the worker memory-maps the staged
    store instead of unpickling a private copy of the telemetry.
    """

    policy_name: str
    policy: PolicyConfig
    store: Optional[TraceStore]
    config: SimulationConfig
    store_path: Optional[str] = None


@dataclass(frozen=True)
class _SweepFailure:
    """Picklable capture of an exception raised inside a sweep worker."""

    original_type: str
    original_message: str
    worker_traceback: str


@dataclass(frozen=True)
class _SweepOutcome:
    """What a worker ships back: an evaluation or a captured failure."""

    policy_name: str
    evaluation: Optional[PolicyEvaluation] = None
    failure: Optional[_SweepFailure] = None


class PolicySweepError(RuntimeError):
    """A policy evaluation failed during a sweep.

    Carries the failing policy's name plus the original exception type,
    message, and (for process-pool failures) the worker-side traceback, so
    the root cause is debuggable without re-running the sweep serially.
    """

    def __init__(self, policy_name: str, original_type: str,
                 original_message: str, worker_traceback: str = ""):
        self.policy_name = policy_name
        self.original_type = original_type
        self.original_message = original_message
        self.worker_traceback = worker_traceback
        detail = f"policy {policy_name!r} failed: {original_type}: {original_message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)


def run_sweep_task(task: SweepTask) -> _SweepOutcome:
    """Evaluate one policy; never raises (failures are shipped as data).

    Module-level so it is importable by ``spawn`` workers.  Exceptions are
    captured into the outcome instead of propagating: a raised exception
    would be pickled by ``concurrent.futures`` machinery, and exception
    classes with non-trivial constructors round-trip poorly, turning the
    real failure into an opaque ``BrokenProcessPool``.  That includes a
    damaged staged store: ``open`` raises ``ValueError`` naming the file.
    """
    try:
        store = task.store
        if task.store_path is not None:
            store = TraceStore.open(task.store_path, mmap=True)
        evaluation = simulate_policy(store.as_trace(), task.policy, task.config)
        return _SweepOutcome(task.policy_name, evaluation=evaluation)
    except Exception as exc:  # noqa: BLE001 -- the parent re-raises with context
        failure = _SweepFailure(type(exc).__name__, str(exc),
                                traceback.format_exc())
        return _SweepOutcome(task.policy_name, failure=failure)


def _evaluate_serial(trace: Trace, name: str, policy: PolicyConfig,
                     config: SimulationConfig) -> PolicyEvaluation:
    """In-process evaluation with the same failure shape as the pool path."""
    try:
        return simulate_policy(trace, policy, config)
    except Exception as exc:
        raise PolicySweepError(name, type(exc).__name__, str(exc)) from exc


def create_sweep_executor(n_workers: int) -> ProcessPoolExecutor:
    """A sweep-compatible process pool the caller owns (``spawn`` workers).

    Passing the pool to ``sweep_policies(..., executor=...)`` reuses the
    same workers across consecutive sweeps, paying the one-time spawn +
    numpy-import bill once instead of per sweep.  The caller is
    responsible for ``shutdown()``; the sweep never closes a pool it did
    not create.
    """
    return ProcessPoolExecutor(max_workers=max(1, n_workers),
                               mp_context=get_context(_MP_START_METHOD))


def sweep_policies(trace: Trace,
                   policies: Optional[Dict[str, PolicyConfig]] = None,
                   config: Optional[SimulationConfig] = None,
                   *,
                   executor: Optional[ProcessPoolExecutor] = None) -> Dict[str, PolicyEvaluation]:
    """Evaluate several policies on the same trace (Figure 20).

    Dispatches one :class:`SweepTask` per policy across
    ``config.sweep_parallelism`` worker processes (1 = serial, the
    default).  Results are merged in policy-declaration order, so the
    returned mapping is bitwise identical to the serial sweep for any
    worker count.  Additional capacity is computed relative to the
    ``none`` policy when present.

    With *executor* (see :func:`create_sweep_executor`) the tasks are
    submitted to the caller's pool instead of a freshly spawned one and
    the pool is left running afterwards -- worker reuse for callers that
    sweep repeatedly.  Determinism is unaffected: workers share no sweep
    state, so a warm worker computes the same bits as a cold one.
    """
    policies = dict(policies or STANDARD_POLICIES)
    config = config or SimulationConfig()
    n_workers = min(max(1, config.sweep_parallelism), max(1, len(policies)))
    pooled = (n_workers > 1 or executor is not None) and len(policies) > 1
    if not pooled:
        results = {name: _evaluate_serial(trace, name, policy, config)
                   for name, policy in policies.items()}
    else:
        results = _sweep_with_pool(trace, policies, config, n_workers,
                                   executor=executor)

    if "none" in results:
        compare_policies(results, baseline="none")
    return results


def _run_sweep_tasks(pool: ProcessPoolExecutor,
                     tasks: list) -> Dict[str, PolicyEvaluation]:
    """Submit every task and collect outcomes in declaration order.

    Declaration-order collection gives a deterministic merge AND
    deterministic error attribution when several policies fail at once.
    On any failure the outstanding futures are cancelled and the running
    ones drained before the exception propagates, so the caller can remove
    the staged store immediately -- even when the pool it handed in keeps
    living after the sweep.
    """
    futures = [(task.policy_name, pool.submit(run_sweep_task, task))
               for task in tasks]
    results: Dict[str, PolicyEvaluation] = {}
    try:
        for name, future in futures:
            try:
                outcome = future.result()
            except BrokenProcessPool as exc:
                # A worker died outright (OOM-kill, segfault) -- nothing
                # could ship a _SweepFailure back, so attribute the break
                # to the policy whose result was pending when it surfaced.
                raise PolicySweepError(
                    name, type(exc).__name__,
                    "a sweep worker process died abruptly (e.g. "
                    "OOM-killed or segfaulted) while this policy was "
                    f"pending: {exc}",
                ) from exc
            if outcome.failure is not None:
                failure = outcome.failure
                raise PolicySweepError(name, failure.original_type,
                                       failure.original_message,
                                       failure.worker_traceback)
            results[name] = outcome.evaluation
    except BaseException:
        for _name, pending in futures:
            pending.cancel()
        wait([future for _name, future in futures])
        raise
    return results


def _sweep_with_pool(trace: Trace, policies: Dict[str, PolicyConfig],
                     config: SimulationConfig, n_workers: int,
                     executor: Optional[ProcessPoolExecutor] = None) -> Dict[str, PolicyEvaluation]:
    staging: Optional[str] = None
    try:
        store_path: Optional[str] = None
        try:
            staging = tempfile.mkdtemp(prefix="repro-sweep-")
            store_path = str(trace.store.save(staging))
        except OSError:
            pass  # no writable temp dir: every task carries the store
        store = None if store_path else trace.store.compact()
        tasks = [SweepTask(name, policy, store, config, store_path=store_path)
                 for name, policy in policies.items()]
        if executor is not None:
            # Caller-owned pool: reuse its warm workers, never shut it
            # down.  _run_sweep_tasks drains in-flight tasks on failure,
            # so the removal below cannot race a worker still opening it.
            results = _run_sweep_tasks(executor, tasks)
        else:
            with ProcessPoolExecutor(max_workers=n_workers,
                                     mp_context=get_context(_MP_START_METHOD)) as pool:
                results = _run_sweep_tasks(pool, tasks)
    finally:
        # Every exit path reaches here with the workers drained (the
        # executor's __exit__ or _run_sweep_tasks' failure wait), so
        # removing the directory on *every* path -- success, a failing
        # policy, a dead worker, a failed save -- leaves nothing behind.
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    return results
