"""End-to-end benchmark of the Coach pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload admission-flood --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --workload policy-sweep --seed 1 --seconds 48 --trace 1
    python3 perfbench/run.py --self-test

One run is one client in a closed loop: it repeats the workload -- each
repetition a fresh ``rep.py`` process -- until ``--seconds`` have passed
and at least :data:`MIN_REPS` repetitions finished, checks every
repetition's outputs, and reports medians.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, after
a layer-share table of self time / ``run_s``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

An operation is one repetition, plus one policy evaluation per policy of
``policy-sweep``.  It fails if it raises, if a declared scenario invariant
or ``requested == accepted + rejected`` does not hold, if coach admits
fewer VMs than ``none``, if its result digest differs from the run's first
repetition, or if it leaves its store directory or a ``/dev/shm`` segment
behind.  ``failed / attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKROOT = ROOT / ".perfbench_work"
SHM_DIR = Path("/dev/shm")

#: Repetitions per run at least (medians need a middle), and at most.
MIN_REPS = 3
MAX_REPS = 25
#: A run must end within 180 s: no repetition starts when the run so far
#: plus its slowest step would pass RUN_LIMIT_S, and a repetition still
#: running at HARD_LIMIT_S is killed with its workers and counted failed.
RUN_LIMIT_S = 150.0
HARD_LIMIT_S = 170.0

#: Operations of one repetition; a repetition that dies fails them all.
OPERATIONS = {"admission-flood": 1, "policy-sweep": 5}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _shm_segments() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


def _run_process(args: List[str],
                 timeout: float) -> Tuple[Optional[int], str, str]:
    """Run *args* in a new process group; on timeout kill the whole group,
    sweep workers included.  Returns (exit code or None, stdout, stderr)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def run_one(workload: str, seed: int, sizes: str, traced: bool,
            timeout: float) -> dict:
    """One repetition in a fresh process; leak checks around it."""
    shm_before = _shm_segments()
    dirs_before = set(os.listdir(WORKROOT))
    code, out, err = _run_process(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), sizes,
         "1" if traced else "0", str(WORKROOT)], timeout)
    failures: List[str] = []
    rep: Optional[dict] = None
    if code == 0:
        rep = json.loads(out.strip().splitlines()[-1])
        failures.extend(rep["failures"])
    else:
        sys.stderr.write(err)
        failures.append(f"repetition killed after {timeout:.0f} s"
                        if code is None else f"repetition exited {code}")
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        failures.append(f"shared-memory segments outlived the run: {leaked}")
    stale = sorted(set(os.listdir(WORKROOT)) - dirs_before - {"spans"})
    if stale:
        failures.append(f"store directories outlived the run: {stale}")
        for name in stale:
            shutil.rmtree(WORKROOT / name, ignore_errors=True)
    return {"rep": rep, "failures": failures}


def _drive(workload: str, seed: int, seconds: float, sizes: str,
           traced: bool, min_reps: int) -> List[dict]:
    """Repeat until *seconds* have passed; in traced mode each step is an
    (untraced, traced) pair."""
    modes = (False, True) if traced else (False,)
    begin = time.perf_counter()
    slowest = 0.0
    steps: List[dict] = []
    while len(steps) < MAX_REPS:
        elapsed = time.perf_counter() - begin
        if len(steps) >= min_reps and elapsed >= seconds:
            break
        if steps and elapsed + slowest > RUN_LIMIT_S:
            break
        step_begin = time.perf_counter()
        steps.append({
            mode: run_one(workload, seed, sizes, mode, max(
                1.0, HARD_LIMIT_S - (time.perf_counter() - begin)))
            for mode in modes})
        slowest = max(slowest, time.perf_counter() - step_begin)
    return steps


def _check_digests(results: List[dict]) -> None:
    """Every repetition of a seed must reproduce the first one's results."""
    reference = None
    for result in results:
        rep = result["rep"]
        if rep is None:
            continue
        if reference is None:
            reference = rep["digest"]
        elif rep["digest"] != reference:
            result["failures"].append("result digest differs from the "
                                      "run's first repetition")


def _tally(workload: str, results: List[dict]) -> Tuple[int, int]:
    operations = OPERATIONS[workload]
    attempted = failed = 0
    for result in results:
        attempted += operations
        if result["rep"] is None:
            failed += operations
        else:
            failed += min(operations, len(result["failures"]))
        for message in result["failures"]:
            print(f"FAILED {workload}: {message}", file=sys.stderr)
    return attempted, failed


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    return {
        "setup_s": median(r["setup_s"] for r in reps),
        "run_s": median(r["run_s"] for r in reps),
        "cpu_s": median(r["cpu_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "vms_per_s": median(r["vm_requests"] / r["run_s"] for r in reps),
        "admitted_pct": median(100.0 * r["accepted"] / r["requested"]
                               for r in reps),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Medians of the traced repetitions' layer metrics, plus the numbers
    that need the untraced repetitions beside them."""
    metrics = {name: median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    untraced_run_s = median(r["run_s"] for r in untraced)
    metrics["trace.store_mb"] = median(r["store_mb"] for r in traced)
    metrics["sweep.speedup"] = metrics["sweep.serial_s"] / untraced_run_s
    quality = {"sweep.extra_capacity_pct": "extra_capacity_pct",
               "replay.mem_violation_pct": "mem_violation_pct",
               "replay.cpu_violation_pct": "cpu_violation_pct"}
    for name, key in quality.items():
        metrics[name] = median(r["quality"].get(key, 0.0) for r in untraced)
    metrics["tracing.overhead_pct"] = 100.0 * (
        median(r["run_s"] for r in traced) / untraced_run_s - 1.0)
    metrics["tracing.unattributed_pct"] = 100.0 * median(
        r["shares"]["unattributed"] for r in traced)
    return metrics


def print_share_table(workload: str, traced: List[dict],
                      untraced: List[dict]) -> None:
    """Layer self time as a share of run_s, for the traced repetition with
    the median run_s, so that the rows sum to the run."""
    rep = sorted(traced, key=lambda r: r["run_s"])[len(traced) // 2]
    untraced_run_s = median(r["run_s"] for r in untraced)
    print(f"layer shares of run_s, {workload}: traced repetition "
          f"{rep['run_s']:.3f} s (median of {len(traced)}); untraced median "
          f"{untraced_run_s:.3f} s over {len(untraced)}")
    total = 0.0
    for name, share in rep["shares"].items():
        total += share
        print(f"  {name:<18} {100.0 * share:6.2f} %")
    print(f"  {'sum':<18} {100.0 * total:6.2f} %")
    print(f"spans: {rep['spans_file']}")


def measure(workload: str, seed: int, seconds: float, traced: bool,
            sizes: str = "full",
            min_reps: int = MIN_REPS) -> Tuple[dict, Dict[str, float]]:
    """One benchmark run: the result object the last output line carries,
    and every value measured."""
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no source tree at {ROOT / 'src' / 'repro'}")
    WORKROOT.mkdir(exist_ok=True)
    steps = _drive(workload, seed, seconds, sizes, traced,
                   1 if traced else min_reps)
    results = [result for step in steps for result in step.values()]
    _check_digests(results)
    attempted, failed = _tally(workload, results)
    untraced = [s[False]["rep"] for s in steps if s[False]["rep"] is not None]
    if not untraced:
        raise SystemExit(f"every repetition of {workload} failed")
    if traced:
        traced_reps = [s[True]["rep"] for s in steps
                       if s[True]["rep"] is not None]
        if not traced_reps:
            raise SystemExit(f"every traced repetition of {workload} failed")
        print_share_table(workload, traced_reps, untraced)
        values = per_layer(untraced, traced_reps)
        declared = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        declared = spec["end_to_end"]
    print(f"{workload}: seed {seed}, medians of {len(untraced)} untraced "
          f"repetitions")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, values


def self_test() -> int:
    """Tiny sizes, every workload, both modes, through :func:`measure`:
    the metrics measured must be exactly the declared ones, every value
    finite, and no operation may fail."""
    spec = load_spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result, values = measure(workload, seed=1, seconds=0.0,
                                     traced=traced, sizes="tiny", min_reps=2)
            declared = {m["name"] for m in spec[key]}
            if set(values) != declared:
                raise SystemExit(f"{workload}: measured and declared metrics "
                                 f"differ: {sorted(set(values) ^ declared)}")
            bad = [name for name, metric in result["metrics"].items()
                   if not math.isfinite(metric["value"])]
            if bad:
                raise SystemExit(f"{workload}: non-finite metrics {bad}")
            if result["failed"]:
                raise SystemExit(f"{workload}: error rate "
                                 f"{result['failed']}/{result['attempted']}")
            print(f"self-test {workload} trace={int(traced)}: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    result, _values = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
