"""Run one repetition of one workload in this (fresh) process.

Usage: ``python3 perfbench/rep.py WORKLOAD SEED SIZES TRACE WORKROOT``
with ``SIZES`` one of ``full``/``tiny`` and ``TRACE`` 0 or 1.  Prints one
JSON object: the repetition's timings, counters, digest and failures, its
peak RSS (this process and every reaped worker) and, when traced, the
per-layer metrics; the spans go to ``WORKROOT/spans/``.  ``run.py`` starts
one such process per repetition so that ``ru_maxrss`` and
``RUSAGE_CHILDREN`` cover exactly one run.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, seed, sizes_name, traced, workroot = argv
    seed, traced, workroot = int(seed), traced == "1", Path(workroot)
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import NULL_TRACER, Tracer, layer_metrics
    from workloads import FULL, TINY, run_repetition

    sizes = {"full": FULL, "tiny": TINY}[sizes_name]
    tracer = Tracer(f"{workload}-seed{seed}") if traced else NULL_TRACER
    if traced:
        tracer.install()
    try:
        rep = run_repetition(workload, seed, sizes, workroot, tracer)
    finally:
        if traced:
            tracer.uninstall()
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = asdict(rep)
    out["peak_rss_mb"] = peak_kb / 1024.0
    if traced:
        out["layers"], out["shares"] = layer_metrics(tracer, rep.run_window)
        spans_dir = workroot / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        out["spans_file"] = str(spans_dir / f"{tracer.run_id}.json")
        tracer.dump(out["spans_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
