"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit codes: 0 = clean (no findings outside the baseline), 1 = active
findings, 2 = usage or I/O error.  ``--format json`` emits the full report
(findings, suppressions, unused baseline entries, rule catalog) on stdout;
``--output`` writes the same JSON to a file regardless of the stdout format,
which is what the CI job uploads as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.base import Rule, default_rules
from repro.analysis.baseline import (
    BaselineResult,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import AnalysisEngine
from repro.analysis.findings import Finding

DEFAULT_BASELINE = "analysis_baseline.json"


def _report_payload(result: BaselineResult, rules: List[Rule],
                    paths: List[str]) -> Dict[str, object]:
    return {
        "paths": paths,
        "rules": {rule.rule_id: {"title": rule.title,
                                 "rationale": rule.rationale}
                  for rule in rules},
        "findings": [finding.to_dict() for finding in result.active],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
        "unused_baseline_entries": result.unused_entries,
        "counts": {
            "active": len(result.active),
            "suppressed": len(result.suppressed),
            "unused_baseline_entries": len(result.unused_entries),
        },
    }


def _print_text(result: BaselineResult) -> None:
    for finding in result.active:
        print(finding.format())
    for entry in result.unused_entries:
        print(f"warning: unused baseline entry {entry['rule']} "
              f"{entry['file']}: {entry['message']!r}")
    print(f"{len(result.active)} finding(s), "
          f"{len(result.suppressed)} suppressed by baseline, "
          f"{len(result.unused_entries)} unused baseline entr(ies)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for the repro conventions "
                    "(determinism, zero-copy, staging hygiene).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout format (default: text)")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline JSON path (default: "
                             f"{DEFAULT_BASELINE} if it exists)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write a baseline covering the current findings "
                             "(carrying forward existing justifications) and "
                             "exit 0")
    parser.add_argument("--output", metavar="PATH",
                        help="also write the JSON report to PATH")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    engine = AnalysisEngine(default_rules())
    if args.list_rules:
        for rule in engine.rules:
            print(f"{rule.rule_id} {rule.title}: {rule.rationale}")
        return 0

    roots = [Path(p) for p in args.paths]
    for root in roots:
        if not root.exists():
            print(f"error: no such path: {root}", file=sys.stderr)
            return 2
    findings: List[Finding] = engine.analyze_paths(roots)

    baseline: Dict = {}
    if not args.no_baseline:
        baseline_path = Path(args.baseline) if args.baseline \
            else Path(DEFAULT_BASELINE)
        if baseline_path.exists():
            try:
                baseline = load_baseline(baseline_path)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.baseline:
            print(f"error: baseline not found: {baseline_path}",
                  file=sys.stderr)
            return 2

    if args.write_baseline:
        write_baseline(findings, Path(args.write_baseline),
                       justifications=baseline)
        print(f"wrote {len(set(f.key() for f in findings))} baseline "
              f"entr(ies) to {args.write_baseline}")
        return 0

    result = apply_baseline(findings, baseline)
    payload = _report_payload(result, engine.rules, [str(p) for p in roots])
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n",
                                     encoding="utf-8")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_text(result)
    return 1 if result.active else 0
