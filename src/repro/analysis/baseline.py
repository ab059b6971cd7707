"""Baseline file: explicit, justified suppression of pre-existing findings.

The analyzer must be able to land on a tree with known, *intentional*
violations (a cold-path copy in a hot-path module, a measurement harness
that reads the wall clock) without either failing forever or the
rules growing ad-hoc escape hatches.  The baseline is that pressure valve:
a checked-in JSON file where every suppressed finding carries a one-line
justification, so each exemption is visible in review rather than silent in
rule code.

Matching is by :meth:`repro.analysis.findings.Finding.key` -- ``(rule,
file, message)``, no line numbers -- so unrelated edits that shift code do
not invalidate entries.  One entry suppresses *every* matching finding in
that file (messages embed the enclosing function name, which keeps the
blast radius to one function).  Entries that no longer match anything are
reported as unused so the file cannot silently rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.findings import Finding

BASELINE_VERSION = 1

#: (rule, file, message) -> justification
BaselineKey = Tuple[str, str, str]


@dataclass
class BaselineResult:
    """Outcome of applying a baseline to a finding list."""

    active: List[Finding]
    suppressed: List[Finding]
    unused_entries: List[Dict[str, str]]


def load_baseline(path: Path) -> Dict[BaselineKey, str]:
    """Load ``analysis_baseline.json``; raises ``ValueError`` on bad shape."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {payload.get('version')!r} in {path}")
    entries: Dict[BaselineKey, str] = {}
    for entry in payload.get("entries", []):
        missing = {"rule", "file", "message", "justification"} - entry.keys()
        if missing:
            raise ValueError(f"baseline entry missing {sorted(missing)}: {entry}")
        entries[(entry["rule"], entry["file"], entry["message"])] = \
            entry["justification"]
    return entries


def apply_baseline(findings: Sequence[Finding],
                   baseline: Dict[BaselineKey, str]) -> BaselineResult:
    """Split *findings* into active vs. baseline-suppressed."""
    active: List[Finding] = []
    suppressed: List[Finding] = []
    used: set = set()
    for finding in findings:
        if finding.key() in baseline:
            used.add(finding.key())
            suppressed.append(finding)
        else:
            active.append(finding)
    unused = [{"rule": rule, "file": file, "message": message,
               "justification": baseline[(rule, file, message)]}
              for rule, file, message in sorted(baseline)
              if (rule, file, message) not in used]
    return BaselineResult(active=active, suppressed=suppressed,
                          unused_entries=unused)


def write_baseline(findings: Sequence[Finding], path: Path,
                   justifications: Dict[BaselineKey, str] | None = None) -> None:
    """Write a baseline covering *findings* (deduplicated by key).

    New entries get a ``TODO`` justification; pass *justifications* (e.g.
    the previously-loaded baseline) to carry real ones forward.
    """
    justifications = justifications or {}
    seen: Dict[BaselineKey, Dict[str, str]] = {}
    for finding in findings:
        key = finding.key()
        if key not in seen:
            seen[key] = {
                "rule": finding.rule_id,
                "file": finding.path,
                "message": finding.message,
                "justification": justifications.get(
                    key, "TODO: justify or fix this finding"),
            }
    payload = {"version": BASELINE_VERSION,
               "entries": [seen[key] for key in sorted(seen)]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
