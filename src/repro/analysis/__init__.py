"""AST-based invariant linter for the repo's own conventions.

PRs 1-5 built correctness on conventions that lived only in docs and
reviewer memory: seeded determinism end to end (golden-trace pins),
zero-copy hot paths, single-owner cleanup of sweep staging, and the
scheduler ledger's cache discipline.  This package turns those
conventions into machine-checked rules over the repo's own source --
plain :mod:`ast`, no third-party dependencies:

* :mod:`repro.analysis.engine` -- one AST walk per module, dispatching
  nodes to registered rules; ``# repro: <tag>`` pragma extraction.
* :mod:`repro.analysis.rules` -- the rule catalog (REP001 unseeded-rng,
  REP002 staging-hygiene, REP003 hot-path-copy, REP004 wall-clock-in-results,
  REP006 ledger-direct-write, REP007 candidate-index-direct-write,
  REP008 scenario-rng-not-derived).
* :mod:`repro.analysis.baseline` -- justified suppression of intentional
  violations (``analysis_baseline.json`` at the repo root).
* :mod:`repro.analysis.cli` -- ``python -m repro.analysis`` with text and
  JSON output; the CI job fails on any non-baselined finding.

See ``docs/static_analysis.md`` for the rule catalog and the
add-a-rule / baseline workflows.
"""

from repro.analysis.base import RULE_REGISTRY, Rule, default_rules, register_rule
from repro.analysis.baseline import (
    BaselineResult,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    AnalysisEngine,
    ModuleContext,
    ModuleInfo,
    Project,
    analyze_source,
)
from repro.analysis.findings import Finding

__all__ = [
    "AnalysisEngine",
    "BaselineResult",
    "Finding",
    "ModuleContext",
    "ModuleInfo",
    "Project",
    "RULE_REGISTRY",
    "Rule",
    "analyze_source",
    "apply_baseline",
    "default_rules",
    "load_baseline",
    "register_rule",
    "write_baseline",
]
