"""Rule plugin interface and registry for the invariant analyzer.

A rule is a small class that inspects AST nodes (and, for cross-file rules,
the whole project) and reports findings.  Rules register themselves with
:func:`register_rule` at import time; the engine instantiates every
registered rule per run, so rule instances may keep per-run state but must
reset per-module state in :meth:`Rule.begin_module`.

The dispatch contract mirrors the repo's other plugin seams (policy configs,
workload suites): the engine walks each module's AST exactly once and hands
each node to every rule whose :attr:`Rule.interests` names that node type.
Cross-file rules do their work in :meth:`Rule.finish`, after every module
has been parsed.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.analysis.engine import ModuleContext, Project, ModuleInfo

#: Signature of the reporting callback handed to :meth:`Rule.finish`.
FinishReporter = Callable[["ModuleInfo", ast.AST, str], None]


class Rule:
    """Base class for one mechanically-checked repo invariant."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    #: AST node types this rule wants to see during the single engine walk.
    interests: Tuple[type, ...] = ()

    def begin_module(self, ctx: "ModuleContext") -> None:
        """Reset per-module state before *ctx*'s module is walked."""

    def visit(self, node: ast.AST, ctx: "ModuleContext") -> None:
        """Inspect one node of the current module (types from ``interests``)."""

    def finish(self, project: "Project", report: FinishReporter) -> None:
        """Cross-file pass, called once after every module has been walked."""


#: ``rule_id`` -> rule class, populated by :func:`register_rule` at import.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *cls* to :data:`RULE_REGISTRY`."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULE_REGISTRY and RULE_REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in rule-id order."""
    # Importing the rules package is what populates the registry; done here
    # (not at module import) so `repro.analysis.base` has no import cycle.
    import repro.analysis.rules  # noqa: F401

    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(RULE_REGISTRY)]
