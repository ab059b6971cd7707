"""REP006: ledger demand/cache arrays are only written by the row mutators.

:class:`~repro.core.scheduler.ClusterLedger` keeps incremental caches
(``demand_peak``, ``va_peak``, ``score_base``, ``row_used``) and the
availability mask ``row_available`` alongside the raw accounting arrays
(``demand``, ``pa_memory``, ``va_demand``).  The incremental-scoring
contract (``docs/architecture.md``) is that every mutation flows through
``commit_row`` / ``release_row`` / ``assert_row_empty`` / ``disable_row``,
which refresh the caches for the touched row in the
same method -- a direct write anywhere else desynchronizes the caches from
the arrays they summarize, and nothing fails until a placement quietly
diverges from the dense reference.

The rule flags any assignment (plain or augmented, including subscripted
element writes) whose target is an attribute named after one of those
arrays, unless the enclosing function is one of the sanctioned mutators
(or ``__init__`` / the private cache refresher).  Matching is by attribute
name, which is exactly as strong as the convention: nothing else in the
tree uses these names, and a new collision should either pick a different
name or justify itself with a baseline entry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, register_rule
from repro.analysis.engine import ModuleContext

#: Raw accounting arrays plus the incremental caches derived from them.
_LEDGER_ARRAYS = frozenset({
    "demand", "pa_memory", "va_demand",
    "demand_peak", "va_peak", "score_base", "row_used", "row_available",
})

#: The sanctioned mutators: construction, the row mutators, the teardown
#: check, the failure-injection flip, and the cache refresher they all
#: delegate to.
_ALLOWED_FUNCTIONS = frozenset({
    "__init__", "commit_row", "release_row", "assert_row_empty",
    "disable_row", "_refresh_row_caches",
})


def _attribute_targets(target: ast.AST) -> Iterator[ast.Attribute]:
    """Attribute nodes written by *target*, peeling subscripts and tuples."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _attribute_targets(element)
        return
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        yield target


@register_rule
class LedgerWriteRule(Rule):
    rule_id = "REP006"
    title = "ledger-direct-write"
    rationale = ("writes to ClusterLedger demand/cache arrays outside the "
                 "row mutators desynchronize the incremental score caches")
    interests = (ast.Assign, ast.AugAssign)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if ctx.module.is_test:
            return
        if ctx.current_function_name() in _ALLOWED_FUNCTIONS:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for attribute in _attribute_targets(target):
                if attribute.attr in _LEDGER_ARRAYS:
                    ctx.report(self, node,
                               f"write to ledger array `.{attribute.attr}` in "
                               f"`{ctx.current_function_name()}`; mutate via "
                               f"commit_row/release_row so the incremental "
                               f"caches stay in sync")
