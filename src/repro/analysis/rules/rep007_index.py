"""REP007: the tiered candidate index is only written by the row mutators.

:class:`~repro.core.scheduler.ClusterLedger` maintains a tiered candidate
index alongside the incremental caches REP006 protects: used rows bucketed
by ``score_base`` band (``_row_band`` / ``_band_members``) and one
min-heap of empty rows per capacity kind (``_empty_heaps``).  The index
contract (``docs/architecture.md``) is that every structure is maintained
inside the sanctioned mutators -- ``_refresh_row_caches`` moves the
touched row between bands/heaps via ``_index_update_row`` in the same call
that refreshes the caches, and ``rebuild_candidate_index`` is the
from-scratch bootstrap.  A write anywhere else -- in particular from the
read path of ``best_fit_row`` -- desynchronizes the index from the rows it
summarizes, and nothing fails until a placement quietly diverges from the
dense reference.

Unlike the REP006 arrays, the index mixes numpy state with Python
containers, so the rule flags three write shapes outside the sanctioned
functions:

* assignments (plain or augmented, including subscripted element writes)
  whose target is an attribute named after an index structure;
* mutating method calls (``add``/``discard``/``pop``/``append``/...) whose
  receiver expression mentions an index structure;
* ``heapq`` calls (``heappush``/``heappop``/``heapify``/...) with an index
  structure anywhere in their arguments.

Matching is by attribute name, which is exactly as strong as the
convention: nothing else in the tree uses these names, and a new collision
should either pick a different name or justify itself with a baseline
entry.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.base import Rule, register_rule
from repro.analysis.engine import ModuleContext

#: The tiered-index structures: band id per row, band membership sets, and
#: the per-capacity-kind empty-row heaps.
_INDEX_STRUCTURES = frozenset({
    "_row_band", "_band_members", "_empty_heaps",
})

#: Mutating container methods: set/dict/list mutation entry points.
_MUTATING_METHODS = frozenset({
    "add", "remove", "discard", "pop", "popitem", "clear", "update",
    "append", "extend", "insert", "setdefault", "fill", "sort",
})

#: heapq entry points that reorder or mutate the heap list in place.
_HEAP_FUNCTIONS = frozenset({
    "heappush", "heappop", "heapify", "heapreplace", "heappushpop",
})

#: The sanctioned maintainers: construction, the from-scratch rebuild, the
#: row mutators (which all funnel through the cache refresher), and the
#: index mover the refresher delegates to.
_ALLOWED_FUNCTIONS = frozenset({
    "__init__", "rebuild_candidate_index", "commit_row", "release_row",
    "assert_row_empty", "_refresh_row_caches", "_index_update_row",
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


def _index_name_in(node: ast.AST) -> Optional[str]:
    """The first index-structure attribute referenced anywhere in *node*."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr in _INDEX_STRUCTURES:
            return child.attr
    return None


@register_rule
class CandidateIndexWriteRule(Rule):
    rule_id = "REP007"
    title = "candidate-index-direct-write"
    rationale = ("writes to the ClusterLedger tiered candidate index outside "
                 "the sanctioned mutators desynchronize the band/heap "
                 "structures from the rows they summarize")
    interests = (ast.Assign, ast.AugAssign, ast.Call)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if ctx.module.is_test:
            return
        if ctx.current_function_name() in _ALLOWED_FUNCTIONS:
            return
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for attribute in _attribute_targets(target):
                    if attribute.attr in _INDEX_STRUCTURES:
                        self._flag(node, ctx, attribute.attr, "assignment to")
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            name = _index_name_in(func.value)
            if name is not None:
                self._flag(node, ctx, name, f"`.{func.attr}()` call on")
            return
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute) else None)
        if callee in _HEAP_FUNCTIONS:
            for argument in node.args:
                name = _index_name_in(argument)
                if name is not None:
                    self._flag(node, ctx, name, f"`{callee}` on")
                    return

    def _flag(self, node: ast.AST, ctx: ModuleContext, attr: str,
              verb: str) -> None:
        ctx.report(self, node,
                   f"{verb} candidate-index structure `.{attr}` in "
                   f"`{ctx.current_function_name()}`; the tiered index is "
                   f"maintained only by the sanctioned ledger mutators")
