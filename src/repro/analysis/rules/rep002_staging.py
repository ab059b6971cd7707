"""REP002: staging hygiene -- a temp directory must not outlive its owner.

A pooled sweep stages the trace as an on-disk store in a private
``tempfile.mkdtemp`` directory that workers memory-map.  Nothing reclaims
such a directory when its owner forgets it: a leak is a full copy of the
telemetry left in the temp dir.  The repo's ownership convention
(``docs/trace_store.md``) is that the *creating* function either removes
the directory in a ``finally`` (the ``simulator/sweep.py`` shape) or
transfers ownership by returning its path to a caller who does.

Within one function, a *creation event* is a ``mkdtemp(...)`` call (bare
or as ``tempfile.mkdtemp``).  A function containing one is clean when:

* some ``try``/``finally`` in the same function calls ``rmtree`` in its
  ``finally`` body, or
* the created path is (part of) a ``return`` expression, or the name it
  was assigned to (directly or wrapped, as in ``Path(mkdtemp())``) appears
  in one -- ownership transfer to the caller.

Nested function definitions are analyzed on their own, not as part of the
enclosing function.  Cleanup placed only in an ``except`` handler does not
count: the success path would still leak.  ``tempfile.TemporaryDirectory``
cleans up itself and is not a creation event.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.base import Rule, register_rule
from repro.analysis.engine import ModuleContext

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk_own(func: ast.AST) -> Iterator[ast.AST]:
    """Walk *func*'s body, not descending into nested function definitions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTION_NODES):
            stack.extend(ast.iter_child_nodes(node))


def _call_name(node: ast.AST) -> str:
    """The called name of a ``name(...)`` or ``<expr>.name(...)`` call."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _finally_removes(func: ast.AST) -> bool:
    """A try/finally in *func* whose finally body calls ``rmtree``."""
    for node in _walk_own(func):
        if isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.finalbody:
                if any(_call_name(sub) == "rmtree" for sub in ast.walk(stmt)):
                    return True
    return False


@register_rule
class StagingHygieneRule(Rule):
    rule_id = "REP002"
    title = "staging-hygiene"
    rationale = ("mkdtemp() directories leak a copy of their contents unless "
                 "the owner removes them in a finally or returns the path")
    interests = _FUNCTION_NODES

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if ctx.module.is_test:
            return
        creations: List[ast.Call] = []
        bound_names: dict = {}  # id(creation call) -> assigned name
        returned_names: set = set()
        returned_calls: set = set()
        for sub in _walk_own(node):
            if _call_name(sub) == "mkdtemp":
                creations.append(sub)
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name):
                for inner in ast.walk(sub.value):
                    if _call_name(inner) == "mkdtemp":
                        bound_names[id(inner)] = sub.targets[0].id
            elif isinstance(sub, ast.Return) and sub.value is not None:
                for ret_sub in ast.walk(sub.value):
                    if isinstance(ret_sub, ast.Name):
                        returned_names.add(ret_sub.id)
                    elif _call_name(ret_sub) == "mkdtemp":
                        returned_calls.add(id(ret_sub))
        if not creations or _finally_removes(node):
            return
        for call in creations:
            if id(call) in returned_calls:
                continue  # ownership transfer: `return mkdtemp()`
            if bound_names.get(id(call)) in returned_names:
                continue  # ownership transfer via the bound name
            ctx.report(self, call,
                       f"`mkdtemp()` in `{getattr(node, 'name', '<lambda>')}` "
                       "has no `finally` rmtree and does not return the path")
