"""REP003: no buffer materialization in declared hot-path modules.

Modules carrying a ``# repro: hot-path`` pragma (the scheduler ledger, the
replay meter, the trace store, the columnar characterization kernels) earn
their throughput by never copying telemetry: views slice the shared flat
buffer, sweep workers memory-map one staged store, and mmap replay streams
pages on demand.  A stray ``.copy()`` / ``.tolist()`` /
``np.ascontiguousarray`` on one of those paths silently turns an O(1) view
into an O(n) materialization -- no test fails, the perf trajectory just
bends.

The pragma is opt-in per module; within a pragma'd module every flagged
call must either be removed or carry a baseline entry explaining why the
materialization is intentional (e.g. metadata-column copies in
``TraceStore.select``, which never touch the telemetry buffer).
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, register_rule
from repro.analysis.engine import ModuleContext

_NUMPY_NAMES = {"np", "numpy"}
_MATERIALIZING_METHODS = {"copy", "tolist"}
_MATERIALIZING_FUNCS = {"ascontiguousarray", "asfortranarray"}

#: The module-level pragma tag that opts a module into this rule.
HOT_PATH_PRAGMA = "hot-path"


@register_rule
class HotPathCopyRule(Rule):
    rule_id = "REP003"
    title = "hot-path-copy"
    rationale = ("copies in `# repro: hot-path` modules turn zero-copy views "
                 "into O(n) materializations without failing any test")
    interests = (ast.Call,)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._hot = HOT_PATH_PRAGMA in ctx.module.pragmas

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if not self._hot or ctx.module.is_test:
            return
        assert isinstance(node, ast.Call)
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _MATERIALIZING_METHODS \
                and not node.args and not node.keywords:
            ctx.report(self, node,
                       f"`.{func.attr}()` call in hot-path module "
                       f"(in `{ctx.current_function_name()}`)")
        elif isinstance(func, ast.Attribute) \
                and func.attr in _MATERIALIZING_FUNCS \
                and isinstance(func.value, ast.Name) \
                and func.value.id in _NUMPY_NAMES:
            ctx.report(self, node,
                       f"`np.{func.attr}(...)` call in hot-path module "
                       f"(in `{ctx.current_function_name()}`)")
