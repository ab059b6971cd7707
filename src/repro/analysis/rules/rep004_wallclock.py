"""REP004: no wall-clock reads outside the benchmarking harness.

Simulation results, sweep evaluations, and characterization statistics are
compared bitwise across meters, transports, and worker counts.  A result
that embeds ``time.time()`` / ``datetime.now()`` (or any other clock read)
can never satisfy those equality pins, and worse, fails only occasionally.
All timing therefore lives in ``repro.simulator.benchmarking``, whose
measurement dicts are reporting-only and excluded from equivalence checks;
code outside the package (``benchmarks/``, ``perfbench/``) is not scanned.

Flagged anywhere else in ``src/repro``: ``time.time/_ns``,
``time.perf_counter/_ns``, ``time.monotonic/_ns``, ``time.process_time/_ns``,
``time.localtime``, ``time.ctime``, ``datetime.now/utcnow/today``,
``date.today`` (on the ``datetime``/``date`` classes or the module).
Legitimate measurement code outside the harness (e.g. the Section-6
overhead experiments) is baselined with a justification rather than
allowlisted in the rule.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, register_rule
from repro.analysis.engine import ModuleContext

#: Modules where clock reads are the whole point.
_ALLOWED_MODULES = {"repro.simulator.benchmarking"}

_TIME_FUNCS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "localtime", "ctime",
}
_DATETIME_METHODS = {"now", "utcnow", "today"}
_DATETIME_OWNERS = {"datetime", "date"}


def _datetime_owner(node: ast.AST) -> bool:
    """``datetime`` / ``date`` / ``datetime.datetime`` / ``datetime.date``."""
    if isinstance(node, ast.Name):
        return node.id in _DATETIME_OWNERS
    return (isinstance(node, ast.Attribute) and node.attr in _DATETIME_OWNERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "datetime")


@register_rule
class WallClockRule(Rule):
    rule_id = "REP004"
    title = "wall-clock-in-results"
    rationale = ("clock reads outside the benchmarking harness poison "
                 "bitwise equivalence suites with nondeterminism")
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if ctx.module.is_test or ctx.module.module in _ALLOWED_MODULES:
            return
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if isinstance(func.value, ast.Name) and func.value.id == "time" \
                and func.attr in _TIME_FUNCS:
            ctx.report(self, node,
                       f"wall-clock read `time.{func.attr}()` outside the "
                       f"benchmarking harness "
                       f"(in `{ctx.current_function_name()}`)")
        elif func.attr in _DATETIME_METHODS and _datetime_owner(func.value):
            owner = func.value.attr if isinstance(func.value, ast.Attribute) \
                else func.value.id
            ctx.report(self, node,
                       f"wall-clock read `{owner}.{func.attr}()` outside the "
                       f"benchmarking harness "
                       f"(in `{ctx.current_function_name()}`)")
