"""Visitor-driven analysis engine: one AST walk per module, rule dispatch.

The engine parses every ``*.py`` file under the target roots once, extracts
``# repro: <tag>`` pragmas from the raw source (the AST does not carry
comments), and walks each tree with a single :class:`ast.NodeVisitor` that
dispatches nodes to the rules interested in them.  Rules therefore pay no
per-rule traversal cost, and the walk keeps an enclosing-function stack so
rules can attribute findings to the function they occur in (which is also
what makes baseline keys stable across line drift).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.analysis.base import Rule, default_rules
from repro.analysis.findings import Finding

#: ``# repro: hot-path`` style pragma lines.  Tags are comma-separated
#: kebab-case words; anything after the tag list (e.g. a ``--`` note) is
#: commentary and deliberately not captured.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*(?P<tags>[\w-]+(?:\s*,\s*[\w-]+)*)")

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name_for(path: Path) -> str:
    """Dotted module name inferred from *path* (anchored at ``src/`` if present)."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class ModuleInfo:
    """One parsed source module plus the metadata rules key on."""

    path: str
    module: str
    source: str
    tree: ast.Module
    pragmas: FrozenSet[str]
    is_test: bool

    @classmethod
    def from_source(cls, source: str, *, path: str = "<memory>",
                    module: str = "mod") -> "ModuleInfo":
        """Build from an in-memory snippet (the unit-test entry point)."""
        tags: List[str] = []
        for match in _PRAGMA_RE.finditer(source):
            tags.extend(t.strip() for t in match.group("tags").split(","))
        name = module.rsplit(".", 1)[-1]
        is_test = name.startswith("test_") or name == "conftest" \
            or ".tests." in f".{module}."
        return cls(path=path, module=module, source=source,
                   tree=ast.parse(source, filename=path),
                   pragmas=frozenset(t for t in tags if t), is_test=is_test)

    @classmethod
    def from_path(cls, path: Path, rel_root: Optional[Path] = None) -> "ModuleInfo":
        resolved = path.resolve()
        rel_root = (rel_root or Path.cwd()).resolve()
        try:
            display = resolved.relative_to(rel_root).as_posix()
        except ValueError:
            display = resolved.as_posix()
        info = cls.from_source(path.read_text(encoding="utf-8"), path=display,
                               module=_module_name_for(Path(display)))
        parts = Path(display).parts
        if "tests" in parts:
            info.is_test = True
        return info


@dataclass
class Project:
    """Every module of one analysis run (cross-file rules see all of them)."""

    modules: List[ModuleInfo] = field(default_factory=list)


class ModuleContext:
    """Per-module state handed to rules: the module plus the function stack."""

    def __init__(self, module: ModuleInfo, sink: List[Finding]):
        self.module = module
        self._sink = sink
        self.function_stack: List[ast.AST] = []

    @property
    def current_function(self) -> Optional[ast.AST]:
        return self.function_stack[-1] if self.function_stack else None

    def current_function_name(self) -> str:
        node = self.current_function
        return getattr(node, "name", "<module>") if node else "<module>"

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        self._sink.append(Finding(
            path=self.module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=rule.rule_id,
            message=message,
        ))


class _Dispatcher(ast.NodeVisitor):
    """The single walk: pushes function scopes, fans nodes out to rules."""

    def __init__(self, interest_map: Dict[type, List[Rule]], ctx: ModuleContext):
        self._interest_map = interest_map
        self._ctx = ctx

    def visit(self, node: ast.AST) -> None:
        for rule in self._interest_map.get(type(node), ()):
            rule.visit(node, self._ctx)
        if isinstance(node, _FUNCTION_NODES):
            self._ctx.function_stack.append(node)
            self.generic_visit(node)
            self._ctx.function_stack.pop()
        else:
            self.generic_visit(node)


class AnalysisEngine:
    """Walks a project once and dispatches to the registered rules."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        self.rules: List[Rule] = list(rules) if rules is not None else default_rules()

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def analyze_paths(self, roots: Iterable[Path],
                      rel_root: Optional[Path] = None) -> List[Finding]:
        """Analyze every ``*.py`` file under *roots* (files or directories)."""
        files: List[Path] = []
        for root in roots:
            root = Path(root)
            if root.is_dir():
                files.extend(sorted(root.rglob("*.py")))
            else:
                files.append(root)
        project = Project([ModuleInfo.from_path(f, rel_root) for f in files])
        return self.analyze_project(project)

    def analyze_project(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        interest_map = self._interest_map()
        for module in project.modules:
            ctx = ModuleContext(module, findings)
            for rule in self.rules:
                rule.begin_module(ctx)
            _Dispatcher(interest_map, ctx).visit(module.tree)

        for rule in self.rules:
            def report(module: ModuleInfo, node: ast.AST, message: str,
                       _rule: Rule = rule) -> None:
                findings.append(Finding(
                    path=module.path, line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0), rule_id=_rule.rule_id,
                    message=message))

            rule.finish(project, report)
        return sorted(findings)

    def _interest_map(self) -> Dict[type, List[Rule]]:
        mapping: Dict[type, List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.interests:
                mapping.setdefault(node_type, []).append(rule)
        return mapping


def analyze_source(source: str, *, module: str = "mod", path: str = "<memory>",
                   rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Analyze one in-memory module (convenience wrapper for rule tests)."""
    info = ModuleInfo.from_source(source, path=path, module=module)
    return AnalysisEngine(rules).analyze_project(Project([info]))
