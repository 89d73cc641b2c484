"""The whole-program pass: per-file summaries and a project-wide index.

Per-file rules see one AST at a time; the project rules (RC008 and
RC009) need to see *across* files — an env var is read here and written
there, a metric name is minted in ``src/repro`` but gated from
``benchmarks/baselines.json``.  This module provides the shared
infrastructure:

* :func:`extract_summary` walks one parsed file and distills what the
  project rules need into a plain JSON-able dict (module-level string
  constants, ``os.environ`` touch points, metric-registry call sites,
  and noqa suppressions).  Names are canonicalized through the module's
  one import resolver (:attr:`repro.checks.registry.Module.imports`),
  relative imports included.
* :class:`ProjectModel` indexes the summaries by path and module name
  and resolves module constants and env-var references across files.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .noqa import collect_suppressions
from .registry import Module
from .rules.common import attribute_chain

__all__ = ["ProjectModel", "extract_summary"]

#: Registry method names treated as metric-producing call sites.
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "timer"})

#: ``os.environ`` access spellings, canonicalized through the import map.
_ENV_READ_CALLS = frozenset({"os.environ.get", "os.getenv"})
_ENV_WRITE_CALLS = frozenset({"os.environ.setdefault"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _site(node: ast.AST) -> List[int]:
    return [getattr(node, "lineno", 1), getattr(node, "col_offset", 0)]


def _function_scoped(nodes: Sequence[ast.AST]) -> Set[int]:
    """ids of the nodes nested in a function or lambda (its decorators too).

    ``nodes`` lists parents before children, so a nested function is
    already in the set when reached and its subtree is not walked again.
    """
    scoped: Set[int] = set()
    for node in nodes:
        if isinstance(node, _FUNCTION_NODES) and id(node) not in scoped:
            for child in ast.iter_child_nodes(node):
                scoped.update(id(sub) for sub in ast.walk(child))
    return scoped


def _scan_env_and_metrics(
    nodes: Sequence[ast.AST],
    canonical: Callable[[ast.AST], Optional[str]],
    constants: Dict[str, str],
) -> Tuple[List[List[Any]], List[List[Any]], List[List[Any]]]:
    """(env reads, env writes, metric sites) anywhere in the file.

    Each env entry is ``[var, ref, line, col, scope]`` where exactly one
    of ``var`` (resolved literal) / ``ref`` (dotted constant reference,
    resolved later against the project) is non-null; ``scope`` is
    ``"module"`` for import-time reads.  Metric sites are
    ``[kind, pattern, line, col]`` with f-string fields widened to ``*``.
    """
    env: List[Tuple[bool, ast.AST, List[Any]]] = []  # (is write, site, [var, ref])
    metrics: List[List[Any]] = []

    def name_of(node: ast.AST) -> Tuple[Optional[str], Optional[str]]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, None
        if isinstance(node, ast.Name):
            value = constants.get(node.id)
            return (value, None) if value is not None else (None, None)
        if isinstance(node, ast.Attribute):
            dotted = canonical(node)
            return None, dotted
        return None, None

    def pattern_of(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            parts: List[str] = []
            for piece in node.values:
                if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                    parts.append(piece.value)
                else:
                    parts.append("*")
            return "".join(parts) or None
        return None

    def touch(is_write: bool, site: ast.AST, name: ast.AST) -> None:
        var, ref = name_of(name)
        if var is not None or ref is not None:
            env.append((is_write, site, [var, ref]))

    for node in nodes:
        if isinstance(node, ast.Call):
            qualname = canonical(node.func)
            if qualname in _ENV_READ_CALLS and node.args:
                touch(False, node, node.args[0])
            elif qualname in _ENV_WRITE_CALLS and node.args:
                touch(True, node, node.args[0])
            chain = attribute_chain(node.func)
            if chain and chain[-1] in _METRIC_METHODS and node.args:
                pattern = pattern_of(node.args[0])
                if pattern is not None:
                    metrics.append([chain[-1], pattern] + _site(node))
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Load, ast.Store))
            and canonical(node.value) == "os.environ"
        ):
            touch(isinstance(node.ctx, ast.Store), node, node.slice)

    scoped = _function_scoped(nodes) if env else set()
    reads: List[List[Any]] = []
    writes: List[List[Any]] = []
    for is_write, site, names in env:
        scope = "function" if id(site) in scoped else "module"
        (writes if is_write else reads).append(names + _site(site) + [scope])
    return reads, writes, metrics


def extract_summary(module: Module) -> Dict[str, Any]:
    """Distill one parsed file into the JSON-able project-summary dict."""
    constants: Dict[str, str] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            if isinstance(stmt.value.value, str):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = stmt.value.value

    env_reads, env_writes, metric_sites = _scan_env_and_metrics(
        module.nodes, module.imports.resolve, constants
    )
    suppressions = {
        str(line): sorted(rules)
        for line, rules in collect_suppressions(module.text).items()
    }
    return {
        "path": module.path,
        "module": module.name,
        "constants": constants,
        "suppressions": suppressions,
        "env_reads": env_reads,
        "env_writes": env_writes,
        "metric_sites": metric_sites,
    }


class ProjectModel:
    """An index over every linted file's summary, by path and module name."""

    def __init__(self, summaries: Sequence[Dict[str, Any]]) -> None:
        self.by_path: Dict[str, Dict[str, Any]] = {s["path"]: s for s in summaries}
        self.by_module: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.by_path):
            summary = self.by_path[path]
            self.by_module[summary["module"]] = summary

    def summaries(self) -> List[Dict[str, Any]]:
        """Every summary, in path order (deterministic rule iteration)."""
        return [self.by_path[p] for p in sorted(self.by_path)]

    def suppressions_for(self, path: str) -> Dict[int, frozenset]:
        summary = self.by_path.get(path)
        if summary is None:
            return {}
        return {
            int(line): frozenset(rules)
            for line, rules in summary.get("suppressions", {}).items()
        }

    def constant(self, dotted: str) -> Optional[str]:
        """A module-level string constant by absolute dotted name."""
        parts = dotted.rsplit(".", 1)
        if len(parts) != 2:
            return None
        summary = self.by_module.get(parts[0])
        if summary is None:
            return None
        return summary["constants"].get(parts[1])

    def env_var_name(self, entry: Sequence[Any]) -> Optional[str]:
        """Resolve one ``env_reads``/``env_writes`` entry to a variable name."""
        var, ref = entry[0], entry[1]
        if var is not None:
            return str(var)
        if ref is not None:
            return self.constant(str(ref))
        return None
