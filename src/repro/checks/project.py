"""The whole-program pass: per-file summaries and cross-module resolution.

Per-file rules see one AST at a time; the contract rules added in the
RC007–RC010 pack need to see *across* files — an analyzer's ``consume``
calls a helper two modules away, an env var is read here and written
there, a metric name is minted in ``src/repro`` but gated from
``benchmarks/baselines.json``.  This module provides the shared
infrastructure:

* :func:`extract_summary` walks one parsed file and distills everything
  the project rules need into a plain JSON-able dict (imports with
  *relative* imports resolved against the inferred module name,
  module-level string constants, per-function dataflow facts, per-class
  method tables and ``required_columns`` declarations, ``os.environ``
  touch points, metric-registry call sites, and noqa suppressions).
* :class:`ProjectModel` indexes the summaries by module name and
  resolves dotted references across files — import chains, re-exports,
  classes, methods (following base classes), and module constants —
  with bounded depth so cyclic imports cannot hang the linter.

The dataflow captured per function is intentionally intra-procedural
and shallow: which attributes are read off each parameter, which
methods are called on it, and to which callees it is forwarded.  Rules
compose those facts across the project index into bounded
inter-procedural answers (e.g. "which ``Chunk`` columns are reachable
from ``TemporalAnalyzer.consume``") without ever simulating execution.
"""

from __future__ import annotations

import ast
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .noqa import collect_suppressions
from .registry import Module
from .rules.common import LOCK_CONSTRUCTORS, attribute_chain

__all__ = [
    "ProjectModel",
    "extract_summary",
    "module_name_for",
    "render_annotation",
]

#: Registry method names treated as metric-producing call sites.
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "timer"})

#: ``os.environ`` access spellings, canonicalized through the import map.
_ENV_READ_CALLS = frozenset({"os.environ.get", "os.getenv"})
_ENV_WRITE_CALLS = frozenset({"os.environ.setdefault"})

_MAX_RESOLVE_DEPTH = 8

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def module_name_for(path: str) -> str:
    """Infer the dotted module name of ``path`` from ``__init__.py`` chains.

    ``src/repro/engine/chunks.py`` -> ``repro.engine.chunks`` (``src`` has
    no ``__init__.py``, so the walk stops there).  A loose file outside
    any package resolves to its bare stem.
    """
    directory, filename = os.path.split(os.path.normpath(path))
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = [] if stem == "__init__" else [stem]
    while directory and os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.append(package)
    return ".".join(reversed(parts)) or stem


def _resolve_relative(
    module_name: str, is_package: bool, level: int, target: Optional[str]
) -> str:
    """Absolute module named by a level-``level`` relative import."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


def _collect_imports(
    nodes: Sequence[ast.AST], module_name: str, is_package: bool
) -> Dict[str, str]:
    """Local name -> absolute dotted path, relative imports resolved."""
    imports: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module_name, is_package, node.level, node.module)
            elif node.module is not None:
                base = node.module
            else:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def render_annotation(node: Optional[ast.AST]) -> Optional[str]:
    """A parameter annotation as dotted text (``Chunk``, ``pkg.Chunk``), or None.

    String annotations pass through; ``Optional[X]`` unwraps to ``X``.
    Anything fancier (unions, generics) is out of scope for the bounded
    dataflow and renders as None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value or None
    if isinstance(node, (ast.Name, ast.Attribute)):
        chain = attribute_chain(node)
        return ".".join(chain) if chain else None
    if isinstance(node, ast.Subscript):
        base = render_annotation(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return render_annotation(node.slice)
    return None


def _site(node: ast.AST) -> List[int]:
    return [getattr(node, "lineno", 1), getattr(node, "col_offset", 0)]


def _str_tuple(node: ast.AST) -> Optional[List[str]]:
    """Elements of a tuple/list of string constants, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return out


class _FunctionScan:
    """One function's intra-procedural facts, in summary-dict form."""

    def __init__(self, fn: ast.AST, qualname: str, canonical: Callable[[ast.AST], Optional[str]]):
        args = fn.args  # type: ignore[attr-defined]
        self.params: List[str] = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        self.kwparams: List[str] = [a.arg for a in args.kwonlyargs]
        self.annotations: Dict[str, str] = {}
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            rendered = render_annotation(a.annotation)
            if rendered is not None:
                self.annotations[a.arg] = rendered
        self.qualname = qualname
        self.canonical = canonical
        # param-root alias map: local name -> originating parameter
        self.alias: Dict[str, str] = {p: p for p in self.params + self.kwparams}
        self.attr_reads: Dict[str, Dict[str, List[int]]] = {}
        self.method_calls: Dict[str, List[List[Any]]] = {}
        self.forwards: Dict[str, List[List[Any]]] = {}
        self.returns: List[List[Any]] = []
        self.unpicklable_assigns: List[List[Any]] = []
        self.attr_call_assigns: List[List[Any]] = []
        for stmt in fn.body:  # type: ignore[attr-defined]
            self._stmt(stmt)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "params": self.params,
            "kwparams": self.kwparams,
            "annotations": self.annotations,
            "attr_reads": self.attr_reads,
            "method_calls": self.method_calls,
            "forwards": self.forwards,
            "returns": self.returns,
            "unpicklable_assigns": self.unpicklable_assigns,
            "attr_call_assigns": self.attr_call_assigns,
        }

    # -- statement walk (in source order, so aliasing is flow-sensitive) -----

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are summarized (or not) on their own
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, stmt.value)
            return
        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._assign_target(stmt.target, stmt.value)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
                descriptor = self._return_descriptor(stmt.value)
                if descriptor is not None:
                    self.returns.append(descriptor)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, (ast.ExceptHandler, ast.withitem)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self._stmt(sub)
                    elif isinstance(sub, ast.expr):
                        self._expr(sub)

    def _assign_target(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Name) and value.id in self.alias:
                self.alias[target.id] = self.alias[value.id]
            else:
                self.alias.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.alias.pop(elt.id, None)
            return
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if isinstance(value, ast.Call):
                chain = attribute_chain(value.func)
                if chain:
                    self.attr_call_assigns.append(
                        [target.attr, ".".join(chain)] + _site(value)
                    )
            reason = self._unpicklable_reason(value)
            if reason is not None:
                self.unpicklable_assigns.append([target.attr, reason] + _site(value))

    # -- expression walk -----------------------------------------------------

    def _expr(self, node: ast.AST) -> None:
        if isinstance(node, ast.Lambda):
            return  # its params shadow ours; RC004 handles embedded lambdas
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in self.alias
                and isinstance(node.ctx, ast.Load)
            ):
                root = self.alias[node.value.id]
                self.attr_reads.setdefault(root, {}).setdefault(node.attr, _site(node))
                return
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for cond in child.ifs:
                    self._expr(cond)
            elif isinstance(child, ast.keyword):
                self._expr(child.value)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        chain = attribute_chain(func)
        callee = ".".join(chain) if chain else ""
        if (
            isinstance(func, ast.Attribute)
            and len(chain) == 2
            and chain[0] in self.alias
        ):
            root = self.alias[chain[0]]
            self.method_calls.setdefault(root, []).append([func.attr] + _site(node))
        elif isinstance(func, ast.Attribute):
            self._expr(func.value)
        elif not isinstance(func, ast.Name):
            self._expr(func)
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id in self.alias and callee:
                self.forwards.setdefault(self.alias[arg.id], []).append(
                    [callee, position, None] + _site(node)
                )
            else:
                self._expr(arg)
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name) and kw.value.id in self.alias and callee:
                self.forwards.setdefault(self.alias[kw.value.id], []).append(
                    [callee, -1, kw.arg] + _site(node)
                )
            else:
                self._expr(kw.value)

    # -- value classification ------------------------------------------------

    def _unpicklable_reason(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda (unpicklable)"
        if isinstance(value, ast.GeneratorExp):
            return "a live generator (unpicklable)"
        if isinstance(value, ast.Call):
            qualname = self.canonical(value.func)
            if qualname in LOCK_CONSTRUCTORS:
                return f"a {qualname}() (unpicklable synchronization primitive)"
            if isinstance(value.func, ast.Name) and value.func.id == "open":
                return "an open file handle (unpicklable)"
        return None

    def _return_descriptor(self, value: ast.AST) -> Optional[List[Any]]:
        if isinstance(value, ast.Lambda):
            return ["lambda", None] + _site(value)
        if isinstance(value, ast.GeneratorExp):
            return ["genexp", None] + _site(value)
        if isinstance(value, ast.Call):
            qualname = self.canonical(value.func)
            if qualname in LOCK_CONSTRUCTORS:
                return ["lock", qualname] + _site(value)
            if isinstance(value.func, ast.Name) and value.func.id == "open":
                return ["open", None] + _site(value)
            chain = attribute_chain(value.func)
            if chain:
                return ["call", ".".join(chain)] + _site(value)
        return None


def _class_facts(
    cls: ast.ClassDef, canonical: Callable[[ast.AST], Optional[str]]
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """(class summary, {qualname: function summary}) for one class."""
    methods: Dict[str, str] = {}
    functions: Dict[str, Dict[str, Any]] = {}
    required: Optional[Dict[str, Any]] = None
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{cls.name}.{stmt.name}"
            methods[stmt.name] = qualname
            functions[qualname] = _FunctionScan(stmt, qualname, canonical).as_dict()
            if stmt.name == "__init__" and required is None:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Assign):
                        continue
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "required_columns"
                            and isinstance(target.value, ast.Name)
                        ):
                            cols = _str_tuple(sub.value)
                            if cols is not None:
                                required = {"cols": cols, "site": _site(sub)}
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "required_columns":
                    cols = _str_tuple(stmt.value)
                    if cols is not None:
                        required = {"cols": cols, "site": _site(stmt)}
    bases = [".".join(attribute_chain(b)) for b in cls.bases if attribute_chain(b)]
    summary = {
        "line": cls.lineno,
        "bases": bases,
        "methods": methods,
        "required_columns": required,
    }
    return summary, functions


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


def extract_summary(module: Module, path: Optional[str] = None) -> Dict[str, Any]:
    """Distill one parsed file into the JSON-able project-summary dict."""
    file_path = path if path is not None else module.path
    is_package = os.path.basename(file_path) == "__init__.py"
    name = module_name_for(file_path)
    imports = _collect_imports(module.nodes, name, is_package)

    def canonical(node: ast.AST) -> Optional[str]:
        chain = attribute_chain(node)
        if not chain:
            return None
        base = imports.get(chain[0])
        if base is None:
            return None
        return ".".join([base] + list(chain[1:]))

    constants: Dict[str, str] = {}
    functions: Dict[str, Dict[str, Any]] = {}
    classes: Dict[str, Dict[str, Any]] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            if isinstance(stmt.value.value, str):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = stmt.value.value
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = _FunctionScan(stmt, stmt.name, canonical).as_dict()
        elif isinstance(stmt, ast.ClassDef):
            cls_summary, cls_functions = _class_facts(stmt, canonical)
            classes[stmt.name] = cls_summary
            functions.update(cls_functions)

    env_reads, env_writes, metric_sites = _scan_env_and_metrics(
        module.nodes, canonical, constants
    )
    suppressions = {
        str(line): sorted(rules)
        for line, rules in collect_suppressions(module.text).items()
    }
    return {
        "path": file_path,
        "module": name,
        "is_package": is_package,
        "imports": imports,
        "constants": constants,
        "suppressions": suppressions,
        "env_reads": env_reads,
        "env_writes": env_writes,
        "metric_sites": metric_sites,
        "functions": functions,
        "classes": classes,
    }


#: A resolution result: ("module" | "class" | "function", owner summary, local qualname).
Resolution = Tuple[str, Dict[str, Any], str]


class ProjectModel:
    """An index over every linted file's summary, with name resolution."""

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

    # -- name resolution -----------------------------------------------------

    def resolve_absolute(
        self, dotted: str, depth: int = _MAX_RESOLVE_DEPTH
    ) -> Optional[Resolution]:
        """Resolve an absolute dotted path against the project index."""
        if depth <= 0 or not dotted:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            summary = self.by_module.get(".".join(parts[:cut]))
            if summary is not None:
                return self._resolve_in(summary, parts[cut:], depth)
        return None

    def resolve_in(
        self, summary: Dict[str, Any], chain: Sequence[str], depth: int = _MAX_RESOLVE_DEPTH
    ) -> Optional[Resolution]:
        """Resolve a local reference chain within ``summary``'s namespace."""
        return self._resolve_in(summary, list(chain), depth)

    def _resolve_in(
        self, summary: Dict[str, Any], rest: List[str], depth: int
    ) -> Optional[Resolution]:
        if depth <= 0:
            return None
        if not rest:
            return "module", summary, ""
        head = rest[0]
        classes = summary["classes"]
        if head in classes:
            if len(rest) == 1:
                return "class", summary, head
            if len(rest) == 2 and rest[1] in classes[head]["methods"]:
                return "function", summary, classes[head]["methods"][rest[1]]
            return None
        if len(rest) == 1 and head in summary["functions"]:
            return "function", summary, head
        target = summary["imports"].get(head)
        if target is not None:
            return self.resolve_absolute(".".join([target] + rest[1:]), depth - 1)
        return None

    def resolve_call(
        self,
        summary: Dict[str, Any],
        callee: str,
        cls_ctx: Optional[str] = None,
        depth: int = _MAX_RESOLVE_DEPTH,
    ) -> Optional[Resolution]:
        """Resolve a call target as written (``helper``, ``mod.fn``, ``self.m``)."""
        if not callee:
            return None
        parts = callee.split(".")
        if parts[0] == "self":
            if cls_ctx is None or len(parts) != 2:
                return None
            found = self.method_function(summary, cls_ctx, parts[1])
            if found is None:
                return None
            owner, fn = found
            return "function", owner, fn["qualname"]
        return self._resolve_in(summary, parts, depth)

    def function(self, owner: Dict[str, Any], qualname: str) -> Optional[Dict[str, Any]]:
        return owner["functions"].get(qualname)

    def method_function(
        self,
        owner: Dict[str, Any],
        cls_name: str,
        method: str,
        depth: int = 4,
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """(owner summary, function summary) of a method, following bases."""
        if depth <= 0:
            return None
        cls = owner["classes"].get(cls_name)
        if cls is None:
            return None
        qualname = cls["methods"].get(method)
        if qualname is not None:
            fn = owner["functions"].get(qualname)
            if fn is not None:
                return owner, fn
        for base in cls["bases"]:
            resolved = self.resolve_in(owner, base.split("."))
            if resolved is None or resolved[0] != "class":
                continue
            found = self.method_function(resolved[1], resolved[2], method, depth - 1)
            if found is not None:
                return found
        return None

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
