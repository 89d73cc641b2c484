"""Rule plumbing: the module context rules see, the Rule base, the registry.

A rule is a class with an ``id`` (``RCnnn``), a default severity, a fix
``hint``, and a ``check(module)`` method yielding :class:`~repro.checks.finding.Finding`
objects.  Rules are registered with :func:`register` at import time
(:mod:`repro.checks.rules` imports every rule module) and looked up by id.

:class:`Module` packages everything a rule needs for one source file —
the parsed AST and its node list, the raw text, its inferred module
name, and the one import-alias resolver, so rules can match calls like
``np.random.default_rng()`` against canonical dotted names
(``numpy.random.default_rng``) however the module spelled its imports,
relative imports included.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Optional, Type

from .finding import Finding

__all__ = [
    "ImportMap",
    "Module",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "module_name_for",
    "register",
    "rule_ids",
]


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


class ImportMap:
    """Resolve local names to canonical dotted import paths.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime as dt`` maps ``dt -> datetime.datetime``; a relative import
    resolves against the importing module's name, so in ``pkg/sub/mod.py``
    ``from ..other import thing`` maps ``thing -> pkg.other.thing``.
    :meth:`resolve` then canonicalizes an attribute chain rooted at an
    imported name — ``np.random.default_rng`` becomes
    ``numpy.random.default_rng`` — and returns ``None`` for chains rooted
    anywhere else (locals, attributes of ``self``, …), which keeps rules
    from guessing about shadowed names.
    """

    def __init__(self, nodes: Iterable[ast.AST], module_name: str, is_package: bool) -> None:
        self._aliases: Dict[str, str] = {}
        package = module_name.split(".")
        if not is_package:
            package = package[:-1]
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    canonical = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[local] = canonical
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = package[: max(0, len(package) - (node.level - 1))]
                    if not parts:
                        continue  # beyond the top-level package: unresolvable
                    base = ".".join(parts + ([node.module] if node.module else []))
                elif node.module is not None:
                    base = node.module
                else:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{base}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a ``Name``/``Attribute`` chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


class Module:
    """One source file, parsed and ready for rules.

    ``nodes`` is every node of ``tree`` in :func:`ast.walk` order, walked
    once here; rules and the project summary iterate it instead of
    walking the whole tree again.  ``name`` is the dotted module name
    inferred from the path (see :func:`module_name_for`), which anchors
    the relative imports in ``imports``.
    """

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.tree = tree
        self.nodes: List[ast.AST] = list(ast.walk(tree))
        self.name = module_name_for(path)
        is_package = os.path.basename(path) == "__init__.py"
        self.imports = ImportMap(self.nodes, self.name, is_package)

    @classmethod
    def from_source(cls, text: str, path: str = "<snippet>") -> "Module":
        return cls(path, text, ast.parse(text))

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """A finding anchored at ``node``, carrying the rule's metadata."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.id,
            severity=rule.severity,
            message=message,
            hint=hint if hint is not None else rule.hint,
        )


class Rule:
    """Base class for invariant rules.  Subclass and :func:`register`."""

    #: Unique rule id, ``RCnnn``.
    id: str = ""
    #: One-line description of the invariant the rule encodes.
    description: str = ""
    #: Default severity; per-rule config may override.
    severity: str = "error"
    #: Default fix guidance attached to findings.
    hint: str = ""
    #: ``"file"`` rules see one :class:`Module` at a time via :meth:`check`;
    #: ``"project"`` rules (see :class:`ProjectRule`) see the whole tree.
    scope: str = "file"
    #: Default fnmatch patterns limiting which files the rule sees
    #: (empty means every linted file).
    default_include: Iterable[str] = ()
    #: Default fnmatch patterns exempting files from the rule.
    default_exclude: Iterable[str] = ()

    def __init__(self) -> None:
        #: Free-form per-rule settings from ``[tool.repro.checks.rules.*]``
        #: (keys the config dataclass does not claim for itself).
        self.options: dict = {}

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def configured(
        self, severity: Optional[str] = None, options: Optional[dict] = None
    ) -> "Rule":
        """A copy of this rule with config-overridden severity/options."""
        if (severity is None or severity == self.severity) and not options:
            return self
        clone = type(self)()
        if severity is not None:
            clone.severity = severity
        if options:
            clone.options = dict(options)
        return clone


class ProjectRule(Rule):
    """A rule that checks the whole linted tree, not one file.

    Subclasses implement :meth:`check_project` against a
    :class:`repro.checks.project.ProjectModel`; the driver runs them once
    per lint after every per-file summary is available, filters their
    findings through the same path scoping and noqa machinery as
    per-file findings, and sorts everything together.
    """

    scope = "project"

    def check(self, module: Module) -> Iterator[Finding]:
        return iter(())  # project rules do not run per file

    def check_project(self, project, config) -> Iterator[Finding]:
        """Findings over the whole project (``project`` is a ProjectModel)."""
        raise NotImplementedError

    def finding_at(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        hint: Optional[str] = None,
        severity: Optional[str] = None,
    ) -> Finding:
        """A finding at an explicit location, carrying this rule's metadata."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.id,
            severity=severity if severity is not None else self.severity,
            message=message,
            hint=hint if hint is not None else self.hint,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry (by id)."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def rule_ids() -> List[str]:
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]()


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]
