"""Linter configuration: ``[tool.repro.checks]`` in ``pyproject.toml``.

Example::

    [tool.repro.checks]
    paths = ["src/repro"]
    exclude = ["*/_vendored/*"]

    [tool.repro.checks.rules.RC002]
    severity = "error"
    exclude = ["*/obs/*"]

    [tool.repro.checks.rules.RC006]
    enabled = true

Per-rule blocks may set ``enabled`` (bool), ``severity`` (``error`` /
``warning``), and ``include`` / ``exclude`` (fnmatch patterns matched
against the linted file's path relative to the directory of the
``pyproject.toml``, POSIX separators — the same anchor as ``paths``, so
a pattern means the same files from any working directory).  A rule
table for an id that names no rule is a usage error.  Path
patterns *extend* the rule's built-in defaults rather than replacing
them, so scoping encoded in a rule (e.g. RC002's obs allowlist) survives
a partial config.

TOML parsing uses :mod:`tomllib` (Python >= 3.11) and degrades to the
built-in defaults when no TOML reader is available — the default rule
pack is written so the shipped ``pyproject.toml`` block is declarative
documentation of the defaults, not a behavioural requirement.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional, Sequence

from .finding import SEVERITIES
from .registry import Rule

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on Python <= 3.10
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]

__all__ = ["CheckConfig", "RuleConfig", "load_config"]

#: Default lint roots when neither CLI paths nor config give any.
DEFAULT_PATHS = ("src/repro",)


#: Per-rule table keys the dataclass claims; everything else becomes
#: free-form rule ``options`` (e.g. RC009's ``baselines``/``producers``).
_RULE_TABLE_KEYS = frozenset({"enabled", "severity", "include", "exclude"})


@dataclass
class RuleConfig:
    """Per-rule settings layered over the rule's own defaults."""

    enabled: bool = True
    severity: Optional[str] = None
    include: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    options: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: Dict[str, Any], rule_id: str) -> "RuleConfig":
        severity = table.get("severity")
        if severity is not None and severity not in SEVERITIES:
            raise ValueError(
                f"rule {rule_id}: severity must be one of {SEVERITIES}, got {severity!r}"
            )
        return cls(
            enabled=bool(table.get("enabled", True)),
            severity=severity,
            include=[str(p) for p in table.get("include", [])],
            exclude=[str(p) for p in table.get("exclude", [])],
            options={k: v for k, v in table.items() if k not in _RULE_TABLE_KEYS},
        )


@dataclass
class CheckConfig:
    """Whole-run settings: lint roots plus per-rule overrides."""

    paths: List[str] = field(default_factory=lambda: list(DEFAULT_PATHS))
    exclude: List[str] = field(default_factory=list)
    rules: Dict[str, RuleConfig] = field(default_factory=dict)
    #: Directory the config was loaded from; relative ``paths``, the
    #: ``exclude``/``include`` patterns and rule options like RC009's
    #: baseline paths resolve against it.
    root: str = "."

    def lint_roots(self) -> List[str]:
        """``paths`` anchored at ``root``, relative to the working directory."""
        return [
            p if os.path.isabs(p) else os.path.relpath(os.path.join(self.root, p))
            for p in self.paths
        ]

    def rule_config(self, rule_id: str) -> RuleConfig:
        return self.rules.get(rule_id, RuleConfig())

    def file_excluded(self, path: str) -> bool:
        return _matches(os.path.relpath(path, self.root), self.exclude)

    def rule_applies(self, rule: Rule, path: str) -> bool:
        """Should ``rule`` run on ``path``, given defaults + config scoping?"""
        cfg = self.rule_config(rule.id)
        if not cfg.enabled:
            return False
        path = os.path.relpath(path, self.root)
        include = list(rule.default_include) + cfg.include
        if include and not _matches(path, include):
            return False
        exclude = list(rule.default_exclude) + cfg.exclude
        return not _matches(path, exclude)

    def effective_severity(self, rule: Rule) -> str:
        override = self.rule_config(rule.id).severity
        return override if override is not None else rule.severity


def _matches(path: str, patterns: Sequence[str]) -> bool:
    normalized = path.replace("\\", "/")
    return any(fnmatch(normalized, pattern) for pattern in patterns)


def load_config(pyproject_path: Optional[str] = None) -> CheckConfig:
    """Config from a ``pyproject.toml``, or pure defaults.

    ``pyproject_path=None`` returns defaults.  A missing
    ``[tool.repro.checks]`` table also returns defaults.  Asking for an
    explicit path without a TOML reader on this interpreter is an error;
    silently ignoring the file would un-gate the CI lint job.
    """
    if pyproject_path is None:
        return CheckConfig()
    if _toml is None:  # pragma: no cover - Python <= 3.10 without tomli
        raise RuntimeError(
            "reading pyproject.toml needs tomllib (Python >= 3.11) or tomli"
        )
    with open(pyproject_path, "rb") as fh:
        data = _toml.load(fh)
    table = data.get("tool", {}).get("repro", {}).get("checks", {})
    rules = {
        rule_id: RuleConfig.from_table(rule_table, rule_id)
        for rule_id, rule_table in table.get("rules", {}).items()
    }
    return CheckConfig(
        paths=[str(p) for p in table.get("paths", list(DEFAULT_PATHS))],
        exclude=[str(p) for p in table.get("exclude", [])],
        rules=rules,
        root=os.path.dirname(os.path.abspath(pyproject_path)) or ".",
    )
