"""repro.checks — AST-based invariant linter for the analysis pipeline.

The engine's reproducibility contract (bit-identical results at any
``--workers`` value) rests on properties the runtime tests can only
spot-check: **determinism** (no hidden entropy or wall-clock reads in
pure paths), **mergeability** (ordered, hash-independent merge folds),
and the project-wide **handoffs** (env-var knobs that reach spawn
workers, gated metric names that still exist).  This package enforces
them statically, at lint time.  The analyzer contracts the engine
checks at run time (declared columns, picklable state) are tested, not
linted: ``tests/test_engine_analyzer_contract.py``.

Rule pack:

========  ==============================================================
RC001     no unseeded / global-state randomness
RC002     no wall-clock reads in pure analysis paths (obs allowlisted)
RC003     no unordered (set/frozenset) iteration in merge paths
RC005     no silently swallowed exceptions
RC006     ``__all__`` present and consistent with public defs
RC008     ``REPRO_*`` env vars read anywhere are written on a handoff path
RC009     baseline metric names match a name the sources can produce
========  ==============================================================

RC001–RC003, RC005 and RC006 are per-file; RC008 and RC009 run over a
whole-program :class:`~repro.checks.project.ProjectModel` (module
constants and env-var references resolved across files).  Each file is
parsed and its AST walked once per run; both passes share that walk and
its one import resolver.

Usage::

    repro lint [paths ...] [--format json|sarif] [--sarif out.sarif]
               [--select RC001,RC008] [--changed [REF]]
    python -m repro.checks

Suppress a single line with ``# repro: noqa[RC001]``; configure per-rule
severity, path scoping, and rule options under ``[tool.repro.checks]``
in ``pyproject.toml``.  See the README's "Static analysis" section.
"""

from __future__ import annotations

from .config import CheckConfig, RuleConfig, load_config
from .driver import collect_files, lint_files, lint_paths, lint_source
from .finding import Finding
from .project import ProjectModel, extract_summary
from .registry import (
    Module,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    module_name_for,
    register,
    rule_ids,
)
from .report import exit_code, format_json, format_text, report_dict
from .sarif import format_sarif, sarif_dict, validate_sarif

__all__ = [
    "CheckConfig",
    "Finding",
    "Module",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "RuleConfig",
    "all_rules",
    "collect_files",
    "exit_code",
    "extract_summary",
    "format_json",
    "format_sarif",
    "format_text",
    "get_rule",
    "lint_files",
    "lint_paths",
    "lint_source",
    "load_config",
    "module_name_for",
    "register",
    "report_dict",
    "rule_ids",
    "sarif_dict",
    "validate_sarif",
]
