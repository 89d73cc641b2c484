"""The lint driver: collect files, parse once, run every applicable rule.

Two passes share one parse per file:

* **per-file rules** (scope ``"file"``) visit each AST independently;
* **project rules** (scope ``"project"``, RC008 and RC009) run once over
  a :class:`~repro.checks.project.ProjectModel` built from every file's
  summary, after all files are in.

Findings from both passes are filtered through per-line ``# repro:
noqa`` suppressions and returned sorted by ``(path, line, col, rule)``
— deterministic output for identical input, the same property the
rules police.

Files that fail to parse produce an ``RC000`` syntax-error finding
instead of crashing the run: a file the linter cannot read is a file the
invariants cannot be verified on.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from . import rules as _rules  # noqa: F401  (imports register the rule pack)
from .config import CheckConfig
from .finding import Finding
from .noqa import collect_suppressions, is_suppressed
from .project import ProjectModel, extract_summary
from .registry import Module, ProjectRule, Rule, all_rules, rule_ids

__all__ = [
    "UnknownRuleError",
    "collect_files",
    "lint_files",
    "lint_paths",
    "lint_source",
]


class UnknownRuleError(ValueError):
    """A selected or configured rule id names no registered rule.

    Ignoring it would lint as if the id were absent, so a stale
    ``--select`` or ``[tool.repro.checks.rules.*]`` table would pass
    forever once its rule is gone.
    """


def collect_files(paths: Iterable[str], config: CheckConfig) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        else:
            out.append(path)
    normalized = sorted({p.replace(os.sep, "/") for p in out})
    return [p for p in normalized if not config.file_excluded(p)]


def _select_rules(config: CheckConfig, select: Optional[Sequence[str]]) -> List[Rule]:
    known = set(rule_ids())
    wanted = {s.upper() for s in select} if select is not None else known
    for where, ids in (("--select", wanted), ("[tool.repro.checks.rules]", config.rules)):
        unknown = sorted(set(ids) - known)
        if unknown:
            raise UnknownRuleError(
                f"unknown rule id {', '.join(unknown)} in {where}; "
                f"known ids: {', '.join(sorted(known))}"
            )
    chosen = [r for r in all_rules() if r.id in wanted]
    return [
        r.configured(
            severity=config.effective_severity(r),
            options=config.rule_config(r.id).options,
        )
        for r in chosen
    ]


def _analyze_source(
    text: str, path: str, config: CheckConfig, rules: Sequence[Rule]
) -> Tuple[List[Finding], Optional[dict]]:
    """(per-file findings, project summary) for one source string."""
    try:
        module = Module.from_source(text, path=path)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="RC000",
                    severity="error",
                    message=f"syntax error: {exc.msg}",
                    hint="fix the syntax error so invariants can be checked",
                )
            ],
            None,
        )
    suppressions = collect_suppressions(text)
    findings: List[Finding] = []
    for rule in rules:
        if rule.scope != "file" or not config.rule_applies(rule, path):
            continue
        findings.extend(
            f for f in rule.check(module) if not is_suppressed(f, suppressions)
        )
    return sorted(findings), extract_summary(module)


def lint_source(
    text: str,
    path: str = "<snippet>",
    config: Optional[CheckConfig] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one source string with the per-file rules (the test seam)."""
    config = config if config is not None else CheckConfig()
    findings, _summary = _analyze_source(
        text, path, config, _select_rules(config, select)
    )
    return findings


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    config: Optional[CheckConfig] = None,
    select: Optional[Sequence[str]] = None,
    only_paths: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint files/directories (default: the config's ``paths``), both passes.

    ``only_paths`` (the ``--changed`` mechanism) filters *findings* to
    the given files after both passes ran over the whole tree — project
    rules need every summary regardless, and a cross-file contract
    breach is reported wherever its anchor site is.
    """
    config = config if config is not None else CheckConfig()
    roots = list(paths) if paths else config.lint_roots()
    findings = lint_files(collect_files(roots, config), config, select)
    if only_paths is None:
        return findings
    wanted: Set[str] = {os.path.realpath(p) for p in only_paths}
    return [f for f in findings if os.path.realpath(f.path) in wanted]


def lint_files(
    files: Iterable[str],
    config: Optional[CheckConfig] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint explicit files (both passes); returns all findings sorted."""
    config = config if config is not None else CheckConfig()
    rules = _select_rules(config, select)
    findings: List[Finding] = []
    summaries: List[dict] = []
    for path in files:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        file_findings, summary = _analyze_source(text, path, config, rules)
        findings.extend(file_findings)
        if summary is not None:
            summaries.append(summary)

    project = ProjectModel(summaries)
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(project, config):
            if not config.rule_applies(rule, finding.path):
                continue
            if is_suppressed(finding, project.suppressions_for(finding.path)):
                continue
            findings.append(finding)
    return sorted(findings)
