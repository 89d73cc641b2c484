"""``repro lint`` / ``python -m repro.checks`` — the lint entry point.

Exits 0 when the tree is clean (or every finding is warning-severity),
1 when any error-severity finding survives suppression, 2 on usage
errors (a missing path, a bad ``--changed`` ref, or a rule id in
``--select`` or a config rule table that names no rule).  ``--output``
writes the report to a file (the CI artifact) while still printing it;
``--format json`` emits the machine document described in
:mod:`repro.checks.report`; ``--sarif PATH`` additionally writes a
SARIF 2.1.0 log (``--format sarif`` prints it instead).

``--changed [REF]`` scopes *reported* findings to files touched versus
a git ref (default ``HEAD``) plus untracked files — the whole-program
pass still sees the full tree, so cross-file contracts stay sound while
iterating.  With no path arguments the config's ``paths`` are linted,
resolved against the directory of the governing ``pyproject.toml``, so
the command works from any subdirectory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
from typing import List, Optional

from ..lint_parser import build_lint_parser
from .config import load_config
from .driver import UnknownRuleError, lint_paths
from .registry import all_rules
from .report import exit_code, format_json, format_text
from .sarif import format_sarif

__all__ = ["build_lint_parser", "main", "run_lint"]


def _discover_pyproject() -> Optional[str]:
    here = os.getcwd()
    while True:
        candidate = os.path.join(here, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(here)
        if parent == here:
            return None
        here = parent


def _git_lines(*args: str) -> List[str]:
    proc = subprocess.run(["git", *args], capture_output=True, text=True, check=True)
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def _changed_files(ref: str) -> Optional[List[str]]:
    """Absolute paths changed vs ``ref`` plus untracked files, or None on git failure.

    Both listings run at the repository's top level, so they name every
    file in the checkout whichever subdirectory the lint runs from.
    """
    try:
        (top,) = _git_lines("rev-parse", "--show-toplevel")
        names = _git_lines("-C", top, "diff", "--name-only", ref, "--")
        names += _git_lines(
            "-C", top, "ls-files", "--others", "--exclude-standard", "--full-name"
        )
    except (OSError, ValueError, subprocess.CalledProcessError):
        return None
    return [os.path.join(top, name) for name in names]


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity}/{rule.scope}]  {rule.description}")
        return 0
    if args.no_config:
        pyproject = None
    elif args.config is not None:
        pyproject = args.config
    else:
        pyproject = _discover_pyproject()
    config = load_config(pyproject)
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select else None
    )
    only_paths: Optional[List[str]] = None
    if args.changed is not None:
        only_paths = _changed_files(args.changed)
        if only_paths is None:
            print(f"repro lint: cannot resolve --changed against {args.changed!r} "
                  "(not a git checkout?)")
            return 2
    roots = args.paths or config.lint_roots()
    missing = [path for path in roots if not os.path.exists(path)]
    if missing:
        print(f"repro lint: no such file or directory: {', '.join(missing)}")
        return 2
    try:
        findings = lint_paths(roots, config=config, select=select, only_paths=only_paths)
    except UnknownRuleError as exc:
        print(f"repro lint: {exc}")
        return 2
    if args.format == "json":
        report = format_json(findings)
    elif args.format == "sarif":
        report = format_sarif(findings)
    else:
        report = format_text(findings)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(format_sarif(findings) + "\n")
    return exit_code(findings)


def main(argv: Optional[List[str]] = None) -> int:
    return run_lint(build_lint_parser().parse_args(argv))
