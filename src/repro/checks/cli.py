"""``repro lint`` / ``python -m repro.checks`` — the lint entry point.

Exits 0 when the tree is clean (or every finding is warning-severity),
1 when any error-severity finding survives suppression, 2 on usage
errors.  ``--output`` writes the report to a file (the CI artifact) while
still printing it; ``--format json`` emits the machine document described
in :mod:`repro.checks.report`; ``--sarif PATH`` additionally writes a
SARIF 2.1.0 log (``--format sarif`` prints it instead).

The incremental cache (:mod:`repro.checks.cache`) is on by default and
lives under the config root; ``--no-cache`` disables it and
``--cache-dir`` relocates it.  ``--changed [REF]`` scopes *reported*
findings to files touched versus a git ref (default ``HEAD``) plus
untracked files — the whole-program pass still sees the full tree, so
cross-file contracts stay sound while iterating.
"""

from __future__ import annotations

import argparse
import os
import subprocess
from typing import List, Optional

from ..lint_parser import DEFAULT_CACHE_DIR, build_lint_parser
from .cache import SummaryCache
from .config import CheckConfig, load_config
from .driver import lint_project
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


def _changed_files(ref: str) -> Optional[List[str]]:
    """Files changed vs ``ref`` plus untracked files, or None on git failure."""
    changed: List[str] = []
    for args in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        changed.extend(line.strip() for line in proc.stdout.splitlines() if line.strip())
    return changed


def _resolve_cache(args: argparse.Namespace, config: CheckConfig) -> Optional[SummaryCache]:
    if args.no_cache:
        return None
    directory = args.cache_dir or config.cache_dir or DEFAULT_CACHE_DIR
    if not os.path.isabs(directory):
        directory = os.path.join(config.root, directory)
    return SummaryCache(directory)


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
    run = lint_project(
        args.paths or None,
        config=config,
        select=select,
        cache=_resolve_cache(args, config),
        only_paths=only_paths,
    )
    if args.format == "json":
        report = format_json(run.findings, stats=run.stats)
    elif args.format == "sarif":
        report = format_sarif(run.findings)
    else:
        report = format_text(run.findings)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(format_sarif(run.findings) + "\n")
    return exit_code(run.findings)


def main(argv: Optional[List[str]] = None) -> int:
    return run_lint(build_lint_parser().parse_args(argv))
