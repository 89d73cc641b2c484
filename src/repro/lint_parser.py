"""The ``repro lint`` argument surface, kept outside :mod:`repro.checks`.

Every ``repro`` command builds the full parser, ``lint`` subparser
included, but only ``repro lint`` runs the linter.  Importing anything
under :mod:`repro.checks` runs that package's ``__init__``, which loads
the driver and the whole rule pack.  This module needs only argparse, so
building the parser costs no linter import.  :mod:`repro.checks.cli`
re-exports :func:`build_lint_parser` for ``python -m repro.checks``.
"""

from __future__ import annotations

import argparse
from typing import Optional

__all__ = ["LINT_DESCRIPTION", "build_lint_parser"]

#: What ``repro lint`` checks: the ``repro --help`` line and the
#: ``repro lint --help`` description.
LINT_DESCRIPTION = (
    "statically check the repro invariants (determinism, mergeability, "
    "env-var handoff, gated metric names) with the RC rule pack"
)


def build_lint_parser(parser: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    """The lint argument surface (shared by ``repro lint`` and ``-m``)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description=LINT_DESCRIPTION,
        )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: paths from pyproject.toml, "
        "falling back to src/repro)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the report to PATH (e.g. the CI lint artifact)",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 log to PATH (independent of --format)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all enabled rules)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="only report findings in files changed vs REF (git diff + "
        "untracked; default REF: HEAD)",
    )
    parser.add_argument(
        "--config", default=None, metavar="PYPROJECT",
        help="explicit pyproject.toml (default: auto-discover from cwd)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject.toml and run with built-in defaults",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser
