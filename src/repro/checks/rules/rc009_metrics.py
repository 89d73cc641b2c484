"""RC009 — every gated baseline metric must still be produced somewhere.

``repro runs check --baseline benchmarks/baselines.json`` fails when a
baselined metric is *missing* from a record — but only at CI runtime,
after the benchmark has already run.  Worse, if a counter is renamed
and the baseline key is updated to match a name nothing produces, the
gate would fail every run; if the baseline entry is deleted instead,
the regression gate silently loses coverage.  This rule closes the loop
at lint time: every metric name in the configured baseline files must
match some name *constructible* by the linted sources or the producer
scripts.

Produced-name patterns come from three places:

* metric-registry call sites in the linted project (``counter(...)`` /
  ``gauge(...)`` / ``histogram(...)`` / ``timer(...)`` with a literal
  or f-string name; f-string fields widen to ``*``).  Histogram/timer
  names also match with the ``flatten_report`` expansion suffixes
  (``.count``, ``.p99``, ...).
* producer scripts (default: ``benchmarks/``), scanned for name-like
  string literals and f-strings; each atom also matches with the
  ``flatten_timings`` suffixes (``.seconds``, ``.requests_per_second``)
  since timing labels become two metrics each.
* ``extra_names`` rule option for names the ledger synthesizes itself
  (defaults: ``run.wall_seconds``, ``run.cpu_seconds``).

Baseline metric names that match nothing are errors, anchored at the
name's line in the baseline file.  Missing baseline files are skipped —
the rule gates committed baselines, it does not require them.
"""

from __future__ import annotations

import ast
import json
import os
import re
from fnmatch import fnmatch
from typing import Dict, Iterator, List, Set, Tuple

from ..finding import Finding
from ..registry import Module, ProjectRule, register

__all__ = ["MetricContractRule"]

DEFAULT_BASELINES = ("benchmarks/baselines.json",)
DEFAULT_PRODUCERS = ("benchmarks",)
DEFAULT_EXTRA_NAMES = ("run.wall_seconds", "run.cpu_seconds")

#: ``repro.obs.ledger.flatten_report`` histogram expansion suffixes.
HISTOGRAM_SUFFIXES = (".count", ".sum", ".mean", ".min", ".max", ".p50", ".p90", ".p99")
#: ``benchmarks/_record.flatten_timings`` per-timing suffixes.
TIMING_SUFFIXES = (".seconds", ".requests_per_second")

#: Name-like string literals worth treating as metric-name atoms: dotted
#: or labelled identifiers, no newlines, not prose.
_ATOM_RE = re.compile(r"^[A-Za-z_*][A-Za-z0-9_*]*(?:[ .=-][A-Za-z0-9_*%=]+)*$")
_MAX_ATOM_LEN = 64

#: Process-lifetime memo of producer-file scans, keyed by (path, size, mtime_ns).
_producer_memo: Dict[Tuple[str, int, int], List[str]] = {}


def _name_like(text: str) -> bool:
    """Name-like and meaningfully constraining (not an all-wildcard pattern)."""
    return (
        0 < len(text) <= _MAX_ATOM_LEN
        and bool(_ATOM_RE.match(text))
        and text.replace("*", "").strip(" .=-") != ""
    )


def _producer_atoms(path: str) -> List[str]:
    """Name-like string atoms (f-string fields as ``*``) in one producer file."""
    try:
        stat = os.stat(path)
        key = (path, stat.st_size, stat.st_mtime_ns)
    except OSError:
        return []
    cached = _producer_memo.get(key)
    if cached is not None:
        return cached
    atoms: Set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            module = Module.from_source(fh.read(), path=path)
    except (OSError, SyntaxError, ValueError):
        _producer_memo[key] = []
        return []
    for node in module.nodes:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _name_like(node.value):
                atoms.add(node.value)
        elif isinstance(node, ast.JoinedStr):
            parts = [
                piece.value
                if isinstance(piece, ast.Constant) and isinstance(piece.value, str)
                else "*"
                for piece in node.values
            ]
            pattern = "".join(parts)
            if _name_like(pattern):
                atoms.add(pattern)
    result = sorted(atoms)
    _producer_memo[key] = result
    return result


def _baseline_name_line(text: str, name: str) -> int:
    """1-based line of the quoted metric name in the baseline file, or 1."""
    needle = json.dumps(name)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return 1


@register
class MetricContractRule(ProjectRule):
    id = "RC009"
    description = "baseline metric names must match a name the sources can produce"
    severity = "error"
    hint = (
        "update the baseline key to the metric's current name (repro runs check "
        "--update after an intentional rename) or restore the producing call site"
    )

    def check_project(self, project, config) -> Iterator[Finding]:
        root = getattr(config, "root", ".") or "."
        baselines = [
            os.path.join(root, p) if not os.path.isabs(p) else p
            for p in self.options.get("baselines", list(DEFAULT_BASELINES))
        ]
        producers = [
            os.path.join(root, p) if not os.path.isabs(p) else p
            for p in self.options.get("producers", list(DEFAULT_PRODUCERS))
        ]
        patterns = self._patterns(project, producers)
        for baseline_path in baselines:
            if not os.path.isfile(baseline_path):
                continue
            yield from self._check_baseline(baseline_path, patterns)

    def _patterns(self, project, producers: List[str]) -> List[str]:
        patterns: Set[str] = set(
            str(n) for n in self.options.get("extra_names", list(DEFAULT_EXTRA_NAMES))
        )
        for summary in project.summaries():
            for kind, pattern, _line, _col in summary.get("metric_sites", []):
                if not _name_like(pattern):
                    continue  # an all-dynamic name constrains nothing
                patterns.add(pattern)
                if kind in ("histogram", "timer"):
                    patterns.update(pattern + suffix for suffix in HISTOGRAM_SUFFIXES)
        for producer in producers:
            files: List[str] = []
            if os.path.isdir(producer):
                for dirpath, dirnames, filenames in os.walk(producer):
                    dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                    files.extend(
                        os.path.join(dirpath, f)
                        for f in sorted(filenames)
                        if f.endswith(".py")
                    )
            elif os.path.isfile(producer):
                files.append(producer)
            for path in files:
                for atom in _producer_atoms(path):
                    patterns.add(atom)
                    patterns.update(atom + suffix for suffix in TIMING_SUFFIXES)
        return sorted(patterns)

    def _check_baseline(self, path: str, patterns: List[str]) -> Iterator[Finding]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            doc = json.loads(text)
        except (OSError, ValueError) as exc:
            yield self.finding_at(
                path.replace(os.sep, "/"), 1, 0,
                f"baseline file cannot be read as JSON: {exc}",
                hint="fix the baseline file so the perf gate can parse it",
            )
            return
        records = doc.get("records", {}) if isinstance(doc, dict) else {}
        report_path = path.replace(os.sep, "/")
        for kind in sorted(records):
            metrics = records[kind].get("metrics", {}) if isinstance(records[kind], dict) else {}
            for name in sorted(metrics):
                if any(fnmatch(name, pattern) for pattern in patterns):
                    continue
                yield self.finding_at(
                    report_path, _baseline_name_line(text, name), 0,
                    f"baseline metric '{name}' (record kind '{kind}') matches no "
                    "metric name produced by the linted sources or producer "
                    "scripts — the perf gate would fail or go vacuous",
                )
