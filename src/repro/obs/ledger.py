"""Persistent run ledger: every run leaves a structured, queryable record.

A metrics report written to a throwaway ``--metrics-out`` file answers
questions about *one* run; a performance trajectory needs runs that are
comparable *over time*.  This module gives every engine/CLI/bench run a
schema-versioned **run record** — config digest, dataset identity,
worker/chunk settings, the full metrics report, span stats, wall/CPU
timings, host info — appended atomically to a ledger directory that
accumulates across runs, PerfKitBenchmarker-publisher style.

Layout: one JSON file per record under the ledger directory (default
``.repro/runs/``, overridden by ``--ledger-dir`` or the
``REPRO_LEDGER_DIR`` environment variable), named by the record's
``run_id``.  Appends write a temp file and :func:`os.replace` it into
place, so a record is either fully present or absent — concurrent runs
never interleave, and a crash never leaves a torn record.

The ``repro runs`` command group (:mod:`repro.obs.runs`) lists, shows,
diffs, and threshold-checks records; ``repro runs check`` against a
committed baseline turns the ledger into a CI perf-regression gate.

Records carry two views of the same metrics: ``metrics`` is a flat
``{dotted.name: number}`` map (the diff/check surface) and
``metrics_report`` the full nested registry report.  Benchmarks put
their timing records under ``results`` and fold the headline numbers
into ``metrics`` so the gate can reach them by name.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import time
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_LEDGER_DIR",
    "ENV_VAR",
    "resolve_ledger_dir",
    "config_digest",
    "host_info",
    "flatten_report",
    "span_stats",
    "build_record",
    "append_record",
    "try_append_record",
    "record_path",
    "list_records",
    "load_record",
]

#: Bumped whenever the record shape changes incompatibly; readers check it.
SCHEMA_VERSION = 1

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_DIR = os.path.join(".repro", "runs")

#: Environment variable overriding the default ledger directory.
ENV_VAR = "REPRO_LEDGER_DIR"

#: Monotonic per-process suffix so records born in the same microsecond
#: (e.g. two appends in one test) still get distinct ids.
_SEQUENCE = itertools.count()


def resolve_ledger_dir(explicit: Optional[str] = None) -> str:
    """The ledger directory: explicit flag > ``REPRO_LEDGER_DIR`` > default."""
    if explicit:
        return explicit
    # Records are appended by the parent process only — workers never write
    # the ledger — so this knob needs no spawn-worker env handoff.
    return os.environ.get(ENV_VAR) or DEFAULT_LEDGER_DIR  # repro: noqa[RC008]


def config_digest(config: Dict[str, Any]) -> str:
    """Short stable digest of a config dict (key order never matters)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def host_info() -> Dict[str, Any]:
    """Where the run happened — context for cross-host perf comparisons."""
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def flatten_report(report: Dict[str, Any]) -> Dict[str, float]:
    """A registry report as the flat numeric map ``runs diff/check`` use.

    Counters and gauges keep their names; each histogram contributes
    ``<name>.count/sum/mean/min/max/p50/p90/p99`` (empty-histogram
    ``None`` stats are dropped).
    """
    flat: Dict[str, float] = {}
    for name, value in report.get("counters", {}).items():
        flat[name] = value
    for name, value in report.get("gauges", {}).items():
        flat[name] = value
    for name, hist in report.get("histograms", {}).items():
        for key in ("count", "sum", "mean", "min", "max", "p50", "p90", "p99"):
            value = hist.get(key)
            if value is not None:
                flat[f"{name}.{key}"] = value
    return flat


def span_stats(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The ``span.<name>.seconds`` histograms, keyed by bare span name."""
    stats: Dict[str, Dict[str, Any]] = {}
    for name, hist in report.get("histograms", {}).items():
        if name.startswith("span.") and name.endswith(".seconds"):
            stats[name[len("span.") : -len(".seconds")]] = {
                key: hist.get(key)
                for key in ("count", "sum", "mean", "min", "max", "p50", "p90", "p99")
            }
    return stats


def _new_run_id(digest: str) -> str:
    """Sortable, collision-free id: utc time + config digest + pid + seq."""
    now = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
    micros = int((now % 1.0) * 1e6)
    return f"{stamp}.{micros:06d}-{digest}-{os.getpid()}-{next(_SEQUENCE)}"


def build_record(
    kind: str,
    config: Optional[Dict[str, Any]] = None,
    dataset: Optional[Dict[str, Any]] = None,
    registry: Optional[MetricsRegistry] = None,
    metrics: Optional[Dict[str, float]] = None,
    results: Optional[Any] = None,
    wall_seconds: Optional[float] = None,
    cpu_seconds: Optional[float] = None,
    startup_cpu_seconds: Optional[float] = None,
    errors: Optional[Dict[str, Any]] = None,
    exit_code: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-versioned run record (a plain JSON-safe dict).

    ``registry`` (when given) contributes the full ``metrics_report``,
    its flattened numeric view, and derived span stats; ``metrics``
    entries are folded on top (benchmark headline numbers).  ``results``
    is free-form benchmark payload (timing record lists).
    ``startup_cpu_seconds`` is the process CPU time spent before the
    command's entry point ran (interpreter start-up and imports), which
    ``wall_seconds``/``cpu_seconds`` do not cover.
    """
    config = dict(config or {})
    digest = config_digest(config)
    report = registry.report() if registry is not None else None
    flat: Dict[str, float] = flatten_report(report) if report else {}
    if metrics:
        flat.update(metrics)
    timings: Dict[str, float] = {}
    if wall_seconds is not None:
        timings["wall_seconds"] = wall_seconds
        flat["run.wall_seconds"] = wall_seconds
    if cpu_seconds is not None:
        timings["cpu_seconds"] = cpu_seconds
        flat["run.cpu_seconds"] = cpu_seconds
    if startup_cpu_seconds is not None:
        timings["startup_cpu_seconds"] = startup_cpu_seconds
        flat["run.startup_cpu_seconds"] = startup_cpu_seconds
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "run_id": _new_run_id(digest),
        "kind": kind,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config,
        "config_digest": digest,
        "dataset": dataset or {},
        "host": host_info(),
        "timings": timings,
        "metrics": flat,
        "metrics_report": report,
        "spans": span_stats(report) if report else {},
        "errors": errors,
        "exit_code": exit_code,
    }
    if results is not None:
        record["results"] = results
    if extra:
        record.update(extra)
    return record


def record_path(ledger_dir: str, run_id: str) -> str:
    return os.path.join(ledger_dir, f"{run_id}.json")


def append_record(record: Dict[str, Any], ledger_dir: Optional[str] = None) -> str:
    """Atomically append ``record`` to the ledger; returns its path.

    The record is written to a temp file in the ledger directory and
    renamed into place, so readers never see a torn record and
    concurrent appenders (distinct run ids) never clobber each other.
    """
    directory = resolve_ledger_dir(ledger_dir)
    os.makedirs(directory, exist_ok=True)
    path = record_path(directory, record["run_id"])
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def try_append_record(
    record: Dict[str, Any], ledger_dir: Optional[str] = None
) -> Optional[str]:
    """:func:`append_record`, degrading to ``None`` on :class:`OSError`.

    The ledger is an observer of the run, never a participant: a full
    disk or read-only ledger directory must not fail an analysis that
    already produced its results.  Failures log a structured warning
    (``ledger_unwritable``) and the run continues.
    """
    from .logging import get_logger

    try:
        return append_record(record, ledger_dir)
    except OSError as exc:
        get_logger("repro.obs").warning("ledger_unwritable", error=repr(exc))
        return None


def list_records(ledger_dir: Optional[str] = None) -> List[str]:
    """Paths of every ledger record, sorted by run id (i.e. by time)."""
    directory = resolve_ledger_dir(ledger_dir)
    if not os.path.isdir(directory):
        return []
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".json")
    ]


def load_record(path: str) -> Dict[str, Any]:
    """Load one record, checking the schema version is readable."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    version = record.get("schema_version")
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported run-record schema_version {version!r} "
            f"(this build reads <= {SCHEMA_VERSION})"
        )
    return record
