"""Command-line interface.

Subcommands:

* ``repro generate`` — write a synthetic fleet to trace files.
* ``repro ingest`` — parse traces once into the mmap columnar store.
* ``repro analyze`` — per-volume profiles of a trace directory (JSON).
* ``repro report`` — fleet-level summary tables for one dataset.
* ``repro findings`` — evaluate the paper's 15 findings on two fleets.

Trace store (see :mod:`repro.store`): engine-backed subcommands accept
``--store`` / ``--no-store`` / ``--store-dir DIR`` to serve parsed
columns from the memory-mapped store instead of re-parsing text —
entries are built transparently on first use, or ahead of time with
``repro ingest``.  Results are bit-identical either way.

Observability (see :mod:`repro.obs`): command *results* go to stdout,
every status line goes through the structured logger on stderr
(``--log-level`` / ``--log-json``), and engine-backed subcommands accept
``--metrics-out PATH`` (JSON metrics report, span timings included),
``--trace-out PATH`` (Chrome trace-event timeline with per-worker lanes,
viewable at https://ui.perfetto.dev), and ``--progress`` (per-unit
completion events as workers finish).

Run ledger (see :mod:`repro.obs.ledger`): every engine-backed run also
appends a schema-versioned run record — config digest, dataset
identity, full metrics, span stats, timings, host info — to the
persistent ledger directory (``.repro/runs/`` by default; override with
``--ledger-dir`` or ``REPRO_LEDGER_DIR``, opt out with ``--no-ledger``).
``repro runs list/show/diff/check`` queries the ledger;
``repro runs check --baseline benchmarks/baselines.json`` is the CI
perf-regression gate.  Neither the ledger nor timeline recording ever
changes command output: instrumentation on/off is byte-identical.

Fault tolerance (see :mod:`repro.resilience`): engine-backed subcommands
accept ``--on-error {strict,skip,quarantine}``, ``--max-retries`` /
``--unit-timeout`` for unit-level recovery, ``--quarantine-out`` (JSONL
sink for sampled malformed lines), ``--errors-out`` (the run's full JSON
fault ledger), and ``--faults PLAN.json`` to activate a deterministic
:mod:`repro.faults` injection plan for chaos drills.

Durable runs (see :mod:`repro.resilience.checkpoint` and
:mod:`repro.store.scrub`): ``stream-analyze --checkpoint`` persists each
completed file's merged analyzer state under
``.repro/checkpoints/<config-digest>/`` as it finishes; ``--resume``
folds the completed units from disk and executes only the rest —
bit-identical to an uninterrupted run at any worker count — and is
refused (exit 2) when the result-affecting config changed.
SIGINT/SIGTERM on a checkpointed run still flush the run-ledger record
and exit ``128 + signum``.  On the store side, ``repro store verify``
scrubs a trace store (``--deep`` re-hashes every segment) and
``--verify-store`` makes serving quarantine corrupt entries and rebuild
them from the source text (self-heal), recorded in the run's fault
ledger.

Query planning (see :mod:`repro.engine.plan`): ``analyze``, ``report``,
``stream-analyze``, and ``findings`` accept ``--since`` / ``--until``
(half-open time window, seconds) and a volume-id filter (``--volumes``
on most commands; ``--only-volumes`` on ``findings``, whose ``--volumes``
is the synthetic fleet size).  Filters push down the data path — pruned
columns, zone-map chunk skipping on a warm store — and are bit-identical
to filtering after the fact; planner counters (``plan.*``) land in the
``--metrics-out`` report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from time import perf_counter, process_time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__, faults
from .engine import DEFAULT_CHUNK_SIZE, RowPredicate, read_dataset_dir_chunked
from .engine.runner import parallel_map, resilient_map
from .lint_parser import LINT_DESCRIPTION, build_lint_parser
from .obs import (
    collecting,
    configure_logging,
    get_logger,
    metrics,
    metrics_report,
    timeline,
    traced,
    tracing_enabled,
)
from .resilience import (
    ON_ERROR_CHOICES,
    ON_ERROR_STRICT,
    RetryPolicy,
    RunErrors,
    write_quarantine_jsonl,
)
from .store import DEFAULT_STORE_DIRNAME, StoreConfig

if TYPE_CHECKING:
    from .resilience import CheckpointConfig
    from .trace import TraceDataset

__all__ = ["main", "build_parser"]

_log = get_logger("repro.cli")


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """The trace-store knobs (see repro.store)."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--store", action="store_true", default=None, dest="store",
        help="serve parsed columns from the mmap trace store, building "
        "entries transparently on first use (see 'repro ingest')",
    )
    group.add_argument(
        "--no-store", action="store_false", dest="store",
        help="force text parsing even when store entries exist",
    )
    parser.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="store location (implies --store; default: .repro-store "
        "next to the trace files)",
    )
    parser.add_argument(
        "--verify-store", action="store_true", dest="verify_store",
        help="deep-verify (sha256 per segment) every store entry before "
        "serving it; a corrupt entry is quarantined, recorded in the fault "
        "ledger, and rebuilt from the source text (implies --store)",
    )


def _add_filter_flags(
    parser: argparse.ArgumentParser, volumes_flag: str = "--volumes"
) -> None:
    """The row-predicate knobs (see repro.engine.plan).

    ``findings`` passes ``volumes_flag="--only-volumes"`` because its
    ``--volumes`` already means the synthetic fleet size.
    """
    parser.add_argument(
        "--since", type=_finite_seconds, default=None, metavar="SECONDS",
        help="keep only requests with timestamp >= SECONDS "
        "(half-open window; pushed down the data path)",
    )
    parser.add_argument(
        "--until", type=_finite_seconds, default=None, metavar="SECONDS",
        help="keep only requests with timestamp < SECONDS",
    )
    parser.add_argument(
        volumes_flag, dest="filter_volumes", type=_id_list, default=None, metavar="IDS",
        help="comma-separated volume ids to keep (others are skipped "
        "without being read on a warm store)",
    )


def _finite_seconds(text: str) -> float:
    """argparse type of ``--since`` / ``--until``: finite seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of ``--block-size``: a whole number of bytes above 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _split_ids(text: str) -> Tuple[str, ...]:
    return tuple(v for v in (part.strip() for part in text.split(",")) if v)


def _id_list(text: str) -> str:
    """argparse type of the volume-id filter: at least one id.

    Keeps the text as typed, so the run's config digest records the flag
    verbatim; :func:`_engine_kwargs` splits it.
    """
    if not _split_ids(text):
        raise argparse.ArgumentTypeError(f"no volume ids in {text!r}")
    return text


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The flight-recorder knobs (see repro.obs.timeline / .ledger)."""
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event timeline of this run (per-worker "
        "lanes; open at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger location (default: $REPRO_LEDGER_DIR or .repro/runs)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run's record to the run ledger",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The shared execution-engine knobs (see repro.engine / repro.obs)."""
    _add_store_flags(parser)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for per-file/per-volume fan-out (default: 1, sequential)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help=f"trace rows parsed per columnar batch (default: {DEFAULT_CHUNK_SIZE})",
    )
    parser.add_argument(
        "--split-rows", type=int, default=0, metavar="N",
        help="split files expected to exceed N rows into range sub-units "
        "(store row ranges warm, line-aligned byte ranges cold) so one "
        "giant file cannot serialize the fan-out (default: 0, off)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSON metrics report of this run (enables span tracing)",
    )
    _add_obs_flags(parser)
    parser.add_argument(
        "--progress", action="store_true",
        help="log per-unit completion on stderr as workers finish",
    )
    parser.add_argument(
        "--on-error", choices=ON_ERROR_CHOICES, default=ON_ERROR_STRICT,
        help="malformed-record policy: strict aborts, skip drops+counts, "
        "quarantine drops+counts+samples (default: strict)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="re-execute a failed unit up to N times with capped "
        "deterministic backoff (default: 0)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="fail a pooled unit running longer than this (retried if "
        "budget remains; needs --workers > 1)",
    )
    parser.add_argument(
        "--quarantine-out", default=None, metavar="PATH",
        help="write sampled quarantined lines as JSONL "
        "(with --on-error quarantine)",
    )
    parser.add_argument(
        "--errors-out", default=None, metavar="PATH",
        help="write the run's fault ledger (failed units, dropped lines, "
        "retries) as JSON",
    )
    parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="activate a deterministic fault-injection plan (JSON file, "
        "see repro.faults) for chaos drills",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Workload characterization toolkit for cloud block storage traces",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="info",
        help="stderr log verbosity (default: info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log lines instead of plain text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic fleet as trace files")
    gen.add_argument("output_dir", help="directory to write per-volume CSV files")
    gen.add_argument("--fleet", choices=["alicloud", "msrc"], default="alicloud")
    gen.add_argument("--volumes", type=int, default=None, help="number of volumes")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--days", type=int, default=None, help="trace days")
    gen.add_argument("--day-seconds", type=float, default=240.0, help="seconds per compressed day")
    gen.add_argument("--compress", action="store_true", help="gzip the trace files")

    ing = sub.add_parser(
        "ingest",
        help="parse trace files once into the mmap columnar store "
        "(later runs with --store skip text parsing entirely)",
    )
    ing.add_argument("trace_dir", help="directory of .csv/.csv.gz trace files")
    ing.add_argument("--format", choices=["alicloud", "msrc"], default="alicloud")
    ing.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="store location (default: .repro-store next to the trace files)",
    )
    ing.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for per-file fan-out (default: 1)",
    )
    ing.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help=f"trace rows parsed per columnar batch (default: {DEFAULT_CHUNK_SIZE})",
    )
    ing.add_argument(
        "--on-error", choices=ON_ERROR_CHOICES, default="quarantine",
        help="malformed-record policy recorded in the entry's fault ledger "
        "(default: quarantine)",
    )
    ing.add_argument(
        "--force", action="store_true",
        help="rebuild entries even when they are fresh",
    )
    ing.add_argument(
        "--output", default="-", help="ingest report JSON path ('-' for stdout)"
    )
    ing.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSON metrics report of this run (enables span tracing)",
    )
    _add_obs_flags(ing)
    ing.add_argument(
        "--progress", action="store_true",
        help="log per-file completion on stderr as workers finish",
    )
    ing.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="activate a deterministic fault-injection plan (JSON file, "
        "see repro.faults) for chaos drills such as crash-mid-ingest",
    )

    ana = sub.add_parser("analyze", help="per-volume profiles of a trace directory")
    ana.add_argument("trace_dir", help="directory of .csv/.csv.gz trace files")
    ana.add_argument("--format", choices=["alicloud", "msrc"], default="alicloud")
    ana.add_argument("--block-size", type=_positive_int, default=4096)
    ana.add_argument("--output", default="-", help="output JSON path ('-' for stdout)")
    _add_engine_flags(ana)
    _add_filter_flags(ana)

    rep = sub.add_parser("report", help="fleet-level summary of a trace directory")
    rep.add_argument("trace_dir")
    rep.add_argument("--format", choices=["alicloud", "msrc"], default="alicloud")
    rep.add_argument("--block-size", type=_positive_int, default=4096)
    _add_engine_flags(rep)
    _add_filter_flags(rep)

    fnd = sub.add_parser("findings", help="evaluate the paper's 15 findings on synthetic fleets")
    fnd.add_argument("--volumes", type=int, default=60, help="AliCloud-side volumes")
    fnd.add_argument("--seed", type=int, default=0)
    fnd.add_argument("--day-seconds", type=float, default=240.0)
    fnd.add_argument(
        "--ali-dir", default=None,
        help="evaluate an AliCloud-format trace directory instead of a synthetic fleet",
    )
    fnd.add_argument(
        "--msrc-dir", default=None,
        help="evaluate an MSRC-format trace directory instead of a synthetic fleet",
    )
    fnd.add_argument(
        "--verbose", action="store_true", help="print the measured evidence per finding"
    )
    _add_engine_flags(fnd)
    # --volumes already means "synthetic fleet size" here.
    _add_filter_flags(fnd, volumes_flag="--only-volumes")

    exp = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures on synthetic fleets"
    )
    exp.add_argument("--volumes", type=int, default=40, help="AliCloud-side volumes")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--day-seconds", type=float, default=120.0)
    exp.add_argument(
        "--only", nargs="*", default=None,
        help="substring filters on experiment ids (e.g. 'Table I' 'Figure 18')",
    )

    stream = sub.add_parser(
        "stream-analyze",
        help="one-pass bounded-memory profiling of a trace directory "
        "(for traces too large to load)",
    )
    stream.add_argument("trace_dir")
    stream.add_argument("--format", choices=["alicloud", "msrc"], default="alicloud")
    stream.add_argument("--block-size", type=_positive_int, default=4096)
    stream.add_argument("--output", default="-", help="output JSON path ('-' for stdout)")
    _add_engine_flags(stream)
    _add_filter_flags(stream)
    stream.add_argument(
        "--checkpoint", action="store_true",
        help="persist each completed file's merged analyzer state under "
        ".repro/checkpoints/<config-digest>/ so a killed run can --resume",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted checkpointed run: completed files are "
        "folded from disk, only the missing ones execute (implies "
        "--checkpoint; refused when the config digest differs)",
    )
    stream.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint root (default: .repro/checkpoints)",
    )

    val = sub.add_parser(
        "validate",
        help="preflight a trace directory: parse checks (malformed lines "
        "become findings, not crashes) plus per-volume content checks",
    )
    val.add_argument("trace_dir")
    val.add_argument("--format", choices=["alicloud", "msrc"], default="alicloud")
    val.add_argument(
        "--check-alignment", action="store_true",
        help="also flag offsets/sizes not aligned to 512-byte sectors",
    )
    val.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for per-file fan-out (default: 1)",
    )
    val.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help=f"trace rows parsed per columnar batch (default: {DEFAULT_CHUNK_SIZE})",
    )
    val.add_argument(
        "--progress", action="store_true",
        help="log per-unit completion on stderr as workers finish",
    )
    _add_store_flags(val)

    store_cmd = sub.add_parser(
        "store",
        help="trace-store maintenance: scrub entries for corruption",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    sv = store_sub.add_parser(
        "verify",
        help="scrub every store entry: segment presence and sizes always, "
        "full sha256 re-hash with --deep; exit 1 when anything is corrupt",
    )
    sv.add_argument("trace_dir", help="directory of trace files the store mirrors")
    sv.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=f"store location (default: {DEFAULT_STORE_DIRNAME} inside the "
        "trace directory)",
    )
    sv.add_argument(
        "--deep", action="store_true",
        help="re-hash every segment (sha256) instead of checking presence "
        "and byte sizes only — the only pass that catches a "
        "size-preserving bit flip",
    )
    sv.add_argument(
        "--output", default="-", help="scrub report JSON path ('-' for stdout)"
    )

    lint = sub.add_parser("lint", help=LINT_DESCRIPTION, description=LINT_DESCRIPTION)
    build_lint_parser(lint)

    from .obs.runs import build_runs_parser

    runs = sub.add_parser(
        "runs",
        help="query the persistent run ledger: list, show, diff, and "
        "threshold-check records against committed baselines",
    )
    build_runs_parser(runs)
    return parser


def _generate(args: argparse.Namespace) -> int:
    from .synth import alicloud_scale, make_alicloud_fleet, make_msrc_fleet, msrc_scale
    from .trace.writer import write_dataset_dir

    if args.fleet == "alicloud":
        scale = alicloud_scale(n_days=args.days or 31, day_seconds=args.day_seconds)
        dataset = make_alicloud_fleet(
            n_volumes=args.volumes or 100, seed=args.seed, scale=scale
        )
        fmt = "alicloud"
    else:
        scale = msrc_scale(n_days=args.days or 7, day_seconds=args.day_seconds)
        dataset = make_msrc_fleet(n_volumes=args.volumes or 36, seed=args.seed, scale=scale)
        fmt = "msrc"
    write_dataset_dir(dataset, args.output_dir, fmt=fmt, compress=args.compress)
    _log.info(
        "fleet_written",
        volumes=dataset.n_volumes,
        requests=dataset.n_requests,
        path=args.output_dir,
    )
    return 0


def _json_safe(value):
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return _json_safe(value.item())
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _profile_volume(trace, block_size: int):
    """Module-level so :func:`repro.engine.runner.parallel_map` can pickle it."""
    from .core.volume_profile import compute_profile

    metrics.counter("analyze.requests").inc(len(trace))
    return compute_profile(trace, block_size=block_size).to_dict()


def _progress_callback(args: argparse.Namespace, stage: str) -> Optional[Callable[[int, int], None]]:
    """A per-unit completion logger for ``--progress``, else None."""
    if not getattr(args, "progress", False):
        return None
    log = get_logger("repro.progress")

    def callback(done: int, total: int) -> None:
        log.info("units_done", stage=stage, done=done, total=total)

    return callback


def _engine_kwargs(args: argparse.Namespace, build: bool = True) -> Dict[str, Any]:
    """The engine kwargs every data-reading command takes from its flags.

    ``--store-dir`` or ``--verify-store`` alone imply the store is on; an
    explicit ``--no-store`` always wins, and ``build=False`` reuses fresh
    entries without building new ones.  The filter flags become one
    :class:`RowPredicate` (None when unset).
    """
    enabled = getattr(args, "store", None)
    store_dir = getattr(args, "store_dir", None)
    verify = bool(getattr(args, "verify_store", False))
    if enabled is None:
        enabled = store_dir is not None or verify
    since = getattr(args, "since", None)
    until = getattr(args, "until", None)
    raw_volumes = getattr(args, "filter_volumes", None)
    volumes = _split_ids(raw_volumes) if raw_volumes is not None else None
    max_retries = getattr(args, "max_retries", 0)
    return {
        "chunk_size": args.chunk_size,
        "workers": args.workers,
        "store": StoreConfig(dir=store_dir, build=build, verify=verify) if enabled else None,
        "predicate": None
        if since is None and until is None and volumes is None
        else RowPredicate(since=since, until=until, volumes=volumes),
        "on_error": getattr(args, "on_error", ON_ERROR_STRICT),
        "retry": RetryPolicy(max_retries=max_retries) if max_retries > 0 else None,
        "unit_timeout": getattr(args, "unit_timeout", None),
        "split_rows": getattr(args, "split_rows", 0),
    }


def _activate_faults(args: argparse.Namespace) -> None:
    """Activate ``--faults`` (here and, via the env var, in pool workers)."""
    plan_path = getattr(args, "faults", None)
    if not plan_path:
        return
    faults.activate(faults.load_plan(plan_path))
    os.environ[faults.ENV_VAR] = plan_path
    _log.info("faults_active", plan=plan_path)


def _emit_error_reports(args: argparse.Namespace, errors: RunErrors) -> None:
    """Write ``--errors-out`` / ``--quarantine-out`` and log degradation."""
    errors_out = getattr(args, "errors_out", None)
    if errors_out:
        payload = json.dumps(_json_safe(errors.to_dict()), indent=2, sort_keys=True)
        with open(errors_out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        _log.info("errors_written", path=errors_out)
    quarantine_out = getattr(args, "quarantine_out", None)
    if quarantine_out:
        write_quarantine_jsonl(quarantine_out, errors.quarantine_sample)
        _log.info(
            "quarantine_written",
            path=quarantine_out,
            records=len(errors.quarantine_sample),
        )
    if not errors.ok:
        _log.warning(
            "run_degraded",
            policy=errors.policy,
            failed_units=len(errors.failed_units),
            dropped_lines=errors.dropped_lines,
            retries=errors.retries,
            timeouts=errors.timeouts,
            pool_breaks=errors.pool_breaks,
        )


def _ingest(args: argparse.Namespace) -> int:
    from .store import ingest_dir

    reports = ingest_dir(
        args.trace_dir,
        fmt=args.format,
        store_dir=args.store_dir,
        chunk_size=args.chunk_size,
        workers=args.workers,
        on_error=args.on_error,
        force=args.force,
        progress=_progress_callback(args, "ingest"),
    )
    built = sum(r.built for r in reports)
    payload = json.dumps(
        {
            "directory": args.trace_dir,
            "files": len(reports),
            "built": built,
            "reused": len(reports) - built,
            "rows": sum(r.n_rows for r in reports),
            "dropped_lines": sum(r.dropped for r in reports),
            "entries": [r.to_dict() for r in reports],
        },
        indent=2,
    )
    if args.output == "-":
        print(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    _log.info(
        "ingest_done", files=len(reports), built=built,
        reused=len(reports) - built,
    )
    return 0


def _analyze(args: argparse.Namespace) -> int:
    engine = _engine_kwargs(args)
    errors = RunErrors(policy=engine["on_error"])
    dataset = read_dataset_dir_chunked(
        args.trace_dir, fmt=args.format, progress=_progress_callback(args, "parse"),
        errors=errors, **engine,
    )
    volumes = dataset.volumes()
    # Big volumes profile first (LPT) so the fleet's straggler volume
    # cannot land on the last pool slot.
    volume_costs = [float(len(v)) for v in volumes]
    pool = {
        "progress": _progress_callback(args, "profile"),
        "retry": engine["retry"],
        "unit_timeout": engine["unit_timeout"],
        "priorities": volume_costs,
        "block_size": args.block_size,
    }
    if engine["on_error"] == ON_ERROR_STRICT:
        raw = parallel_map(_profile_volume, volumes, args.workers, **pool)
    else:
        maybe, errors = resilient_map(
            _profile_volume, volumes, args.workers, errors=errors, **pool
        )
        raw = [p for p in maybe if p is not None]
    profiles = [_json_safe(d) for d in raw]
    payload = json.dumps({"dataset": dataset.name, "profiles": profiles}, indent=2)
    _emit_error_reports(args, errors)
    if args.output == "-":
        print(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        _log.info("profiles_written", count=len(profiles), path=args.output)
    return 0


def _report(args: argparse.Namespace) -> int:
    from .core.aggregate import basic_statistics
    from .core.report import format_table

    engine = _engine_kwargs(args)
    errors = RunErrors(policy=engine["on_error"])
    dataset = read_dataset_dir_chunked(
        args.trace_dir, fmt=args.format, progress=_progress_callback(args, "parse"),
        errors=errors, **engine,
    )
    _emit_error_reports(args, errors)
    stats = basic_statistics(dataset, block_size=args.block_size, workers=args.workers)
    rows = [
        ["Number of volumes", stats.n_volumes],
        ["Duration (days)", stats.duration_days],
        ["# of reads (M)", stats.n_reads_millions],
        ["# of writes (M)", stats.n_writes_millions],
        ["Read traffic (TiB)", stats.read_traffic_tib],
        ["Write traffic (TiB)", stats.write_traffic_tib],
        ["Update traffic (TiB)", stats.update_traffic_tib],
        ["Total WSS (TiB)", stats.wss_total_tib],
        ["Read WSS (TiB)", stats.wss_read_tib],
        ["Write WSS (TiB)", stats.wss_write_tib],
        ["Update WSS (TiB)", stats.wss_update_tib],
    ]
    print(format_table(["statistic", dataset.name], rows, title="Basic statistics"))
    return 0


def _findings(args: argparse.Namespace) -> int:
    from .core.findings import _compare, _side

    # Scale.peak_interval and Scale.activity_interval, without importing
    # the generator when both fleets are read from disk.
    windows = (args.day_seconds / 1440.0, args.day_seconds / 144.0)
    engine = _engine_kwargs(args)
    errors = RunErrors(policy=engine["on_error"])

    def fleet(fmt: str, directory: Optional[str], stage: str) -> "TraceDataset":
        if directory is not None:
            return read_dataset_dir_chunked(
                directory, fmt=fmt, progress=_progress_callback(args, stage), errors=errors,
                **engine,
            )
        from .synth import alicloud_scale, make_alicloud_fleet, make_msrc_fleet, msrc_scale

        if fmt == "alicloud":
            scale = alicloud_scale(day_seconds=args.day_seconds)
            return make_alicloud_fleet(n_volumes=args.volumes, seed=args.seed, scale=scale)
        scale = msrc_scale(day_seconds=args.day_seconds)
        return make_msrc_fleet(n_volumes=36, seed=args.seed + 1, scale=scale)

    # One fleet at a time: the AliCloud side is read and reduced, each
    # trace freed once profiled, before the MSRC side is read.
    ali_side = _side(fleet("alicloud", args.ali_dir, "parse-ali"), 4096, *windows, release=True)
    msrc = fleet("msrc", args.msrc_dir, "parse-msrc")
    _emit_error_reports(args, errors)
    findings = _compare(ali_side, _side(msrc, 4096, *windows, release=True))
    for finding in findings:
        print(finding)
        if args.verbose:
            for key, value in finding.evidence.items():
                print(f"    {key}: {value}")
    held = sum(f.holds for f in findings)
    print(f"\n{held} of {len(findings)} findings hold")
    return 0 if held == len(findings) else 1


def _experiments(args: argparse.Namespace) -> int:
    from .core.experiments import render_experiments, select_experiments
    from .synth import alicloud_scale, make_alicloud_fleet, make_msrc_fleet, msrc_scale

    try:
        select_experiments(args.only)
    except ValueError as exc:
        print(f"repro experiments: error: --only: {exc}", file=sys.stderr)
        return 2
    scale_a = alicloud_scale(day_seconds=args.day_seconds)
    scale_m = msrc_scale(day_seconds=args.day_seconds)
    ali = make_alicloud_fleet(n_volumes=args.volumes, seed=args.seed, scale=scale_a)
    msrc = make_msrc_fleet(n_volumes=36, seed=args.seed + 1, scale=scale_m)
    print(
        render_experiments(
            ali,
            msrc,
            day_seconds=args.day_seconds,
            n_days_ali=scale_a.n_days,
            n_days_msrc=scale_m.n_days,
            only=args.only,
        )
    )
    return 0


#: args that never change a run's *results*, so they must not change the
#: checkpoint digest — otherwise resuming with ``--workers 4`` (or after
#: turning a fault plan off) would be refused for no reason.
#: ``split_rows`` does NOT qualify — it changes the unit list (and the
#: merge tree of capacity-bounded sketches), so it stays in the digest
#: and a resume must use the same value.
_CHECKPOINT_IRRELEVANT_ARGS = frozenset(
    {
        "workers",
        "checkpoint",
        "resume",
        "checkpoint_dir",
        "faults",
        "max_retries",
        "unit_timeout",
        "store",
        "store_dir",
        "verify_store",
    }
)


def _checkpoint_config(args: argparse.Namespace) -> Optional[CheckpointConfig]:
    """``--checkpoint``/``--resume`` as a CheckpointConfig (or None).

    The digest covers exactly the result-affecting configuration: the
    run-plumbing args the ledger already ignores plus everything in
    :data:`_CHECKPOINT_IRRELEVANT_ARGS` are excluded, and dataset paths
    are normalized to absolute so the same analysis launched from a
    different working directory still finds its checkpoint.
    """
    if not (getattr(args, "checkpoint", False) or getattr(args, "resume", False)):
        return None
    from .obs import ledger
    from .resilience.checkpoint import DEFAULT_CHECKPOINT_DIR, CheckpointConfig

    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _NON_CONFIG_ARGS and key not in _CHECKPOINT_IRRELEVANT_ARGS
    }
    for key in ("trace_dir", "ali_dir", "msrc_dir"):
        if config.get(key):
            config[key] = os.path.abspath(config[key])
    return CheckpointConfig(
        digest=ledger.config_digest(config),
        dir=getattr(args, "checkpoint_dir", None) or DEFAULT_CHECKPOINT_DIR,
        resume=bool(getattr(args, "resume", False)),
    )


def _stream_analyze(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .engine import StreamingProfileAnalyzer, run_files
    from .engine.chunks import list_trace_files

    files = list_trace_files(args.trace_dir)
    checkpoint = _checkpoint_config(args)
    # Checkpointed runs turn the first SIGINT/SIGTERM into a clean
    # RunInterrupted unwind (main() maps it to exit 128+signum after the
    # ledger record is flushed); un-checkpointed runs keep default
    # signal behavior.
    if checkpoint is not None:
        from .resilience.checkpoint import graceful_interrupts

        guard = graceful_interrupts()
    else:
        guard = nullcontext()
    with guard:
        result = run_files(
            files,
            [StreamingProfileAnalyzer(block_size=args.block_size)],
            fmt=args.format,
            progress=_progress_callback(args, "fold"),
            checkpoint=checkpoint,
            **_engine_kwargs(args),
        )
    _emit_error_reports(args, result.errors)
    profiles = result.analyzer("streaming_profile")
    payload = json.dumps(
        {
            "dataset": os.path.basename(os.path.normpath(args.trace_dir)),
            "profiles": {
                vid: _json_safe(
                    {
                        "n_requests": p.n_requests,
                        "n_reads": p.n_reads,
                        "n_writes": p.n_writes,
                        "read_bytes": p.read_bytes,
                        "write_bytes": p.write_bytes,
                        "duration_seconds": p.duration,
                        "average_intensity": p.average_intensity,
                        "write_read_ratio": p.write_read_ratio,
                        "wss_total_bytes": p.wss_total_bytes,
                        "wss_read_bytes": p.wss_read_bytes,
                        "wss_write_bytes": p.wss_write_bytes,
                        "size_percentiles": p.size_percentiles,
                        "interarrival_percentiles": p.interarrival_percentiles,
                    }
                )
                for vid, p in profiles.items()
            },
        },
        indent=2,
    )
    if args.output == "-":
        print(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        _log.info("streaming_profiles_written", count=len(profiles), path=args.output)
    return 0


def _validate(args: argparse.Namespace) -> int:
    from .trace.validation import validate_trace_dir

    report = validate_trace_dir(
        args.trace_dir,
        fmt=args.format,
        check_alignment=args.check_alignment,
        chunk_size=args.chunk_size,
        workers=args.workers,
        progress=_progress_callback(args, "validate"),
        # Preflight reuses fresh entries but never builds new ones.
        store=_engine_kwargs(args, build=False)["store"],
    )
    if report.ok:
        print("OK: no issues found")
        return 0
    for issue in report.issues:
        print(issue)
    print(f"\n{len(report.issues)} issue(s) found")
    return 1


def _store(args: argparse.Namespace) -> int:
    """``repro store verify``: scrub a trace store, exit 1 on corruption."""
    from .store import scrub_store

    store_dir = args.store_dir or os.path.join(args.trace_dir, DEFAULT_STORE_DIRNAME)
    report = scrub_store(store_dir, deep=args.deep)
    payload = json.dumps(_json_safe(report.to_dict()), indent=2, sort_keys=True)
    if args.output == "-":
        print(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        _log.info("scrub_report_written", path=args.output)
    if report.ok:
        _log.info(
            "store_verified",
            store_dir=store_dir,
            deep=args.deep,
            entries=len(report.entries),
        )
        return 0
    _log.warning(
        "store_corrupt",
        store_dir=store_dir,
        corrupt=len(report.corrupt),
        unreadable=len(report.unreadable),
    )
    return 1


def _write_metrics(path: str, registry) -> None:
    payload = json.dumps(_json_safe(metrics_report(registry)), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    _log.info("metrics_written", path=path)


def _lint(args: argparse.Namespace) -> int:
    from .checks.cli import run_lint

    return run_lint(args)


def _runs(args: argparse.Namespace) -> int:
    from .obs.runs import run_runs

    return run_runs(args)


#: Subcommands whose runs land in the persistent ledger by default.
_LEDGER_COMMANDS = frozenset({"analyze", "report", "findings", "stream-analyze", "ingest"})


def _dataset_identity(args: argparse.Namespace) -> Dict[str, Any]:
    """What the run analyzed, as stable absolute paths (or fleet params)."""
    identity: Dict[str, Any] = {}
    for key in ("trace_dir", "ali_dir", "msrc_dir"):
        value = getattr(args, key, None)
        if value:
            identity[key] = os.path.abspath(value)
    fmt = getattr(args, "format", None)
    if fmt:
        identity["format"] = fmt
    return identity


#: args entries that are run plumbing, not configuration worth digesting.
_NON_CONFIG_ARGS = frozenset(
    {
        "command",
        "log_level",
        "log_json",
        "output",
        "metrics_out",
        "trace_out",
        "errors_out",
        "quarantine_out",
        "ledger_dir",
        "no_ledger",
        "progress",
    }
)


def _append_run_record(
    args: argparse.Namespace,
    registry: metrics.MetricsRegistry,
    wall: float,
    cpu: float,
    startup_cpu: float,
    exit_code: Optional[int],
) -> None:
    """Build this run's ledger record and append it (never fails the run)."""
    from .obs import ledger

    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _NON_CONFIG_ARGS
    }
    record = ledger.build_record(
        kind=f"cli.{args.command}",
        config=config,
        dataset=_dataset_identity(args),
        registry=registry,
        wall_seconds=wall,
        cpu_seconds=cpu,
        startup_cpu_seconds=startup_cpu,
        exit_code=exit_code,
    )
    path = ledger.try_append_record(record, getattr(args, "ledger_dir", None))
    if path is not None:
        _log.info("run_recorded", run_id=record["run_id"], path=path)


def _invoke(handler: Callable[[argparse.Namespace], int], args: argparse.Namespace) -> int:
    """Run a handler, mapping durable-run control flow to exit codes.

    A refused resume (changed config, missing checkpoint) is an operator
    error: exit 2.  A graceful interrupt exits ``128 + signum`` exactly
    like the default handler would have, but only *after* the caller's
    ``finally`` blocks flush the metrics/ledger record — the checkpoints
    written so far are already durable, so the warning points at
    ``--resume``.
    """
    try:
        return handler(args)
    except BaseException as exc:
        # Only a checkpointed run raises these, and it has already loaded
        # the module that defines them.
        from .resilience.checkpoint import CheckpointError, RunInterrupted

        if isinstance(exc, CheckpointError):
            _log.error("resume_refused", error=str(exc))
            return 2
        if isinstance(exc, RunInterrupted):
            _log.warning(
                "run_interrupted",
                signal=exc.signame,
                hint="completed units are checkpointed; re-run with --resume",
            )
            return 128 + exc.signum
        raise


def main(argv: Optional[List[str]] = None) -> int:
    # CPU the process spent before this point: interpreter start-up and
    # imports, which the run's own wall/CPU timings below do not cover.
    startup_cpu = process_time()
    parser = build_parser()
    args = parser.parse_args(argv)
    since, until = getattr(args, "since", None), getattr(args, "until", None)
    if since is not None and until is not None and since >= until:
        parser.error(f"--since ({since:g}) must be less than --until ({until:g})")
    configure_logging(level=args.log_level, json_lines=args.log_json)
    handlers = {
        "generate": _generate,
        "ingest": _ingest,
        "analyze": _analyze,
        "report": _report,
        "findings": _findings,
        "experiments": _experiments,
        "stream-analyze": _stream_analyze,
        "validate": _validate,
        "store": _store,
        "lint": _lint,
        "runs": _runs,
    }
    handler = handlers[args.command]
    _activate_faults(args)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    use_ledger = args.command in _LEDGER_COMMANDS and not getattr(args, "no_ledger", False)
    if metrics_out is None and trace_out is None and not use_ledger:
        return _invoke(handler, args)
    # A fresh per-run registry and timeline buffer (so repeated runs in
    # one process don't mix), span tracing on whenever anything consumes
    # it (a metrics report, a trace export, or the run ledger's span
    # stats), everything written out even when the command fails.
    # None of this touches command output: on/off is byte-identical.
    want_spans = (
        metrics_out is not None or trace_out is not None
        or use_ledger or tracing_enabled()
    )
    want_timeline = trace_out is not None or timeline.enabled()
    rc: Optional[int] = None
    start, cpu_start = perf_counter(), process_time()
    with collecting() as registry, timeline.collecting() as events, \
            traced(want_spans), timeline.recording(want_timeline):
        try:
            rc = _invoke(handler, args)
        finally:
            wall, cpu = perf_counter() - start, process_time() - cpu_start
            if metrics_out:
                _write_metrics(metrics_out, registry)
            if trace_out:
                timeline.write_chrome_trace(trace_out, events.events)
                _log.info("trace_written", path=trace_out, events=len(events.events))
            if use_ledger:
                _append_run_record(args, registry, wall, cpu, startup_cpu, rc)
    return rc if rc is not None else 1


if __name__ == "__main__":
    sys.exit(main())
