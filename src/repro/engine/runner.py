"""One-pass execution engine: many analyzers, one scan, many cores.

:func:`run` drives a set of :class:`~repro.engine.analyzer.Analyzer` folds
over a trace source in a single pass per volume:

* **directory / file list** — each file is one unit of work; a worker
  parses it in columnar chunks (:func:`repro.engine.chunks.iter_chunks`)
  and folds every analyzer as chunks stream through, so the text is read
  exactly once no matter how many analyses run.
* **in-memory dataset** — each volume is one unit of work; its columnar
  arrays are sliced into chunks and folded the same way.

With ``workers > 1`` and more than one unit pending, units fan out
across a process pool (:func:`repro.engine.backends.run_pool`); partial
per-volume states come back and are merged **in canonical unit order**
(never completion or dispatch order), so results are bit-identical
across worker counts.  Otherwise units run in the caller's process
(:func:`repro.engine.backends.run_inprocess`) with no pool or pickling
overhead.

Scheduling: when units carry cost estimates (``priorities``), pooled
units are *dispatched* longest-processing-time-first so a straggler unit
starts first instead of last; with ``split_rows > 0``,
:func:`run_files` additionally splits big files into range sub-units
(:mod:`repro.engine.units`) so no single file can serialize the run.
Dispatch order is pure scheduling — the merge order never follows it.

Every fan-out is observable (:mod:`repro.obs`) and fault-tolerant
(:mod:`repro.resilience`):

* each worker unit runs inside its own metrics registry and ships a
  snapshot back alongside its result; snapshots merge into the caller's
  registry in submission order, so counter totals are identical at any
  worker count.  Per-unit wall times land in ``engine.unit_seconds``, and
  each fan-out sets ``engine.wall_seconds`` / ``engine.utilization``.
  With timeline recording on (:mod:`repro.obs.timeline`, the CLI's
  ``--trace-out``) every unit also records a timestamped ``unit`` event
  on its worker's lane, shipped back and merged in the same submission
  order, so per-worker timelines and straggler gaps are reconstructable.
* a unit that raises is retried up to ``retry.max_retries`` times with
  capped deterministic backoff (``engine.retries``); a unit that exhausts
  its budget is a :class:`~repro.resilience.UnitFailure`
  (``engine.units_failed``) — raised under the ``strict`` error policy,
  recorded in ``EngineResult.errors`` and skipped from the merge under
  ``skip`` / ``quarantine``.
* a dead worker process (``BrokenProcessPool``) is recovered by
  re-executing every interrupted unit in-process (``engine.pool_breaks``);
  each interrupted unit gets one replacement attempt free of the retry
  budget.  A fatal error never leaks a pool: outstanding futures are
  cancelled (``shutdown(cancel_futures=True)``) before the error
  propagates.
* with ``unit_timeout`` set, a pooled unit running past its deadline is
  failed (``engine.unit_timeouts``) and retried if budget remains; the
  stuck worker is abandoned and its process terminated at shutdown.
  Timeouts apply to pooled execution only (an in-process unit cannot be
  preempted) and depend on machine speed, so they sit outside the
  bit-identical-results guarantee.

A ``progress(done, total)`` callback reports units as they reach a
*terminal* state (success or permanent failure) — retried attempts do not
re-count, so ``done`` is monotonic and ends at ``total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from .. import faults
from ..obs import metrics, timeline
from ..obs.tracing import span
from ..resilience import (
    ON_ERROR_STRICT,
    ParseErrors,
    RetryPolicy,
    RunErrors,
    unit_label,
    validate_on_error,
)
from ..trace.dataset import TraceDataset, VolumeTrace
from .analyzer import Analyzer
from .backends import MapState, UnitOut, run_inprocess, run_pool
from .chunks import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    apply_plan,
    chunks_from_trace,
    list_trace_files,
)
from .plan import QueryPlan, RowPredicate, plan_for
from .units import WorkUnit, checkpoint_key, file_cost, plan_units, unit_chunks

if TYPE_CHECKING:  # runtime import is lazy: repro.store imports the engine
    from ..resilience import CheckpointConfig, Checkpointer
    from ..store import StoreConfig

__all__ = [
    "EngineResult",
    "run",
    "run_files",
    "run_dataset",
    "parallel_map",
    "resilient_map",
]

T = TypeVar("T")
R = TypeVar("R")

#: analyzer index -> volume id -> accumulated state
_StateMap = Dict[int, Dict[str, Any]]


def _record_fanout(reg: metrics.MetricsRegistry, busy: float, wall: float, workers: int) -> None:
    reg.counter("engine.fanouts").inc()
    reg.gauge("engine.wall_seconds").set(wall)
    if wall > 0 and workers > 0:
        reg.gauge("engine.utilization").set(busy / (workers * wall))


def _map_core(
    fn: Callable[..., Any],
    items: Iterable[Any],
    workers: int,
    progress: Optional[Callable[[int, int], None]],
    retry: Optional[RetryPolicy],
    unit_timeout: Optional[float],
    fail_fast: bool,
    errors: RunErrors,
    kwargs: Dict[str, Any],
    checkpoint: Optional[Checkpointer] = None,
    priorities: Optional[Sequence[float]] = None,
) -> List[Optional[Any]]:
    """Shared execution core of :func:`parallel_map` / :func:`resilient_map`.

    With ``checkpoint`` set, each completed unit's ``(value, snapshot)``
    is persisted as it finishes and previously persisted units are
    preloaded instead of re-executed.  Results and merged metrics stay
    bit-identical: ``outs`` keeps submission order regardless of which
    units ran live, and resumed snapshots merge exactly like shipped-back
    worker snapshots.

    Pending units run on a ``workers``-wide process pool when
    ``workers > 1`` and more than one is pending, in-process otherwise.
    With ``priorities`` set (one cost estimate per item), the pool
    *dispatches* pending units longest-processing-time-first — a pure
    scheduling decision: ``outs`` indexing, checkpoints, progress, and
    the merge all keep canonical item order, and in-process execution
    runs in canonical order outright.
    """
    bound = partial(fn, **kwargs) if kwargs else fn
    items = list(items)
    n = len(items)
    if n == 0:
        return []
    reg = metrics.get_registry()
    start = perf_counter()
    outs: List[Optional[UnitOut]] = [None] * n
    labels = [unit_label(item) for item in items]
    done = 0

    def note_done(i: int) -> None:
        nonlocal done
        done += 1
        if checkpoint is not None and outs[i] is not None:
            checkpoint.save(i, outs[i][0], outs[i][1])
        if progress is not None:
            progress(done, n)
        faults.inject_parent_fault(done)

    pending = list(range(n))
    if checkpoint is not None:
        resumed = checkpoint.begin()
        for i in sorted(resumed):
            value, snap = resumed[i]
            outs[i] = (value, snap, None)
            note_done(i)
        pending = [i for i in range(n) if i not in resumed]

    state = MapState(
        bound=bound,
        items=items,
        labels=labels,
        attempts=[0] * n,
        allowance=[retry.max_attempts if retry is not None else 1] * n,
        retry=retry,
        unit_timeout=unit_timeout,
        errors=errors,
        outs=outs,
        fail_fast=fail_fast,
        reg=reg,
        note_done=note_done,
        pending=pending,
        workers=workers,
        capture=checkpoint is not None,
        priorities=priorities,
    )
    pooled = workers > 1 and len(pending) > 1
    busy = run_pool(state) if pooled else run_inprocess(state, pending)
    results: List[Optional[Any]] = []
    tl = timeline.get_timeline()
    for out in outs:
        if out is None:
            results.append(None)
            continue
        value, snap, events = out
        if snap is not None:
            busy += snap["histograms"].get("engine.unit_seconds", {}).get("sum", 0.0)
            reg.merge_snapshot(snap)
        if events and timeline.enabled():
            # Shipped-back worker events fold in submission (sorted-unit)
            # order — the merged list is deterministic for a given unit
            # order no matter which worker finished first.
            tl.extend(events)
        results.append(value)
    _record_fanout(reg, busy, perf_counter() - start, workers if pooled else 1)
    return results


def parallel_map(
    fn: Callable[..., R],
    items: Iterable[T],
    workers: int,
    progress: Optional[Callable[[int, int], None]] = None,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    priorities: Optional[Sequence[float]] = None,
    **kwargs: Any,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order; fail-fast on errors.

    ``workers <= 1`` runs sequentially in-process; otherwise items fan out
    across a process pool (``fn`` must then be picklable, i.e.
    module-level; see :mod:`repro.engine.backends`).  ``priorities`` (one
    cost estimate per item) dispatches pending units longest-first
    without affecting result order.  Keyword arguments are bound with
    :func:`functools.partial` (``progress`` / ``retry`` /
    ``unit_timeout`` / ``priorities`` are reserved names).

    Each unit's metrics are collected in the worker and merged into the
    caller's current registry in submission order — totals are identical
    at any worker count.  ``progress(done, total)`` (when given) fires as
    units reach a terminal state; ``done`` is monotonic even when units
    are retried.

    A unit exception is retried per ``retry`` (see
    :class:`~repro.resilience.RetryPolicy`); once the budget is exhausted
    the exception propagates — after cancelling every outstanding future,
    so no pool or stray worker outlives the error.  Use
    :func:`resilient_map` to capture failures instead of raising.
    """
    results = _map_core(
        fn, items, workers, progress, retry, unit_timeout, True, RunErrors(), kwargs,
        priorities=priorities,
    )
    return cast(List[R], results)


def resilient_map(
    fn: Callable[..., R],
    items: Iterable[T],
    workers: int,
    progress: Optional[Callable[[int, int], None]] = None,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    errors: Optional[RunErrors] = None,
    priorities: Optional[Sequence[float]] = None,
    **kwargs: Any,
) -> Tuple[List[Optional[R]], RunErrors]:
    """:func:`parallel_map` that captures unit failures instead of raising.

    Returns ``(results, errors)``: ``results`` preserves submission order
    with ``None`` at the index of every unit that failed permanently, and
    ``errors`` accounts for each failure, retry, timeout, and pool break
    (appended to the caller-provided ``errors`` when given).
    """
    errs = errors if errors is not None else RunErrors()
    results = _map_core(
        fn, items, workers, progress, retry, unit_timeout, False, errs, kwargs,
        priorities=priorities,
    )
    return cast(List[Optional[R]], results), errs


@dataclass
class EngineResult:
    """Results of one engine run.

    ``per_volume`` maps ``analyzer name -> {volume_id: finalized result}``.
    ``errors`` is the run's fault ledger (see
    :class:`~repro.resilience.RunErrors`); under ``on_error="strict"``
    with no retries it is always clean.
    """

    per_volume: Dict[str, Dict[str, Any]]
    n_volumes: int = 0
    n_units: int = 0
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    errors: RunErrors = field(default_factory=RunErrors)

    def analyzer(self, name: str) -> Dict[str, Any]:
        """All per-volume results of one analyzer, keyed by volume id."""
        return self.per_volume[name]

    def volume(self, volume_id: str) -> Dict[str, Any]:
        """All analyzers' results for one volume, keyed by analyzer name."""
        return {
            name: results[volume_id]
            for name, results in self.per_volume.items()
            if volume_id in results
        }

    def volume_ids(self) -> List[str]:
        ids: Set[str] = set()
        for results in self.per_volume.values():
            ids.update(results)
        return sorted(ids)


def _fold_chunks(analyzers: Sequence[Analyzer], chunks: Iterable[Chunk]) -> _StateMap:
    """Fold a chunk stream through every analyzer (shared single pass).

    ``chunks`` must already reflect the run's plan (pushed-down rows
    pruned, undeclared columns dropped).
    """
    states: _StateMap = {i: {} for i in range(len(analyzers))}
    reg = metrics.get_registry()
    requests_total = reg.counter("engine.requests")
    chunks_total = reg.counter("engine.chunks")
    span_names = [f"consume.{a.name}" for a in analyzers]
    for chunk in chunks:
        requests_total.inc(len(chunk))
        chunks_total.inc()
        vid = chunk.volume_id
        for i, analyzer in enumerate(analyzers):
            per_vol = states[i]
            state = per_vol.get(vid)
            if state is None:
                state = analyzer.init_state(vid)
            with span(span_names[i]):
                per_vol[vid] = analyzer.consume(state, chunk)
    return states


def _fold_file(
    unit: Union[str, WorkUnit],
    analyzers: Sequence[Analyzer],
    fmt: str,
    chunk_size: int,
    on_error: str = ON_ERROR_STRICT,
    store: Optional["StoreConfig"] = None,
    plan: Optional[QueryPlan] = None,
) -> Tuple[_StateMap, Optional[ParseErrors]]:
    """Worker unit: fold one trace file — or one range sub-unit of one.

    ``unit`` is either a path (whole file) or a
    :class:`~repro.engine.units.WorkUnit` (a row or byte range of one
    file, produced by :func:`~repro.engine.units.plan_units`); both yield
    the same chunk stream shape, so the fold is identical.

    Under a non-strict error policy malformed lines are dropped at parse
    time and accounted in the returned :class:`ParseErrors` (None when
    the file was clean).  With ``store`` set the chunks come from the
    worker's own store mmap when a fresh entry exists (zero parsing; the
    ledger is replayed from the entry's manifest); with ``store.verify``
    additionally set, a collector travels even under ``strict`` so
    store-integrity events (corruption, quarantine, self-heal) ship back.
    """
    verifying = store is not None and store.verify
    parse_errors = ParseErrors() if (on_error != ON_ERROR_STRICT or verifying) else None
    states = _fold_chunks(
        analyzers,
        unit_chunks(
            unit, fmt=fmt, chunk_size=chunk_size, on_error=on_error,
            errors=parse_errors, store=store, plan=plan,
        ),
    )
    if parse_errors is not None and not (parse_errors.dropped or parse_errors.store_events):
        parse_errors = None
    return states, parse_errors


def _planned_trace_chunks(
    trace: VolumeTrace, chunk_size: int, plan: Optional[QueryPlan]
) -> Iterable[Chunk]:
    for chunk in chunks_from_trace(trace, chunk_size):
        planned = apply_plan(chunk, plan)
        if planned is not None:
            yield planned


def _fold_volume(
    trace: VolumeTrace,
    analyzers: Sequence[Analyzer],
    chunk_size: int,
    plan: Optional[QueryPlan] = None,
) -> _StateMap:
    """Worker unit: fold one in-memory volume."""
    return _fold_chunks(analyzers, _planned_trace_chunks(trace, chunk_size, plan))


def _merge_states(
    analyzers: Sequence[Analyzer], partials: Iterable[_StateMap]
) -> _StateMap:
    """Merge per-unit partial states in the given (deterministic) order."""
    merged: _StateMap = {i: {} for i in range(len(analyzers))}
    start = perf_counter()
    span_names = [f"merge.{a.name}" for a in analyzers]
    for states in partials:
        for i, analyzer in enumerate(analyzers):
            into = merged[i]
            with span(span_names[i]):
                for vid, state in states[i].items():
                    prior = into.get(vid)
                    into[vid] = state if prior is None else analyzer.merge(prior, state)
    metrics.gauge("engine.merge_seconds").set(perf_counter() - start)
    return merged


def _finalize(
    analyzers: Sequence[Analyzer],
    merged: _StateMap,
    n_units: int,
    workers: int,
    chunk_size: int,
    errors: Optional[RunErrors] = None,
) -> EngineResult:
    names = [a.name for a in analyzers]
    if len(set(names)) != len(names):
        raise ValueError(f"analyzer names must be unique, got {names}")
    per_volume = {
        analyzer.name: {
            vid: analyzer.finalize(state)
            for vid, state in sorted(merged[i].items())
        }
        for i, analyzer in enumerate(analyzers)
    }
    return EngineResult(
        per_volume=per_volume,
        n_volumes=len({v for r in per_volume.values() for v in r}),
        n_units=n_units,
        workers=workers,
        chunk_size=chunk_size,
        errors=errors if errors is not None else RunErrors(),
    )


def _import_before_fork(store: Optional["StoreConfig"]) -> None:
    """Import in the parent what every forked pool worker would import
    on its own: ``numpy.random`` (reservoir draws) and, with a store, the
    store's serving modules."""
    import numpy.random  # noqa: F401

    if store is not None:
        from ..store import try_serve  # noqa: F401


def _fold_units(
    paths: Sequence[str],
    analyzers: Sequence[Analyzer],
    errors: RunErrors,
    fmt: str = "alicloud",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    on_error: str = ON_ERROR_STRICT,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    store: Optional["StoreConfig"] = None,
    predicate: Optional[RowPredicate] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    split_rows: int = 0,
) -> Tuple[_StateMap, int, Optional[Checkpointer]]:
    """The one file driver: plan units, fold each, merge in canonical order.

    Shared by :func:`run_files` and
    :func:`~repro.engine.chunks.read_dataset_dir_chunked` (which folds a
    column-collecting analyzer).  Returns the merged states — per
    analyzer, volumes in first-appearance order over canonical (file,
    range) unit order — the unit count, and the run's checkpointer (None
    without ``checkpoint``).  Unit failures, retries and dropped lines
    land in ``errors``.
    """
    on_error = validate_on_error(on_error)
    paths = list(paths)
    plan = plan_for(analyzers, predicate)
    units: List[Union[str, WorkUnit]]
    if split_rows > 0:
        units, priorities = plan_units(
            paths, fmt=fmt, chunk_size=chunk_size, split_rows=split_rows,
            store=store, on_error=on_error,
        )
    else:
        units = list(paths)
        priorities = [file_cost(p) for p in paths]
    if workers > 1 and len(units) > 1:
        _import_before_fork(store)
    checkpointer: Optional[Checkpointer] = None
    if checkpoint is not None:
        from ..resilience.checkpoint import Checkpointer

        checkpointer = Checkpointer(checkpoint, [checkpoint_key(u) for u in units])
    pairs = _map_core(
        _fold_file,
        units,
        workers,
        progress,
        retry,
        unit_timeout,
        on_error == ON_ERROR_STRICT,
        errors,
        {
            "analyzers": list(analyzers),
            "fmt": fmt,
            "chunk_size": chunk_size,
            "on_error": on_error,
            "store": store,
            "plan": plan,
        },
        checkpoint=checkpointer,
        priorities=priorities,
    )
    state_parts: List[_StateMap] = []
    for pair in pairs:
        if pair is None:
            continue
        states, parse_errors = pair
        if parse_errors is not None:
            errors.absorb_parse(parse_errors)
        state_parts.append(states)
    return _merge_states(analyzers, state_parts), len(units), checkpointer


def run_files(
    paths: Sequence[str],
    analyzers: Sequence[Analyzer],
    fmt: str = "alicloud",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    on_error: str = ON_ERROR_STRICT,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    store: Optional["StoreConfig"] = None,
    predicate: Optional[RowPredicate] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    split_rows: int = 0,
) -> EngineResult:
    """Run analyzers over trace files, one parse per file.

    Files are processed as independent units (fanned out when
    ``workers > 1``) and their per-volume partial states merged in the
    order of ``paths`` — callers must pass files in time order when a
    volume spans several files (sorted directory listings satisfy this for
    the repo's writers).  ``progress(done, total)`` fires per terminal
    unit (see :func:`parallel_map`).

    Scheduling: units always dispatch longest-estimated-first (file bytes
    cold, manifest rows warm).  With ``split_rows > 0`` a file expected
    to exceed that many rows is additionally split into range sub-units
    (:func:`~repro.engine.units.plan_units`) so one giant file cannot
    serialize the fan-out; sub-unit partials merge in ascending range
    order inside the file's canonical slot.  Exact fold results
    (counters, totals, register-max sketches) are split-invariant;
    capacity-bounded sketches (reservoirs, top-k) are deterministic for a
    *fixed* split configuration — see DESIGN.md for the contract.

    Fault tolerance: ``on_error`` governs malformed lines (see
    :mod:`repro.resilience`) and, when non-strict, also tolerates units
    that fail permanently — their files are skipped and accounted in
    ``EngineResult.errors``.  ``retry`` / ``unit_timeout`` govern
    unit-level recovery at any policy.

    With ``store`` set (see :class:`~repro.store.StoreConfig`), each
    worker serves its file from the binary trace store when a fresh entry
    exists — zero text parsing — and results stay bit-identical with the
    text path at any worker count.

    Query planning: the run's :class:`~repro.engine.plan.QueryPlan` is
    the union of the analyzers' declared ``required_columns`` plus the
    run-level ``predicate``; the
    data path then loads only planned columns and serves only matching
    rows (a warm store skips provably disjoint chunks outright).  Results
    equal the unpruned run post-filtered, at any worker count.

    Durability: with ``checkpoint`` set (see
    :class:`~repro.resilience.CheckpointConfig`), each completed unit's
    partial state is persisted atomically as it finishes; a resumed run
    (``checkpoint.resume``) preloads those states and executes only the
    missing units, producing bit-identical results at any worker count.
    The checkpoint directory is cleared on full success and kept while
    any unit failed permanently, so a later resume can retry it.
    """
    errors = RunErrors(policy=on_error)
    merged, n_units, checkpointer = _fold_units(
        paths, analyzers, errors, fmt=fmt, chunk_size=chunk_size, workers=workers,
        progress=progress, on_error=on_error, retry=retry, unit_timeout=unit_timeout,
        store=store, predicate=predicate, checkpoint=checkpoint, split_rows=split_rows,
    )
    result = _finalize(analyzers, merged, n_units, workers, chunk_size, errors)
    if checkpointer is not None and not errors.failed_units:
        checkpointer.clear()
    return result


def run_dataset(
    dataset: TraceDataset,
    analyzers: Sequence[Analyzer],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    on_error: str = ON_ERROR_STRICT,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    predicate: Optional[RowPredicate] = None,
) -> EngineResult:
    """Run analyzers over an in-memory dataset, one volume per unit.

    Record-level error policies do not apply (the dataset is already
    parsed), but a non-strict ``on_error`` still tolerates permanently
    failed units, and ``retry`` / ``unit_timeout`` govern recovery.
    ``predicate`` prunes rows like :func:`run_files` does (a volume the
    predicate excludes is not even dispatched as a unit).  Volumes
    dispatch biggest-first (row counts are exact here); the merge keeps
    sorted volume order.
    """
    on_error = validate_on_error(on_error)
    plan = plan_for(analyzers, predicate)
    volumes = [v for _, v in sorted(dataset.items()) if len(v)]
    if plan is not None and plan.predicate is not None:
        volumes = [v for v in volumes if plan.predicate.allows_volume(v.volume_id)]
    errors = RunErrors(policy=on_error)
    partials = _map_core(
        _fold_volume,
        volumes,
        workers,
        progress,
        retry,
        unit_timeout,
        on_error == ON_ERROR_STRICT,
        errors,
        {"analyzers": list(analyzers), "chunk_size": chunk_size, "plan": plan},
        priorities=[float(len(v)) for v in volumes],
    )
    state_parts = [states for states in partials if states is not None]
    merged = _merge_states(analyzers, state_parts)
    return _finalize(analyzers, merged, len(volumes), workers, chunk_size, errors)


def run(
    source: Union[str, Sequence[str], TraceDataset],
    analyzers: Sequence[Analyzer],
    fmt: str = "alicloud",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    on_error: str = ON_ERROR_STRICT,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    store: Optional["StoreConfig"] = None,
    predicate: Optional[RowPredicate] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    split_rows: int = 0,
) -> EngineResult:
    """Run analyzers over a trace directory, file list, or dataset.

    Args:
        source: a directory of ``.csv``/``.csv.gz`` trace files, an
            explicit list of files (processed in the given order), or an
            in-memory :class:`~repro.trace.dataset.TraceDataset`.
        analyzers: the folds to evaluate — all in the same single pass.
        fmt: trace file format for path sources.
        chunk_size: rows per parsed batch.
        workers: process-pool width; ``1`` runs sequentially.
        progress: optional ``(done, total)`` per-unit terminal callback.
        on_error: record-level error policy — ``"strict"`` (raise on the
            first malformed line), ``"skip"`` (drop and count), or
            ``"quarantine"`` (drop, count, and sample into
            ``EngineResult.errors``).
        retry: optional :class:`~repro.resilience.RetryPolicy` for
            unit-level recovery.
        unit_timeout: optional per-unit wall-clock budget (pooled
            execution only).
        store: optional :class:`~repro.store.StoreConfig` — serve path
            sources from the binary trace store (ignored for in-memory
            datasets, which are already columnar).
        predicate: optional :class:`~repro.engine.plan.RowPredicate` —
            analyze only matching rows (time window / volume set / op
            kind).  Results are bit-identical to running unfiltered and
            post-filtering the inputs, but the data path prunes instead
            of materializing (see :mod:`repro.engine.plan`).
        checkpoint: optional
            :class:`~repro.resilience.CheckpointConfig` for durable runs
            over path sources (in-memory datasets have no stable on-disk
            unit identity and are not checkpointed).
        split_rows: split path-source files expected to exceed this many
            rows into range sub-units (``0`` disables; ignored for
            datasets, whose units are per-volume already).
    """
    if isinstance(source, TraceDataset):
        return run_dataset(
            source, analyzers, chunk_size=chunk_size, workers=workers, progress=progress,
            on_error=on_error, retry=retry, unit_timeout=unit_timeout, predicate=predicate,
        )
    if isinstance(source, str):
        source = list_trace_files(source)
    return run_files(
        source, analyzers, fmt=fmt, chunk_size=chunk_size, workers=workers,
        progress=progress, on_error=on_error, retry=retry, unit_timeout=unit_timeout,
        store=store, predicate=predicate, checkpoint=checkpoint, split_rows=split_rows,
    )
