"""The engine's two ways to execute a unit fan-out.

:func:`repro.engine.runner._map_core` runs pending units either in the
caller's process or across a process pool, pooled exactly when
``workers > 1`` and more than one unit is pending:

* :func:`run_inprocess` — run units in the caller's process, in
  submission order, with the retry loop and optional per-unit snapshot
  capture (checkpointed runs).  Also the recovery path after a broken
  pool.
* :func:`run_pool` — fan units out across a process pool with retries,
  per-unit timeouts, and broken-pool recovery.  Units are submitted in
  the order of ``state.pending``; the runner sorts that order
  longest-processing-time-first when unit costs are known, so a
  straggler unit starts first instead of last.  Submission order never
  affects results: outputs land in ``state.outs`` at each unit's
  canonical index and are merged in that index order.

Both receive one :class:`MapState` describing the whole fan-out and
return the busy time they *measured directly* (in-process execution);
pooled and captured units instead ship per-unit metric snapshots back
through ``state.outs`` and the runner accounts their busy time when
merging.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import faults
from ..obs import metrics, timeline
from ..obs.tracing import span
from ..resilience import RetryPolicy, RunErrors, UnitFailure, UnitTimeoutError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "MapState",
    "instrumented_unit",
    "run_inprocess",
    "run_pool",
]

#: unit result as it travels back from execution: (value, metrics
#: snapshot, timeline events); snapshot and events are None for units
#: that ran in-process (their metrics and events record directly into
#: the caller's registry/buffer) and events is None when timeline
#: recording is off.
UnitOut = Tuple[Any, Optional[Dict[str, Any]], Optional[List[timeline.Event]]]


def instrumented_unit(
    bound: Callable[..., Any],
    item: Any,
    label: str,
    index: int,
    attempt: int,
    in_worker: bool = True,
) -> UnitOut:
    """Run one unit in its own registry; return ``(result, snapshot, events)``.

    The fresh registry (and timeline buffer) means fork-inherited parent
    state never leaks into a worker's snapshot.  Fault injection (when a
    plan is active) fires inside the registry so injected-fault counters
    ship back too.  Timeline events from an attempt that raises are lost
    with the attempt — only completed attempts ship events.

    ``in_worker=False`` runs the same capture in the parent process — the
    checkpointed in-process path uses it so every completed unit yields a
    self-contained snapshot that can be persisted and replayed on resume.
    """
    with metrics.collecting() as reg, timeline.collecting() as buf:
        with timeline.unit(label, index):
            start = perf_counter()
            faults.inject_unit_fault(label, index, attempt, in_worker=in_worker)
            out = bound(item)
            end = perf_counter()
            reg.histogram("engine.unit_seconds").observe(end - start)
            timeline.record("unit", start, end)
    return out, reg.snapshot(), (buf.events or None)


@dataclass
class MapState:
    """Everything one fan-out needs, bundled for its executor.

    ``outs`` is indexed by each unit's canonical (submission-order) index;
    units may *execute* in any order but their results are stored at
    their canonical index, and ``note_done`` is called exactly once per
    unit reaching a terminal state.  ``pending`` lists the not-yet-done
    units in canonical order; ``priorities`` (one cost estimate per item,
    when known) sets the pool's dispatch order — :meth:`dispatch_order`
    implements LPT.
    """

    bound: Callable[..., Any]
    items: Sequence[Any]
    labels: Sequence[str]
    attempts: List[int]
    allowance: List[int]
    retry: Optional[RetryPolicy]
    unit_timeout: Optional[float]
    errors: RunErrors
    outs: List[Optional[UnitOut]]
    fail_fast: bool
    reg: metrics.MetricsRegistry
    note_done: Callable[[int], None]
    pending: List[int] = field(default_factory=list)
    workers: int = 1
    capture: bool = False
    priorities: Optional[Sequence[float]] = None

    def dispatch_order(self) -> List[int]:
        """Pending units, longest-estimated-first (LPT) when costs are known.

        Ties break on the canonical index, so the order is deterministic.
        Pure scheduling: results always land at canonical indices and are
        merged in canonical order, never in this one.
        """
        if self.priorities is None:
            return list(self.pending)
        costs = self.priorities
        return sorted(self.pending, key=lambda i: (-costs[i], i))


def _fail_or_retry(
    state: MapState,
    i: int,
    kind: str,
    error_text: str,
) -> bool:
    """Account one failed attempt; True when the unit failed permanently.

    When budget remains, the (deterministic, capped) backoff is slept
    here and False returned — the caller re-submits or re-runs the unit.
    """
    if state.attempts[i] < state.allowance[i]:
        state.errors.retries += 1
        state.reg.counter("engine.retries").inc()
        if state.retry is not None:
            delay = state.retry.backoff(state.attempts[i])
            if delay > 0.0:
                sleep(delay)
        return False
    state.errors.failed_units.append(
        UnitFailure(state.labels[i], i, kind, error_text, state.attempts[i])
    )
    state.reg.counter("engine.units_failed").inc()
    return True


def run_inprocess(state: MapState, indices: Sequence[int]) -> float:
    """Run ``indices`` in-process with the retry loop; returns busy time.

    Serves the sequential fan-out and in-process recovery after a broken
    pool.  Metrics record directly into the caller's registry, so
    ``outs`` entries carry no snapshot — except with ``state.capture``
    set (checkpointed runs), where each attempt executes under its own
    registry exactly like a pooled worker so its snapshot can be
    persisted; the caller merges snapshots (and their busy time)
    afterwards, keeping counter totals identical either way.
    """
    bound, items, labels = state.bound, state.items, state.labels
    attempts, allowance = state.attempts, state.allowance
    unit_seconds = state.reg.histogram("engine.unit_seconds")
    busy = 0.0
    for i in indices:
        with timeline.unit(labels[i], i):
            while True:
                attempts[i] += 1
                t0 = perf_counter()
                try:
                    if state.capture:
                        out = instrumented_unit(
                            bound, items[i], labels[i], i, attempts[i], in_worker=False
                        )
                    else:
                        faults.inject_unit_fault(labels[i], i, attempts[i], in_worker=False)
                        out = (bound(items[i]), None, None)
                except Exception as exc:
                    if not state.capture:
                        busy += perf_counter() - t0
                    if state.fail_fast and attempts[i] >= allowance[i]:
                        raise
                    if _fail_or_retry(state, i, "exception", repr(exc)):
                        state.note_done(i)
                        break
                    continue
                if not state.capture:
                    elapsed = perf_counter() - t0
                    busy += elapsed
                    unit_seconds.observe(elapsed)
                    timeline.record("unit", t0, t0 + elapsed)
                state.outs[i] = out
                state.note_done(i)
                break
    return busy


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcefully end worker processes abandoned behind a stuck unit."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()


def run_pool(state: MapState) -> float:
    """Fan ``state.pending`` out across a ``state.workers``-wide process pool.

    Units are submitted in ``state.dispatch_order()`` — LPT when unit
    costs are known; workers pull from the pool's FIFO queue, so
    submission order is start order and the biggest estimated unit starts
    first instead of last.  Retries, per-unit timeouts, broken-pool
    recovery (through :func:`run_inprocess`), and abandoned-worker
    termination all live here.
    """
    # Imported here, not with the module: a sequential run never needs
    # the process-pool machinery (multiprocessing, sockets, pickling).
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    bound, items, labels = state.bound, state.items, state.labels
    attempts, allowance = state.attempts, state.allowance
    errors, outs, reg = state.errors, state.outs, state.reg
    unit_timeout = state.unit_timeout
    busy = 0.0
    terminal_failed: Set[int] = set()
    info: Dict["Future[UnitOut]", Tuple[int, float]] = {}
    abandoned = False
    pool = ProcessPoolExecutor(max_workers=state.workers)

    def submit(i: int) -> None:
        fut = pool.submit(instrumented_unit, bound, items[i], labels[i], i, attempts[i] + 1)
        attempts[i] += 1
        deadline = perf_counter() + unit_timeout if unit_timeout is not None else math.inf
        info[fut] = (i, deadline)

    try:
        try:
            for i in state.dispatch_order():
                submit(i)
            while info:
                timeout: Optional[float] = None
                if unit_timeout is not None:
                    timeout = max(0.0, min(dl for _, dl in info.values()) - perf_counter())
                finished, _ = wait(set(info), timeout=timeout, return_when=FIRST_COMPLETED)
                if not finished:
                    now = perf_counter()
                    expired = [f for f, (_, dl) in info.items() if dl <= now + 1e-6]
                    for fut in expired:
                        i, _ = info.pop(fut)
                        fut.cancel()
                        abandoned = True
                        errors.timeouts += 1
                        reg.counter("engine.unit_timeouts").inc()
                        message = (
                            f"unit {labels[i]!r} exceeded unit_timeout="
                            f"{unit_timeout:g}s (attempt {attempts[i]})"
                        )
                        if _fail_or_retry(state, i, "timeout", message):
                            terminal_failed.add(i)
                            if state.fail_fast:
                                raise UnitTimeoutError(message)
                            state.note_done(i)
                        else:
                            submit(i)
                    continue
                broken = False
                for fut in finished:
                    i, _ = info.pop(fut)
                    try:
                        outs[i] = fut.result()
                    except BrokenProcessPool:
                        broken = True
                    except Exception as exc:
                        if _fail_or_retry(state, i, "exception", repr(exc)):
                            terminal_failed.add(i)
                            if state.fail_fast:
                                raise
                            state.note_done(i)
                        else:
                            submit(i)
                    else:
                        state.note_done(i)
                if broken:
                    raise BrokenProcessPool("a worker process died unexpectedly")
        except BrokenProcessPool:
            # The pool is unusable; every interrupted unit is re-executed
            # in-process, with one replacement attempt free of the retry
            # budget (the attempt that died never ran to completion).
            errors.pool_breaks += 1
            reg.counter("engine.pool_breaks").inc()
            info.clear()
            interrupted = [
                i for i in state.pending if outs[i] is None and i not in terminal_failed
            ]
            for i in interrupted:
                allowance[i] += 1
            with span("engine.recover_inprocess"):
                busy += run_inprocess(state, interrupted)
    finally:
        if abandoned:
            # A stuck worker would make a waiting shutdown hang forever.
            pool.shutdown(wait=False, cancel_futures=True)
            _terminate_workers(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    return busy
