"""Pluggable execution backends for the engine's unit fan-out.

:func:`repro.engine.runner._map_core` used to hard-code its two execution
strategies (a sequential in-process loop and a
:class:`~concurrent.futures.ProcessPoolExecutor` fan-out).  They now live
behind the :class:`ExecutionBackend` interface so the scheduling policy —
and eventually a multi-host backend (ROADMAP item 5) — can change without
another runner rewrite:

* :class:`SerialBackend` — run every unit in the caller's process, in
  submission order, with the retry loop and optional per-unit snapshot
  capture (checkpointed runs).  Also the recovery substrate after a
  broken pool.
* :class:`ProcessBackend` — fan units out across a process pool with
  retries, per-unit timeouts, and broken-pool recovery.  Units are
  submitted in the order of ``state.pending``; the runner sorts that
  order longest-processing-time-first when unit costs are known, so a
  straggler unit starts first instead of last.  Submission order never
  affects results: outputs land in ``state.outs`` at each unit's
  canonical index and are merged in that index order.

A backend receives one :class:`MapState` describing the whole fan-out and
returns the busy time it *measured directly* (in-process execution);
pooled units instead ship per-unit metric snapshots back through
``state.outs`` and the runner accounts their busy time when merging.

Backends are resolved by name (:data:`BACKENDS`, the ``--backend`` flag)
or passed as instances; ``"auto"`` picks :class:`ProcessBackend` exactly
when ``workers > 1`` and more than one unit is pending, preserving the
runner's historical behavior.
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
    Union,
)

from .. import faults
from ..obs import metrics, timeline
from ..obs.tracing import span
from ..resilience import RetryPolicy, RunErrors, UnitFailure, UnitTimeoutError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "MapState",
    "ProcessBackend",
    "SerialBackend",
    "instrumented_unit",
    "resolve_backend",
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
    checkpointed sequential path uses it so every completed unit yields a
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
    """Everything one fan-out needs, bundled for a backend.

    ``outs`` is indexed by each unit's canonical (submission-order) index;
    a backend may *execute* units in any order but must store results at
    their canonical index and call ``note_done`` exactly once per unit
    reaching a terminal state.  ``pending`` lists the not-yet-done units
    in canonical order; ``priorities`` (one cost estimate per item, when
    known) lets a parallel backend choose its own dispatch order —
    :meth:`dispatch_order` implements LPT.
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


def _run_inprocess(state: MapState, indices: Sequence[int]) -> float:
    """Run ``indices`` in-process with the retry loop; returns busy time.

    Serves both the sequential backend and in-process recovery after a
    broken pool.  Metrics record directly into the caller's registry, so
    ``outs`` entries carry no snapshot — except with ``state.capture``
    set (checkpointed runs), where each unit executes under its own
    registry exactly like a pooled worker so its snapshot can be
    persisted; the caller merges snapshots afterwards, keeping counter
    totals identical either way.
    """
    bound, items, labels = state.bound, state.items, state.labels
    attempts, allowance = state.attempts, state.allowance
    unit_seconds = state.reg.histogram("engine.unit_seconds")
    busy = 0.0
    for i in indices:
        if state.capture:
            while True:
                attempts[i] += 1
                try:
                    state.outs[i] = instrumented_unit(
                        bound, items[i], labels[i], i, attempts[i], in_worker=False
                    )
                except Exception as exc:
                    if state.fail_fast and attempts[i] >= allowance[i]:
                        raise
                    if _fail_or_retry(state, i, "exception", repr(exc)):
                        state.note_done(i)
                        break
                    continue
                state.note_done(i)
                break
            continue
        with timeline.unit(labels[i], i):
            while True:
                attempts[i] += 1
                t0 = perf_counter()
                try:
                    faults.inject_unit_fault(labels[i], i, attempts[i], in_worker=False)
                    value = bound(items[i])
                except Exception as exc:
                    busy += perf_counter() - t0
                    if state.fail_fast and attempts[i] >= allowance[i]:
                        raise
                    if _fail_or_retry(state, i, "exception", repr(exc)):
                        state.note_done(i)
                        break
                    continue
                elapsed = perf_counter() - t0
                busy += elapsed
                unit_seconds.observe(elapsed)
                timeline.record("unit", t0, t0 + elapsed)
                state.outs[i] = (value, None, None)
                state.note_done(i)
                break
    return busy


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcefully end worker processes abandoned behind a stuck unit."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()


class ExecutionBackend:
    """One strategy for executing a fan-out's pending units.

    Subclasses implement :meth:`execute`, running every index of
    ``state.pending`` to a terminal state (result stored in
    ``state.outs`` at its canonical index, or a permanent failure
    accounted in ``state.errors``) and returning directly-measured busy
    seconds.  ``effective_workers`` is what the utilization gauge divides
    by — the parallelism the backend actually used.
    """

    name = "abstract"

    def effective_workers(self, state: MapState) -> int:
        return 1

    def execute(self, state: MapState) -> float:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Run every unit sequentially in the caller's process."""

    name = "serial"

    def execute(self, state: MapState) -> float:
        return _run_inprocess(state, state.pending)


class ProcessBackend(ExecutionBackend):
    """Fan units out across a :class:`ProcessPoolExecutor`.

    Units are submitted in ``state.dispatch_order()`` — LPT when unit
    costs are known; workers pull from the pool's FIFO queue, so
    submission order is start order and the biggest estimated unit starts
    first instead of last.  Retries, per-unit timeouts, broken-pool
    recovery, and abandoned-worker termination all live here, moved
    verbatim from the old runner.
    """

    name = "process"

    def effective_workers(self, state: MapState) -> int:
        return max(1, state.workers)

    def execute(self, state: MapState) -> float:
        # Imported here, not with the module: a serial run never needs
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
        pool = ProcessPoolExecutor(max_workers=self.effective_workers(state))

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
                    busy += _run_inprocess(state, interrupted)
        finally:
            if abandoned:
                # A stuck worker would make a waiting shutdown hang forever.
                pool.shutdown(wait=False, cancel_futures=True)
                _terminate_workers(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        return busy


#: Name -> backend class, the ``--backend`` registry.  A multi-host
#: backend registers here (ROADMAP item 5) and every engine entry point
#: can use it unchanged.
BACKENDS: Dict[str, Callable[[], ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}

BackendSpec = Union[str, ExecutionBackend, None]


def resolve_backend(spec: BackendSpec, workers: int, n_pending: int) -> ExecutionBackend:
    """An :class:`ExecutionBackend` instance for one fan-out.

    ``None`` / ``"auto"`` preserves the runner's historical choice:
    pooled exactly when ``workers > 1`` and more than one unit is
    pending, sequential otherwise.  A string resolves via
    :data:`BACKENDS`; an instance passes through untouched.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None or spec == "auto":
        return ProcessBackend() if workers > 1 and n_pending > 1 else SerialBackend()
    try:
        return BACKENDS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown execution backend: {spec!r} (expected one of "
            f"{['auto', *sorted(BACKENDS)]})"
        ) from None
