"""Durable runs: per-unit checkpointing so long analyses survive a crash.

A fleet-scale analysis that dies at 90% and restarts from zero is a toy.
This module persists each completed unit's result — the merged analyzer
partial states plus the unit's metrics snapshot (planner counters, parse
ledger, timings) — as it finishes, so a killed run resumes by folding the
persisted states back in **submission order** and executing only the
units still missing.  Resumed output is bit-identical to an uninterrupted
run at any worker count: the merge order never depends on which units ran
live and which came off disk.

Layout: ``<checkpoint_dir>/<digest>/`` where ``digest`` is the run
ledger's config digest (:func:`repro.obs.ledger.config_digest`) over the
run's *result-affecting* configuration.  A changed config hashes to a
different directory, so ``--resume`` can never fold stale state from a
different analysis into this one — :class:`Checkpointer` additionally
verifies the recorded unit list matches before trusting anything.

Write discipline matches the ledger and the store: every file lands via
temp-file + :func:`os.replace`, so a checkpoint is either fully present
or absent and a crash mid-write is invisible to the next resume.  A
checkpoint write that fails with :class:`OSError` (disk full, read-only
mount) degrades gracefully: a structured warning, a
``checkpoint.write_errors`` counter, and the run continues without that
checkpoint rather than dying in its own safety net.

Signal semantics (:func:`graceful_interrupts`): the first SIGINT/SIGTERM
raises :class:`RunInterrupted` — a *BaseException*, so the engine's
retry machinery never swallows it — letting the caller flush state and
write the run-ledger record before exiting ``128 + signum``.  A second
signal force-exits immediately.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import shutil
import signal
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from ..obs import metrics
from ..obs.logging import get_logger

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "DEFAULT_CHECKPOINT_DIR",
    "CheckpointConfig",
    "CheckpointError",
    "Checkpointer",
    "RunInterrupted",
    "graceful_interrupts",
]

#: Bumped when the on-disk checkpoint payload shape changes incompatibly
#: (2: reservoir samples pickle as float64 arrays with a lazy generator).
CHECKPOINT_SCHEMA_VERSION = 2

#: Default checkpoint root, relative to the working directory.
DEFAULT_CHECKPOINT_DIR = os.path.join(".repro", "checkpoints")

#: Per-run manifest recording the digest and unit list a resume must match.
RUN_FILE = "run.json"

_log = get_logger("repro.resilience")


class CheckpointError(RuntimeError):
    """A resume was refused: no usable checkpoint state for this config."""


class RunInterrupted(BaseException):
    """Raised by :func:`graceful_interrupts` on the first SIGINT/SIGTERM.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): the
    engine retries units on ``Exception``, and an operator's Ctrl-C must
    interrupt the run, not count as one more unit failure.
    """

    def __init__(self, signum: int) -> None:
        self.signum = signum
        self.signame = signal.Signals(signum).name
        super().__init__(f"run interrupted by {self.signame}")


@dataclass(frozen=True)
class CheckpointConfig:
    """How a run checkpoints: where, under which digest, resuming or not.

    ``digest`` keys the checkpoint directory — use the run ledger's
    config digest over the result-affecting configuration (and *only*
    that: worker count, fault plans, and output paths must not change
    the key, or a legitimate resume with ``--workers 4`` would be
    refused).
    """

    digest: str
    dir: str = DEFAULT_CHECKPOINT_DIR
    resume: bool = False


def _unit_file(directory: str, index: int) -> str:
    return os.path.join(directory, f"unit-{index:05d}.pkl")


class Checkpointer:
    """Persists per-unit results under ``<dir>/<digest>/``, atomically.

    One instance serves one fan-out: :meth:`begin` prepares the directory
    (or loads prior state when resuming), :meth:`save` persists each
    completed unit, :meth:`clear` removes the directory once the run
    finished with nothing left to retry.  All writes degrade gracefully
    on :class:`OSError` — a checkpoint must never be the thing that
    kills the run it protects.
    """

    def __init__(self, config: CheckpointConfig, units: Sequence[str]) -> None:
        self.config = config
        self.units = list(units)
        self.directory = os.path.join(config.dir, config.digest)
        self._disabled = False
        self._saved: set = set()

    # -- lifecycle -----------------------------------------------------

    def begin(self) -> Dict[int, Tuple[Any, Optional[Dict[str, Any]]]]:
        """Prepare the checkpoint dir; return resumed units when resuming.

        Fresh runs wipe any prior state under this digest and write the
        run manifest.  Resuming runs validate the manifest (schema,
        digest, exact unit list) — any mismatch raises
        :class:`CheckpointError` rather than folding stale state — and
        return ``{unit_index: (value, metrics_snapshot)}`` for every
        persisted unit.
        """
        if self.config.resume:
            return self._load_resumed()
        try:
            if os.path.isdir(self.directory):
                shutil.rmtree(self.directory)
            os.makedirs(self.directory, exist_ok=True)
            self._write_json(
                os.path.join(self.directory, RUN_FILE),
                {
                    "schema_version": CHECKPOINT_SCHEMA_VERSION,
                    "digest": self.config.digest,
                    "total": len(self.units),
                    "units": self.units,
                },
            )
        except OSError as exc:
            self._degrade("checkpoint_dir_unwritable", exc)
        return {}

    def save(self, index: int, value: Any, snapshot: Optional[Dict[str, Any]]) -> None:
        """Persist one completed unit's ``(value, metrics snapshot)``.

        Atomic (temp + :func:`os.replace`); idempotent per unit within a
        run; an :class:`OSError` (e.g. ``ENOSPC``) logs a structured
        warning and disables further checkpointing instead of raising.
        """
        if self._disabled or index in self._saved:
            return
        path = _unit_file(self.directory, index)
        payload = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "index": index,
            "unit": self.units[index],
            "value": value,
            "snapshot": snapshot,
        }
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:
            self._remove_quietly(tmp)
            self._degrade("checkpoint_write_failed", exc, unit=self.units[index])
            return
        self._saved.add(index)
        metrics.counter("checkpoint.units_saved").inc()

    def clear(self) -> None:
        """Remove this run's checkpoint directory (run fully succeeded)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- internals -----------------------------------------------------

    def _load_resumed(self) -> Dict[int, Tuple[Any, Optional[Dict[str, Any]]]]:
        run_file = os.path.join(self.directory, RUN_FILE)
        if not os.path.isfile(run_file):
            raise CheckpointError(
                f"refusing to resume: no checkpoint for config digest "
                f"{self.config.digest} under {self.config.dir!r} (the digest covers "
                f"every result-affecting option — a changed config cannot resume)"
            )
        manifest = self._read_json(run_file)
        version = manifest.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"refusing to resume: checkpoint schema_version {version!r} "
                f"(this build reads {CHECKPOINT_SCHEMA_VERSION})"
            )
        if manifest.get("digest") != self.config.digest or manifest.get("units") != self.units:
            raise CheckpointError(
                "refusing to resume: checkpointed unit list does not match this "
                "run (the input files changed since the interrupted run)"
            )
        resumed: Dict[int, Tuple[Any, Optional[Dict[str, Any]]]] = {}
        for index in range(len(self.units)):
            path = _unit_file(self.directory, index)
            if not os.path.isfile(path):
                continue
            try:
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError) as exc:
                # A torn file cannot exist (atomic replace), but a foreign
                # or truncated one could; skip it and re-run that unit.
                _log.warning(
                    "checkpoint_unit_unreadable", path=path, error=repr(exc)
                )
                continue
            if (
                payload.get("schema_version") != CHECKPOINT_SCHEMA_VERSION
                or payload.get("unit") != self.units[index]
            ):
                _log.warning("checkpoint_unit_mismatch", path=path)
                continue
            resumed[index] = (payload["value"], payload.get("snapshot"))
            self._saved.add(index)
        metrics.counter("checkpoint.units_resumed").inc(len(resumed))
        _log.info(
            "checkpoint_resumed",
            digest=self.config.digest,
            resumed=len(resumed),
            total=len(self.units),
        )
        return resumed

    def _write_json(self, path: str, payload: Dict[str, Any]) -> None:
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    def _read_json(self, path: str) -> Dict[str, Any]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return dict(json.load(fh))
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"refusing to resume: unreadable {path}: {exc!r}") from exc

    def _degrade(self, event: str, exc: OSError, **fields: Any) -> None:
        """Disable checkpointing for the rest of the run; never raise."""
        self._disabled = True
        metrics.counter("checkpoint.write_errors").inc()
        reason = errno.errorcode.get(exc.errno, "OSError") if exc.errno else "OSError"
        _log.warning(event, directory=self.directory, reason=reason, error=repr(exc), **fields)

    def _remove_quietly(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            # The temp file may never have been created (open() itself
            # failed); nothing to clean up in that case.
            pass  # repro: noqa[RC005]


@contextmanager
def graceful_interrupts() -> Iterator[None]:
    """Turn the first SIGINT/SIGTERM into :class:`RunInterrupted`.

    The caller (the CLI's checkpointed paths) catches the exception,
    flushes the ledger record, and exits ``128 + signum``; the
    in-flight checkpoints written so far are already durable.  A second
    signal while the first is unwinding force-exits via ``os._exit`` —
    an operator double-Ctrl-C always wins.  Installing handlers is only
    possible on the main thread; elsewhere this is a no-op.
    """
    fired = {"signum": 0}

    def handler(signum: int, frame: Optional[types.FrameType]) -> None:
        if fired["signum"]:
            os._exit(128 + signum)
        fired["signum"] = signum
        raise RunInterrupted(signum)

    previous = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, handler)
    except ValueError as exc:
        # Not the main thread: leave whatever handlers exist in place.
        _log.warning("graceful_interrupts_unavailable", error=repr(exc))
    try:
        yield
    finally:
        for sig, prior in previous.items():
            signal.signal(sig, prior)
