"""repro.resilience — fault tolerance for the analysis engine.

A production trace fleet is never perfectly clean: files carry malformed
rows, workers crash, machines stall.  This package is the engine's
account-for-everything degradation layer:

* :mod:`~repro.resilience.policy` — the ``strict`` / ``skip`` /
  ``quarantine`` record-level error policies and the deterministic
  :class:`RetryPolicy` for unit-level recovery.
* :mod:`~repro.resilience.report` — the structured error ledger
  (:class:`RunErrors`, :class:`UnitFailure`, :class:`QuarantineRecord`,
  :class:`StoreCorruption`) that a resilient run returns alongside its
  results, merged in deterministic submission order at any worker count.
* :mod:`~repro.resilience.checkpoint` — durable runs: per-unit state
  checkpoints keyed by config digest, ``--resume`` support, and graceful
  SIGINT/SIGTERM handling, so a killed run restarts where it stopped with
  bit-identical results.

The engine (:mod:`repro.engine.runner`, :mod:`repro.engine.chunks`)
threads these through every fan-out; the CLI exposes them as
``--on-error`` / ``--quarantine-out`` / ``--max-retries`` /
``--unit-timeout`` / ``--errors-out``.  Deterministic fault *injection*
for tests and chaos drills lives in :mod:`repro.faults`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .checkpoint import (
        CheckpointConfig,
        CheckpointError,
        Checkpointer,
        RunInterrupted,
        graceful_interrupts,
    )
    from .policy import (
        ON_ERROR_CHOICES,
        ON_ERROR_QUARANTINE,
        ON_ERROR_SKIP,
        ON_ERROR_STRICT,
        RetryPolicy,
        UnitTimeoutError,
        validate_on_error,
    )
    from .report import (
        QUARANTINE_SAMPLE_PER_UNIT,
        QUARANTINE_SAMPLE_TOTAL,
        ParseErrors,
        QuarantineRecord,
        RunErrors,
        StoreCorruption,
        UnitFailure,
        unit_label,
        write_quarantine_jsonl,
    )

__all__ = [
    "CheckpointConfig",
    "CheckpointError",
    "Checkpointer",
    "RunInterrupted",
    "graceful_interrupts",
    "ON_ERROR_CHOICES",
    "ON_ERROR_QUARANTINE",
    "ON_ERROR_SKIP",
    "ON_ERROR_STRICT",
    "RetryPolicy",
    "UnitTimeoutError",
    "validate_on_error",
    "QUARANTINE_SAMPLE_PER_UNIT",
    "QUARANTINE_SAMPLE_TOTAL",
    "ParseErrors",
    "QuarantineRecord",
    "RunErrors",
    "StoreCorruption",
    "UnitFailure",
    "unit_label",
    "write_quarantine_jsonl",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpoint": (
        "CheckpointConfig", "CheckpointError", "Checkpointer", "RunInterrupted",
        "graceful_interrupts",
    ),
    ".policy": (
        "ON_ERROR_CHOICES", "ON_ERROR_QUARANTINE", "ON_ERROR_SKIP", "ON_ERROR_STRICT",
        "RetryPolicy", "UnitTimeoutError", "validate_on_error",
    ),
    ".report": (
        "QUARANTINE_SAMPLE_PER_UNIT", "QUARANTINE_SAMPLE_TOTAL", "ParseErrors",
        "QuarantineRecord", "RunErrors", "StoreCorruption", "UnitFailure", "unit_label",
        "write_quarantine_jsonl",
    ),
})
