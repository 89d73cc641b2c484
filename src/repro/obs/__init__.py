"""repro.obs — observability for the analysis engine.

Three small, dependency-free layers (importable by every other package
without cycles):

* :mod:`~repro.obs.metrics` — counters, gauges, and power-of-two
  histograms in a :class:`MetricsRegistry` whose plain-dict snapshots
  merge deterministically, the same way engine analyzer states do.
  Worker processes collect into their own registry and ship snapshots
  back with their unit results.
* :mod:`~repro.obs.tracing` — ``with span("parse_batch"): ...`` stage
  timing that is a shared no-op object when disabled (the default), so
  instrumentation lives permanently on hot paths.
* :mod:`~repro.obs.logging` — structured event logging, plain or JSON
  lines, configured once (the CLI's ``--log-level`` / ``--log-json``).

Two flight-recorder layers build on those (the CLI's ``--trace-out`` and
run ledger):

* :mod:`~repro.obs.timeline` — buffered timeline events (span begin/end
  with monotonic timestamps, worker pid, unit label) shipped back with
  worker snapshots and exported in Chrome trace-event format, so
  Perfetto renders per-worker lanes and straggler gaps.
* :mod:`~repro.obs.ledger` — schema-versioned run records appended
  atomically to a persistent ledger directory; queried, diffed, and
  regression-gated by ``repro runs`` (:mod:`~repro.obs.runs`).

Quickstart::

    from repro import obs

    obs.configure_logging(level="info", json_lines=True)
    log = obs.get_logger("repro.mytool")

    with obs.collecting() as reg:
        with obs.traced():            # span timings on for this block
            result = engine.run(...)
    log.info("run_done", requests=reg.counter("engine.requests").value)
    report = obs.metrics_report(reg)  # JSON-ready dict
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from . import ledger, timeline
    from .logging import StructuredLogger, configure_logging, get_logger
    from .metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        collecting,
        counter,
        gauge,
        get_registry,
        histogram,
        metrics_report,
    )
    from .tracing import disable as disable_tracing
    from .tracing import enable as enable_tracing
    from .tracing import enabled as tracing_enabled
    from .tracing import span, traced

__all__ = [
    "ledger",
    "timeline",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "metrics_report",
    "span",
    "traced",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".": ("ledger", "timeline"),
    ".logging": ("StructuredLogger", "configure_logging", "get_logger"),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "collecting", "counter",
        "gauge", "get_registry", "histogram", "metrics_report",
    ),
    ".tracing": (
        "disable as disable_tracing", "enable as enable_tracing",
        "enabled as tracing_enabled", "span", "traced",
    ),
})
