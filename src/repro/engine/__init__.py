"""repro.engine — the unified chunked analysis engine.

One shared execution substrate for every trace analysis:

* :mod:`~repro.engine.chunks` — columnar :class:`Chunk` batches and
  chunked trace readers that parse AliCloud/MSRC text straight into NumPy
  arrays (no per-row object allocation).
* :mod:`~repro.engine.analyzer` — the :class:`Analyzer` contract: every
  metric as a mergeable ``init_state / consume / merge / finalize`` fold.
* :mod:`~repro.engine.analyzers` — the streaming profile
  (:class:`StreamingVolumeProfile`) behind ``stream-analyze`` and the
  exact same-block temporal fold, as engine folds.
* :mod:`~repro.engine.plan` — query planning: analyzers declare the
  columns they read; the run's :class:`QueryPlan` prunes columns and
  pushes the run's row predicate down the data path (zone-map chunk
  skipping on a warm store), with results bit-identical to filtering
  after the fact.
* :mod:`~repro.engine.units` — cost-aware work units: big files split
  into row/byte range sub-units so one straggler file cannot serialize a
  parallel run; every unit carries an LPT dispatch cost estimate.
* :mod:`~repro.engine.backends` — pluggable execution
  (:class:`ExecutionBackend`): a serial in-process loop or the default
  process pool, selected per run (``backend="serial"|"process"|"auto"``).
* :mod:`~repro.engine.runner` — the driver: many analyzers in one pass
  per volume, volumes/files/sub-units fanned out across a backend with
  deterministic merge order.

Quickstart::

    from repro.engine import run, StreamingProfileAnalyzer, TemporalAnalyzer
    result = run("traces/", [StreamingProfileAnalyzer(), TemporalAnalyzer()],
                 chunk_size=65536, workers=4)
    profile = result.analyzer("streaming_profile")["vol0"]
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .analyzer import Analyzer, reservoir_percentiles, volume_seed
    from .backends import (
        BACKENDS,
        ExecutionBackend,
        ProcessBackend,
        SerialBackend,
        resolve_backend,
    )
    from .analyzers import (
        DEFAULT_RESERVOIR_SIZE,
        StreamingProfileAnalyzer,
        StreamingVolumeProfile,
        TemporalAnalyzer,
        TemporalResult,
    )
    from .chunks import (
        DEFAULT_CHUNK_SIZE,
        Chunk,
        ColumnPrunedError,
        apply_plan,
        chunks_from_trace,
        iter_chunks,
        list_trace_files,
        read_dataset_dir_chunked,
    )
    from .plan import (
        ALL_COLUMNS,
        QueryPlan,
        RowPredicate,
        analyzer_columns,
        plan_for,
    )
    from .runner import (
        EngineResult,
        parallel_map,
        resilient_map,
        run,
        run_dataset,
        run_files,
    )
    from .units import SplitServeError, WorkUnit, plan_units, unit_chunks

__all__ = [
    "Analyzer",
    "reservoir_percentiles",
    "volume_seed",
    "BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "resolve_backend",
    "SplitServeError",
    "WorkUnit",
    "plan_units",
    "unit_chunks",
    "DEFAULT_RESERVOIR_SIZE",
    "StreamingProfileAnalyzer",
    "StreamingVolumeProfile",
    "TemporalAnalyzer",
    "TemporalResult",
    "DEFAULT_CHUNK_SIZE",
    "Chunk",
    "ColumnPrunedError",
    "apply_plan",
    "chunks_from_trace",
    "iter_chunks",
    "list_trace_files",
    "read_dataset_dir_chunked",
    "ALL_COLUMNS",
    "QueryPlan",
    "RowPredicate",
    "analyzer_columns",
    "plan_for",
    "EngineResult",
    "parallel_map",
    "resilient_map",
    "run",
    "run_dataset",
    "run_files",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analyzer": ("Analyzer", "reservoir_percentiles", "volume_seed"),
    ".backends": (
        "BACKENDS", "ExecutionBackend", "ProcessBackend", "SerialBackend",
        "resolve_backend",
    ),
    ".analyzers": (
        "DEFAULT_RESERVOIR_SIZE", "StreamingProfileAnalyzer", "StreamingVolumeProfile",
        "TemporalAnalyzer", "TemporalResult",
    ),
    ".chunks": (
        "DEFAULT_CHUNK_SIZE", "Chunk", "ColumnPrunedError", "apply_plan",
        "chunks_from_trace", "iter_chunks", "list_trace_files", "read_dataset_dir_chunked",
    ),
    ".plan": (
        "ALL_COLUMNS", "QueryPlan", "RowPredicate", "analyzer_columns", "plan_for",
    ),
    ".runner": (
        "EngineResult", "parallel_map", "resilient_map", "run", "run_dataset",
        "run_files",
    ),
    ".units": ("SplitServeError", "WorkUnit", "plan_units", "unit_chunks"),
})
