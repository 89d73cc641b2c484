"""The engine's analyzer contract: every metric as a mergeable fold.

An :class:`Analyzer` turns a stream of per-volume :class:`~repro.engine.chunks.Chunk`
batches into a per-volume result through four operations::

    state = analyzer.init_state(volume_id)
    state = analyzer.consume(state, chunk)      # fold one chunk (time order)
    state = analyzer.merge(earlier, later)      # combine partial folds
    result = analyzer.finalize(state)           # snapshot the answer

``merge`` is *ordered*: its first argument must cover the earlier part of
the volume's stream (the runner merges per-file partials in sorted file
order).  That lets analyzers reconstruct cross-boundary facts exactly —
e.g. the inter-arrival gap between the last request of one file and the
first request of the next, or a same-block transition straddling two
chunks — so a chunked, parallel fold produces the same exact counters as
a single sequential pass.

Analyzers themselves are immutable configuration (picklable, shipped to
worker processes); all mutable accumulation lives in the state objects
they create.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Protocol, runtime_checkable

import numpy as np

from .chunks import Chunk

__all__ = ["Analyzer", "volume_seed", "reservoir_percentiles"]

#: Percentiles reported by engine analyzers' reservoir-backed estimates.
DEFAULT_PERCENTILES = (25.0, 50.0, 75.0, 90.0, 95.0)


@runtime_checkable
class Analyzer(Protocol):
    """Protocol for a mergeable one-pass analysis.

    Attributes:
        name: unique key of this analyzer's results in an engine run.

    Analyzers may additionally expose two *optional* attributes read by
    the query planner (:mod:`repro.engine.plan`) — they are deliberately
    not part of the protocol body so existing analyzers (and
    ``isinstance`` checks against third-party ones) keep working:

    * ``required_columns`` — the chunk columns ``consume`` actually
      reads, as an iterable of names out of
      :data:`repro.engine.plan.ALL_COLUMNS`.  Absent or ``None`` means
      "all columns" (the pre-planning default); declaring honestly lets
      the data path skip loading everything else.  Touching an
      undeclared column raises
      :class:`~repro.engine.chunks.ColumnPrunedError`.
    * ``row_predicate`` — a :class:`repro.engine.plan.RowPredicate`
      restricting this analyzer's input to a time window / volume set /
      op kind.  Absent or ``None`` means every row.

    Read them via :func:`repro.engine.plan.analyzer_columns` /
    :func:`repro.engine.plan.analyzer_predicate`, which validate and
    normalize.
    """

    name: str

    def init_state(self, volume_id: str) -> Any:
        """Fresh accumulation state for one volume."""
        ...

    def consume(self, state: Any, chunk: Chunk) -> Any:
        """Fold one chunk (time-ordered within the volume) into ``state``."""
        ...

    def merge(self, earlier: Any, later: Any) -> Any:
        """Combine two partial states; ``earlier`` precedes ``later`` in time."""
        ...

    def finalize(self, state: Any) -> Any:
        """Turn an accumulated state into the per-volume result."""
        ...


def volume_seed(volume_id: str, salt: int = 0) -> int:
    """Deterministic per-volume sketch seed, independent of processing order.

    The legacy streaming profiler seeds sketches by volume *arrival* order,
    which is not reproducible under parallel fan-out; hashing the volume id
    keeps every worker layout byte-identical.
    """
    return (zlib.crc32(volume_id.encode("utf-8")) ^ (salt * 0x9E3779B1)) & 0x7FFFFFFF


def _linear_percentiles(sample: np.ndarray, percentiles) -> np.ndarray:
    """``np.percentile(sample, percentiles)`` for a 1-D float64 ``sample``,
    which it partitions in place.

    The same arithmetic as numpy's default ``linear`` method, step for
    step, so the values are bit-identical; it skips the ``np.unique`` of
    the partition points, whose first call imports ``numpy.ma``.
    """
    q = np.true_divide(list(percentiles), 100)
    if not (np.all(q >= 0) and np.all(q <= 1)):
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = len(sample)
    virtual = (n - 1) * q
    lo = np.floor(virtual)
    hi = lo + 1
    above = virtual >= n - 1
    lo[above] = -1
    hi[above] = -1
    lo = lo.astype(np.intp)
    hi = hi.astype(np.intp)
    sample.partition(sorted({0, n - 1, *(lo % n).tolist(), *(hi % n).tolist()}))
    if np.isnan(sample[-1]):
        return np.full(len(q), sample[-1])
    gamma = virtual - lo
    below, above_values = sample[lo], sample[hi]
    diff = above_values - below
    values = np.add(below, diff * gamma)
    np.subtract(above_values, diff * (1 - gamma), out=values, where=gamma >= 0.5)
    return values


def reservoir_percentiles(sampler, percentiles=DEFAULT_PERCENTILES) -> Dict[float, float]:
    """``{percentile: value}`` estimates from a reservoir sample
    (numpy's default ``linear`` percentiles)."""
    sample = sampler.sample()
    if len(sample) == 0:
        return {}
    values = _linear_percentiles(sample, percentiles)
    return {float(p): float(v) for p, v in zip(percentiles, values)}
