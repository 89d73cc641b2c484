"""Engine adapters for the paper's analyses.

Each analyzer re-expresses one legacy analysis module as a mergeable fold
over columnar chunks:

* :class:`LoadIntensityAnalyzer` — :mod:`repro.core.load_intensity`:
  exact request/traffic counters, inter-arrival quantile reservoir, and
  peak intensity over fixed intervals.
* :class:`SpatialAnalyzer` — :mod:`repro.core.spatial`: working-set sizes
  as HyperLogLog sketches (total / read / write).
* :class:`TemporalAnalyzer` — :mod:`repro.core.temporal`: exact
  RAW/WAW/RAR/WAR transition counts, update-interval counts, and reservoir
  samples of their elapsed-time distributions.
* :class:`StreamingProfileAnalyzer` — :mod:`repro.core.streaming_profile`:
  the full bounded-memory per-volume profile
  (:class:`~repro.core.streaming_profile.StreamingVolumeProfile`).

Exact counters are *exact*: chunked and parallel runs reproduce the legacy
single-pass numbers bit-for-bit because states carry enough boundary
information (first/last timestamps, per-block first/last events) for
``merge`` to reconstruct every cross-boundary pair.  Distribution metrics
use the existing reservoir/HLL sketches and are deterministic for a given
volume id regardless of chunk size or worker count (sketch seeds hash the
volume id; merges happen in fixed order).

All analyzers require each volume's chunks in time order — the order trace
files are written in and the same requirement the legacy streaming
profiler imposes.

Every built-in analyzer declares honest ``required_columns`` (none needs
``response_times``; only the timestamp-driven ones need ``timestamps``)
so the planner (:mod:`repro.engine.plan`) can prune what nobody reads,
and accepts an optional ``row_predicate`` restricting the analyzer to a
time window / volume set / op kind of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.streaming_profile import StreamingVolumeProfile
from ..stats.hll import HyperLogLog
from ..stats.streaming import ReservoirSampler
from ..trace.record import DEFAULT_BLOCK_SIZE
from .analyzer import DEFAULT_PERCENTILES, reservoir_percentiles, volume_seed
from .chunks import Chunk
from .plan import RowPredicate

__all__ = [
    "LoadIntensityAnalyzer",
    "LoadIntensityResult",
    "SpatialAnalyzer",
    "WorkingSetSketch",
    "TemporalAnalyzer",
    "TemporalResult",
    "StreamingProfileAnalyzer",
    "DEFAULT_RESERVOIR_SIZE",
]

#: Default reservoir capacity for quantile estimates (matches the legacy
#: streaming profiler).
DEFAULT_RESERVOIR_SIZE = 4096


def _new_reservoir(volume_id: str, salt: int, capacity: int) -> ReservoirSampler:
    return ReservoirSampler(
        capacity, np.random.default_rng(volume_seed(volume_id, salt))
    )


def _check_order(state_last: Optional[float], timestamps: np.ndarray) -> None:
    if len(timestamps) == 0:
        return
    if state_last is not None and timestamps[0] < state_last:
        raise ValueError("requests must be fed in timestamp order")


# ---------------------------------------------------------------------------
# Load intensity
# ---------------------------------------------------------------------------


class _LoadState:
    __slots__ = (
        "volume_id",
        "n_reads",
        "n_writes",
        "read_bytes",
        "write_bytes",
        "first_ts",
        "last_ts",
        "gaps",
        "peak_buckets",
    )

    def __init__(self, volume_id: str, reservoir_size: int) -> None:
        self.volume_id = volume_id
        self.n_reads = 0
        self.n_writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.gaps = _new_reservoir(volume_id, 1, reservoir_size)
        self.peak_buckets: Dict[int, int] = {}


@dataclass(frozen=True)
class LoadIntensityResult:
    """Per-volume load-intensity summary (engine counterpart of
    :mod:`repro.core.load_intensity`'s per-volume metrics).

    Counters are exact; ``interarrival_percentiles`` come from a reservoir.
    ``peak_intensity`` counts requests in fixed ``peak_interval`` buckets
    anchored at absolute time zero (the legacy columnar path anchors at a
    volume's first request; both are the paper's fixed-window peak).
    """

    volume_id: str
    n_requests: int
    n_reads: int
    n_writes: int
    read_bytes: int
    write_bytes: int
    start_time: float
    end_time: float
    peak_interval: float
    peak_intensity: float
    interarrival_percentiles: Dict[float, float]

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def average_intensity(self) -> float:
        if self.n_requests < 2:
            return 0.0
        if self.duration <= 0:
            return float("inf")
        return self.n_requests / self.duration

    @property
    def burstiness_ratio(self) -> float:
        avg = self.average_intensity
        if avg <= 0 or not np.isfinite(avg):
            return float("nan")
        return self.peak_intensity / avg

    @property
    def write_read_ratio(self) -> float:
        if self.n_reads == 0 and self.n_writes == 0:
            return float("nan")
        if self.n_reads == 0:
            return float("inf")
        return self.n_writes / self.n_reads


class LoadIntensityAnalyzer:
    """Exact intensity counters + inter-arrival reservoir + fixed-window peak."""

    def __init__(
        self,
        peak_interval: float = 60.0,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
        row_predicate: Optional[RowPredicate] = None,
    ) -> None:
        self.name = "load_intensity"
        self.peak_interval = peak_interval
        self.reservoir_size = reservoir_size
        self.percentiles = percentiles
        self.required_columns = ("timestamps", "sizes", "is_write")
        self.row_predicate = row_predicate

    def init_state(self, volume_id: str) -> _LoadState:
        return _LoadState(volume_id, self.reservoir_size)

    def consume(self, state: _LoadState, chunk: Chunk) -> _LoadState:
        n = len(chunk)
        if n == 0:
            return state
        ts = chunk.timestamps
        _check_order(state.last_ts, ts)
        n_writes = int(np.count_nonzero(chunk.is_write))
        write_bytes = int(chunk.sizes[chunk.is_write].sum())
        state.n_writes += n_writes
        state.n_reads += n - n_writes
        state.write_bytes += write_bytes
        state.read_bytes += int(chunk.sizes.sum()) - write_bytes
        gaps = np.diff(ts)
        if len(gaps) and np.any(gaps < 0):
            raise ValueError("requests must be fed in timestamp order")
        if state.last_ts is None:
            state.first_ts = float(ts[0])
        else:
            # Prepend the cross-chunk gap so every gap flows through
            # add_array, whose RNG consumption is batching-invariant —
            # reservoir contents then do not depend on chunk size.
            gaps = np.concatenate(([float(ts[0]) - state.last_ts], gaps))
        state.gaps.add_array(gaps)
        state.last_ts = float(ts[-1])
        buckets, counts = np.unique(
            np.floor_divide(ts, self.peak_interval).astype(np.int64),
            return_counts=True,
        )
        for b, c in zip(buckets.tolist(), counts.tolist()):
            state.peak_buckets[b] = state.peak_buckets.get(b, 0) + int(c)
        return state

    def merge(self, earlier: _LoadState, later: _LoadState) -> _LoadState:
        if later.first_ts is None:
            return earlier
        if earlier.last_ts is None:
            return later
        if later.first_ts < earlier.last_ts:
            raise ValueError("merge requires time-ordered partial states")
        merged = _LoadState(earlier.volume_id, self.reservoir_size)
        merged.n_reads = earlier.n_reads + later.n_reads
        merged.n_writes = earlier.n_writes + later.n_writes
        merged.read_bytes = earlier.read_bytes + later.read_bytes
        merged.write_bytes = earlier.write_bytes + later.write_bytes
        merged.first_ts = earlier.first_ts
        merged.last_ts = later.last_ts
        merged.gaps = earlier.gaps.merge(later.gaps)
        merged.gaps.add(later.first_ts - earlier.last_ts)
        merged.peak_buckets = dict(earlier.peak_buckets)
        for b, c in later.peak_buckets.items():
            merged.peak_buckets[b] = merged.peak_buckets.get(b, 0) + c
        return merged

    def finalize(self, state: _LoadState) -> LoadIntensityResult:
        peak = max(state.peak_buckets.values(), default=0) / self.peak_interval
        return LoadIntensityResult(
            volume_id=state.volume_id,
            n_requests=state.n_reads + state.n_writes,
            n_reads=state.n_reads,
            n_writes=state.n_writes,
            read_bytes=state.read_bytes,
            write_bytes=state.write_bytes,
            start_time=state.first_ts if state.first_ts is not None else float("nan"),
            end_time=state.last_ts if state.last_ts is not None else float("nan"),
            peak_interval=self.peak_interval,
            peak_intensity=peak,
            interarrival_percentiles=reservoir_percentiles(state.gaps, self.percentiles),
        )


# ---------------------------------------------------------------------------
# Spatial (working-set sketches)
# ---------------------------------------------------------------------------


class _SpatialState:
    __slots__ = ("volume_id", "total", "read", "write")

    def __init__(self, volume_id: str, precision: int) -> None:
        seed = volume_seed(volume_id, 2)
        self.volume_id = volume_id
        self.total = HyperLogLog(precision, seed=seed)
        self.read = HyperLogLog(precision, seed=seed)
        self.write = HyperLogLog(precision, seed=seed)


@dataclass(frozen=True)
class WorkingSetSketch:
    """HLL-estimated working-set sizes in bytes (engine counterpart of
    :func:`repro.core.spatial.working_sets`, estimates marked ~)."""

    volume_id: str
    block_size: int
    total_bytes: float
    read_bytes: float
    write_bytes: float

    @property
    def read_fraction(self) -> float:
        if self.total_bytes <= 0:
            return float("nan")
        return self.read_bytes / self.total_bytes


def _add_working_sets(total: HyperLogLog, read: HyperLogLog, write: HyperLogLog,
                      block_id: np.ndarray, is_write: np.ndarray) -> None:
    """Add a chunk's blocks to its total/read/write sketches (same ``p``
    and seed): each block is hashed and ranked once."""
    idx, ranks = total.positions(block_id)
    total.add_positions(idx, ranks)
    read.add_positions(idx[~is_write], ranks[~is_write])
    write.add_positions(idx[is_write], ranks[is_write])


class SpatialAnalyzer:
    """Working-set size sketches at block granularity."""

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        hll_precision: int = 14,
        row_predicate: Optional[RowPredicate] = None,
    ) -> None:
        self.name = "spatial"
        self.block_size = block_size
        self.hll_precision = hll_precision
        self.required_columns = ("offsets", "sizes", "is_write")
        self.row_predicate = row_predicate

    def init_state(self, volume_id: str) -> _SpatialState:
        return _SpatialState(volume_id, self.hll_precision)

    def consume(self, state: _SpatialState, chunk: Chunk) -> _SpatialState:
        if len(chunk) == 0:
            return state
        req_index, block_id = chunk.block_expansion(self.block_size)
        is_write = chunk.is_write[req_index]
        _add_working_sets(state.total, state.read, state.write, block_id, is_write)
        return state

    def merge(self, earlier: _SpatialState, later: _SpatialState) -> _SpatialState:
        merged = _SpatialState(earlier.volume_id, self.hll_precision)
        merged.total = earlier.total.merge(later.total)
        merged.read = earlier.read.merge(later.read)
        merged.write = earlier.write.merge(later.write)
        return merged

    def finalize(self, state: _SpatialState) -> WorkingSetSketch:
        bs = self.block_size
        return WorkingSetSketch(
            volume_id=state.volume_id,
            block_size=bs,
            total_bytes=state.total.estimate() * bs,
            read_bytes=state.read.estimate() * bs,
            write_bytes=state.write.estimate() * bs,
        )


# ---------------------------------------------------------------------------
# Temporal (same-block transitions)
# ---------------------------------------------------------------------------

#: Transition classification codes: (prev_is_write << 1) | cur_is_write.
_TRANSITION_ORDER = ("RAR", "WAR", "RAW", "WAW")


class _BlockTable:
    """Per-block first/last event summary (sorted by block id).

    ``first_*`` and ``last_*`` describe the earliest and latest event of
    each block within the covered span — exactly what linking two adjacent
    spans needs to reconstruct the transitions that straddle the boundary.
    """

    __slots__ = ("blocks", "first_ts", "first_w", "last_ts", "last_w")

    def __init__(self, blocks, first_ts, first_w, last_ts, last_w) -> None:
        self.blocks = blocks
        self.first_ts = first_ts
        self.first_w = first_w
        self.last_ts = last_ts
        self.last_w = last_w

    @classmethod
    def empty(cls) -> "_BlockTable":
        z = np.array([], dtype=np.int64)
        f = np.array([], dtype=np.float64)
        b = np.array([], dtype=bool)
        return cls(z, f, b, f.copy(), b.copy())

    @classmethod
    def from_sorted_events(cls, blocks, ts, is_write) -> "_BlockTable":
        """Summarize a block-sorted, within-block time-ordered event stream."""
        starts = np.ones(len(blocks), dtype=bool)
        starts[1:] = blocks[1:] != blocks[:-1]
        sidx = np.flatnonzero(starts)
        eidx = np.append(sidx[1:] - 1, len(blocks) - 1)
        return cls(blocks[sidx], ts[sidx], is_write[sidx], ts[eidx], is_write[eidx])

    def link(self, later: "_BlockTable"):
        """Boundary pairs for blocks present on both sides.

        Returns ``(dt, prev_w, cur_w)`` of the transition formed by this
        table's last event and ``later``'s first event per shared block.
        """
        pos = np.searchsorted(self.blocks, later.blocks)
        pos_c = np.minimum(pos, len(self.blocks) - 1) if len(self.blocks) else pos
        shared_later = (
            np.zeros(len(later.blocks), dtype=bool)
            if len(self.blocks) == 0
            else self.blocks[pos_c] == later.blocks
        )
        shared_prev = pos_c[shared_later]
        dt = later.first_ts[shared_later] - self.last_ts[shared_prev]
        return dt, self.last_w[shared_prev], later.first_w[shared_later]

    def combined(self, later: "_BlockTable") -> "_BlockTable":
        """Union table: first event from the earlier side when present,
        last event from the later side when present."""
        blocks = np.union1d(self.blocks, later.blocks)
        n = len(blocks)
        first_ts = np.empty(n, dtype=np.float64)
        first_w = np.empty(n, dtype=bool)
        last_ts = np.empty(n, dtype=np.float64)
        last_w = np.empty(n, dtype=bool)
        pos_l = np.searchsorted(blocks, later.blocks)
        pos_e = np.searchsorted(blocks, self.blocks)
        first_ts[pos_l] = later.first_ts
        first_w[pos_l] = later.first_w
        first_ts[pos_e] = self.first_ts
        first_w[pos_e] = self.first_w
        last_ts[pos_e] = self.last_ts
        last_w[pos_e] = self.last_w
        last_ts[pos_l] = later.last_ts
        last_w[pos_l] = later.last_w
        return _BlockTable(blocks, first_ts, first_w, last_ts, last_w)


class _TemporalState:
    __slots__ = ("volume_id", "table", "wtable", "counts", "reservoirs", "update_count", "update_res")

    def __init__(self, volume_id: str, reservoir_size: int) -> None:
        self.volume_id = volume_id
        self.table = _BlockTable.empty()
        self.wtable = _BlockTable.empty()
        self.counts = np.zeros(4, dtype=np.int64)
        self.reservoirs = [
            _new_reservoir(volume_id, 10 + i, reservoir_size) for i in range(4)
        ]
        self.update_count = 0
        self.update_res = _new_reservoir(volume_id, 14, reservoir_size)


@dataclass(frozen=True)
class TemporalResult:
    """Per-volume temporal summary (engine counterpart of
    :mod:`repro.core.temporal`).

    ``counts`` and ``update_count`` are exact; the ``*_percentiles`` maps
    are reservoir estimates of the elapsed-time distributions.
    """

    volume_id: str
    counts: Dict[str, int]
    update_count: int
    transition_percentiles: Dict[str, Dict[float, float]]
    update_interval_percentiles: Dict[float, float]


class TemporalAnalyzer:
    """Exact RAW/WAW/RAR/WAR and update-interval folds at block granularity."""

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
        row_predicate: Optional[RowPredicate] = None,
    ) -> None:
        self.name = "temporal"
        self.block_size = block_size
        self.reservoir_size = reservoir_size
        self.percentiles = percentiles
        self.required_columns = ("timestamps", "offsets", "sizes", "is_write")
        self.row_predicate = row_predicate

    def init_state(self, volume_id: str) -> _TemporalState:
        return _TemporalState(volume_id, self.reservoir_size)

    def _accumulate(self, state: _TemporalState, dt, prev_w, cur_w) -> None:
        if len(dt) == 0:
            return
        codes = (prev_w.astype(np.int8) << 1) | cur_w.astype(np.int8)
        state.counts += np.bincount(codes, minlength=4)
        for code in range(4):
            sel = dt[codes == code]
            if len(sel):
                state.reservoirs[code].add_array(sel)

    def _accumulate_updates(self, state: _TemporalState, dt) -> None:
        if len(dt):
            state.update_count += len(dt)
            state.update_res.add_array(dt)

    def consume(self, state: _TemporalState, chunk: Chunk) -> _TemporalState:
        if len(chunk) == 0:
            return state
        req_index, block_id = chunk.block_expansion(self.block_size)
        ts = chunk.timestamps[req_index]
        is_write = chunk.is_write[req_index]
        order = np.argsort(block_id, kind="stable")
        b, t, w = block_id[order], ts[order], is_write[order]

        # Within-chunk same-block transitions.
        same = b[1:] == b[:-1]
        self._accumulate(state, (t[1:] - t[:-1])[same], w[:-1][same], w[1:][same])
        chunk_table = _BlockTable.from_sorted_events(b, t, w)

        # Boundary transitions against everything consumed so far.
        self._accumulate(state, *state.table.link(chunk_table))
        state.table = state.table.combined(chunk_table)

        # Update intervals: consecutive writes to a block (reads between OK).
        wb, wt = b[w], t[w]
        if len(wb):
            wsame = wb[1:] == wb[:-1]
            self._accumulate_updates(state, (wt[1:] - wt[:-1])[wsame])
            wchunk = _BlockTable.from_sorted_events(wb, wt, np.ones(len(wb), dtype=bool))
            dtw, _, _ = state.wtable.link(wchunk)
            self._accumulate_updates(state, dtw)
            state.wtable = state.wtable.combined(wchunk)
        return state

    def merge(self, earlier: _TemporalState, later: _TemporalState) -> _TemporalState:
        merged = _TemporalState(earlier.volume_id, self.reservoir_size)
        merged.counts = earlier.counts + later.counts
        merged.reservoirs = [
            a.merge(b) for a, b in zip(earlier.reservoirs, later.reservoirs)
        ]
        merged.update_count = earlier.update_count + later.update_count
        merged.update_res = earlier.update_res.merge(later.update_res)
        # Boundary pairs between the two spans.
        self._accumulate(merged, *earlier.table.link(later.table))
        dtw, _, _ = earlier.wtable.link(later.wtable)
        self._accumulate_updates(merged, dtw)
        merged.table = earlier.table.combined(later.table)
        merged.wtable = earlier.wtable.combined(later.wtable)
        return merged

    def finalize(self, state: _TemporalState) -> TemporalResult:
        counts = {
            name: int(state.counts[code])
            for code, name in enumerate(_TRANSITION_ORDER)
        }
        percentiles = {
            name: reservoir_percentiles(state.reservoirs[code], self.percentiles)
            for code, name in enumerate(_TRANSITION_ORDER)
        }
        return TemporalResult(
            volume_id=state.volume_id,
            counts=counts,
            update_count=state.update_count,
            transition_percentiles=percentiles,
            update_interval_percentiles=reservoir_percentiles(
                state.update_res, self.percentiles
            ),
        )


# ---------------------------------------------------------------------------
# Streaming profile
# ---------------------------------------------------------------------------


class _ProfileState:
    __slots__ = (
        "volume_id",
        "n_reads",
        "n_writes",
        "read_bytes",
        "write_bytes",
        "first_ts",
        "last_ts",
        "sizes",
        "gaps",
        "wss_total",
        "wss_read",
        "wss_write",
    )

    def __init__(self, volume_id: str, reservoir_size: int, hll_precision: int) -> None:
        seed = volume_seed(volume_id, 3)
        self.volume_id = volume_id
        self.n_reads = 0
        self.n_writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.sizes = _new_reservoir(volume_id, 20, reservoir_size)
        self.gaps = _new_reservoir(volume_id, 21, reservoir_size)
        self.wss_total = HyperLogLog(hll_precision, seed=seed)
        self.wss_read = HyperLogLog(hll_precision, seed=seed)
        self.wss_write = HyperLogLog(hll_precision, seed=seed)


class StreamingProfileAnalyzer:
    """The legacy bounded-memory volume profile as an engine fold.

    Produces the same :class:`~repro.core.streaming_profile.StreamingVolumeProfile`
    dataclass as :class:`~repro.core.streaming_profile.StreamingVolumeProfiler`,
    with identical exact counters; sketch seeds hash the volume id (instead
    of arrival order) so results are reproducible under parallel fan-out.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        hll_precision: int = 14,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
        row_predicate: Optional[RowPredicate] = None,
    ) -> None:
        self.name = "streaming_profile"
        self.block_size = block_size
        self.reservoir_size = reservoir_size
        self.hll_precision = hll_precision
        self.percentiles = percentiles
        self.required_columns = ("timestamps", "offsets", "sizes", "is_write")
        self.row_predicate = row_predicate

    def init_state(self, volume_id: str) -> _ProfileState:
        return _ProfileState(volume_id, self.reservoir_size, self.hll_precision)

    def consume(self, state: _ProfileState, chunk: Chunk) -> _ProfileState:
        n = len(chunk)
        if n == 0:
            return state
        ts = chunk.timestamps
        _check_order(state.last_ts, ts)
        gaps = np.diff(ts)
        if len(gaps) and np.any(gaps < 0):
            raise ValueError("requests must be fed in timestamp order")
        n_writes = int(np.count_nonzero(chunk.is_write))
        write_bytes = int(chunk.sizes[chunk.is_write].sum())
        state.n_writes += n_writes
        state.n_reads += n - n_writes
        state.write_bytes += write_bytes
        state.read_bytes += int(chunk.sizes.sum()) - write_bytes
        if state.last_ts is None:
            state.first_ts = float(ts[0])
        else:
            # Same batching-invariance trick as LoadIntensityAnalyzer:
            # the cross-chunk gap must go through add_array too.
            gaps = np.concatenate(([float(ts[0]) - state.last_ts], gaps))
        state.gaps.add_array(gaps)
        state.last_ts = float(ts[-1])
        state.sizes.add_array(chunk.sizes.astype(np.float64))
        req_index, block_id = chunk.block_expansion(self.block_size)
        is_write = chunk.is_write[req_index]
        _add_working_sets(state.wss_total, state.wss_read, state.wss_write, block_id, is_write)
        return state

    def merge(self, earlier: _ProfileState, later: _ProfileState) -> _ProfileState:
        if later.first_ts is None:
            return earlier
        if earlier.last_ts is None:
            return later
        if later.first_ts < earlier.last_ts:
            raise ValueError("merge requires time-ordered partial states")
        merged = _ProfileState(earlier.volume_id, self.reservoir_size, self.hll_precision)
        merged.n_reads = earlier.n_reads + later.n_reads
        merged.n_writes = earlier.n_writes + later.n_writes
        merged.read_bytes = earlier.read_bytes + later.read_bytes
        merged.write_bytes = earlier.write_bytes + later.write_bytes
        merged.first_ts = earlier.first_ts
        merged.last_ts = later.last_ts
        merged.sizes = earlier.sizes.merge(later.sizes)
        merged.gaps = earlier.gaps.merge(later.gaps)
        merged.gaps.add(later.first_ts - earlier.last_ts)
        merged.wss_total = earlier.wss_total.merge(later.wss_total)
        merged.wss_read = earlier.wss_read.merge(later.wss_read)
        merged.wss_write = earlier.wss_write.merge(later.wss_write)
        return merged

    def finalize(self, state: _ProfileState) -> StreamingVolumeProfile:
        if state.n_reads + state.n_writes == 0:
            # A predicate can filter a volume's rows down to nothing;
            # finalize must still produce a (empty) profile, not raise.
            return StreamingVolumeProfile(
                volume_id=state.volume_id,
                n_requests=0,
                n_reads=0,
                n_writes=0,
                read_bytes=0,
                write_bytes=0,
                start_time=float("nan"),
                end_time=float("nan"),
                wss_total_bytes=0.0,
                wss_read_bytes=0.0,
                wss_write_bytes=0.0,
                size_percentiles={},
                interarrival_percentiles={},
            )
        bs = self.block_size
        return StreamingVolumeProfile(
            volume_id=state.volume_id,
            n_requests=state.n_reads + state.n_writes,
            n_reads=state.n_reads,
            n_writes=state.n_writes,
            read_bytes=state.read_bytes,
            write_bytes=state.write_bytes,
            start_time=float(state.first_ts),
            end_time=float(state.last_ts),
            wss_total_bytes=state.wss_total.estimate() * bs,
            wss_read_bytes=state.wss_read.estimate() * bs,
            wss_write_bytes=state.wss_write.estimate() * bs,
            size_percentiles=reservoir_percentiles(state.sizes, self.percentiles),
            interarrival_percentiles=reservoir_percentiles(state.gaps, self.percentiles),
        )
