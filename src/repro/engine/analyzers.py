"""Engine folds for the paper's analyses.

Each analyzer is a mergeable fold over columnar chunks:

* :class:`TemporalAnalyzer` — :mod:`repro.core.temporal`: exact
  RAW/WAW/RAR/WAR transition counts, update-interval counts, and reservoir
  samples of their elapsed-time distributions.
* :class:`StreamingProfileAnalyzer` — the bounded-memory per-volume
  profile (:class:`StreamingVolumeProfile`) that ``stream-analyze``
  reports: exact counters, reservoir percentiles and HyperLogLog
  working-set sizes.

Exact counters are *exact*: chunked and parallel runs reproduce the
in-memory numbers bit-for-bit because states carry enough boundary
information (first/last timestamps, per-block first/last events) for
``merge`` to reconstruct every cross-boundary pair.  Distribution metrics
use the existing reservoir/HLL sketches and are deterministic for a given
volume id regardless of chunk size or worker count (sketch seeds hash the
volume id; merges happen in fixed order).

All analyzers require each volume's chunks in time order — the order trace
files are written in.

Every built-in analyzer declares honest ``required_columns`` (none needs
``response_times``) so the planner (:mod:`repro.engine.plan`) can prune
what nobody reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..stats.hll import HyperLogLog
from ..stats.streaming import ReservoirSampler
from ..trace.record import DEFAULT_BLOCK_SIZE
from .analyzer import DEFAULT_PERCENTILES, reservoir_percentiles, volume_seed
from .chunks import Chunk

__all__ = [
    "TemporalAnalyzer",
    "TemporalResult",
    "StreamingProfileAnalyzer",
    "StreamingVolumeProfile",
    "DEFAULT_RESERVOIR_SIZE",
]

#: Default reservoir capacity for quantile estimates.
DEFAULT_RESERVOIR_SIZE = 4096


def _new_reservoir(volume_id: str, salt: int, capacity: int) -> ReservoirSampler:
    return ReservoirSampler(capacity, seed=volume_seed(volume_id, salt))


def _check_order(state_last: Optional[float], timestamps: np.ndarray) -> None:
    if len(timestamps) == 0:
        return
    if state_last is not None and timestamps[0] < state_last:
        raise ValueError("requests must be fed in timestamp order")


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

        Returns ``(dt, prev_w, cur_w, shared)``: the transition formed by
        this table's last event and ``later``'s first event per shared
        block, and the mask of ``later.blocks`` that are shared (the
        pairs follow ``later``'s block order).
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
        return dt, self.last_w[shared_prev], later.first_w[shared_later], shared_later

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


def _chunk_pairs(table: _BlockTable, b, t, w, pos):
    """Every access's pair with the previous access to its block.

    ``b``/``t``/``w`` are one chunk's accesses sorted by block (stable, so
    each block's accesses keep stream order) and ``pos`` their stream
    positions.  Pairs within the chunk and pairs with ``table`` (everything
    consumed before it) come back together as ``(dt, prev_w, cur_w)``,
    ordered by the stream position of the later access, plus the chunk's
    own table.  Fed through the batching-invariant ``add_array``, the
    reservoirs then see the same value sequence at any chunk size.
    """
    same = b[1:] == b[:-1]
    chunk_table = _BlockTable.from_sorted_events(b, t, w)
    dt_link, prev_link, cur_link, shared = table.link(chunk_table)
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    order = np.argsort(np.concatenate((pos[1:][same], pos[first][shared])))
    dt = np.concatenate(((t[1:] - t[:-1])[same], dt_link))[order]
    prev_w = np.concatenate((w[:-1][same], prev_link))[order]
    cur_w = np.concatenate((w[1:][same], cur_link))[order]
    return dt, prev_w, cur_w, chunk_table


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
    ) -> None:
        self.name = "temporal"
        self.block_size = block_size
        self.reservoir_size = reservoir_size
        self.percentiles = percentiles
        self.required_columns = ("timestamps", "offsets", "sizes", "is_write")

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

        # Same-block transitions, within the chunk and against everything
        # consumed so far.
        dt, prev_w, cur_w, chunk_table = _chunk_pairs(state.table, b, t, w, order)
        self._accumulate(state, dt, prev_w, cur_w)
        state.table = state.table.combined(chunk_table)

        # Update intervals: consecutive writes to a block (reads between OK).
        if w.any():
            ones = np.ones(int(np.count_nonzero(w)), dtype=bool)
            dtw, _, _, wchunk = _chunk_pairs(state.wtable, b[w], t[w], ones, order[w])
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
        self._accumulate(merged, *earlier.table.link(later.table)[:3])
        dtw, _, _, _ = earlier.wtable.link(later.wtable)
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


@dataclass(frozen=True)
class StreamingVolumeProfile:
    """Bounded-memory profile of one volume (estimates marked ~)."""

    volume_id: str
    n_requests: int
    n_reads: int
    n_writes: int
    read_bytes: int
    write_bytes: int
    start_time: float
    end_time: float
    #: ~ distinct blocks touched (HLL estimate), in bytes
    wss_total_bytes: float
    wss_read_bytes: float
    wss_write_bytes: float
    #: ~ request-size percentiles from a reservoir: {p: value}
    size_percentiles: Dict[float, float]
    #: ~ inter-arrival percentiles from a reservoir: {p: seconds}
    interarrival_percentiles: Dict[float, float]

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def average_intensity(self) -> float:
        if self.n_requests < 2 or self.duration <= 0:
            return 0.0
        return self.n_requests / self.duration

    @property
    def write_read_ratio(self) -> float:
        if self.n_reads == 0:
            return float("inf") if self.n_writes else float("nan")
        return self.n_writes / self.n_reads

    @property
    def read_wss_fraction(self) -> float:
        if self.wss_total_bytes <= 0:
            return float("nan")
        return self.wss_read_bytes / self.wss_total_bytes


def _add_working_sets(total: HyperLogLog, read: HyperLogLog, write: HyperLogLog,
                      block_id: np.ndarray, is_write: np.ndarray) -> None:
    """Add a chunk's blocks to its total/read/write sketches (same ``p``
    and seed): each block is hashed and ranked once, and the total is the
    union of the read and write sketches."""
    idx, ranks = read.positions(block_id)
    read.add_positions(idx[~is_write], ranks[~is_write])
    write.add_positions(idx[is_write], ranks[is_write])
    total.update(read, write)


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
    """The bounded-memory volume profile as an engine fold.

    Finalizes each volume to a :class:`StreamingVolumeProfile`.  Its exact
    counters equal the volume's :class:`~repro.trace.dataset.VolumeTrace`
    counters; sketch seeds hash the volume id, so results are reproducible
    under parallel fan-out.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        hll_precision: int = 14,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
    ) -> None:
        self.name = "streaming_profile"
        self.block_size = block_size
        self.reservoir_size = reservoir_size
        self.hll_precision = hll_precision
        self.percentiles = percentiles
        self.required_columns = ("timestamps", "offsets", "sizes", "is_write")

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
            # Prepend the cross-chunk gap so every gap flows through
            # add_array, whose RNG consumption is batching-invariant —
            # reservoir contents then do not depend on chunk size.
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
            # A state that consumed no rows finalizes to an empty
            # profile instead of raising.
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
