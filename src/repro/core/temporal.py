"""Temporal-pattern metrics (paper Section IV-C, Findings 12-14).

Covers the four adjacent-access transition types to the same block —
read-after-write (RAW), write-after-write (WAW), read-after-read (RAR),
write-after-read (WAR) — their elapsed-time distributions and counts, plus
block update intervals (time between consecutive writes to a block, reads
permitted in between).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..trace.blocks import block_events
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = [
    "TRANSITION_TYPES",
    "AdjacentAccessTimes",
    "adjacent_access_times",
    "dataset_adjacent_access_times",
    "adjacent_access_counts",
    "update_intervals",
    "dataset_update_intervals",
]

#: Transition names keyed by (previous op was write, current op is write).
TRANSITION_TYPES = {
    (True, False): "RAW",
    (True, True): "WAW",
    (False, False): "RAR",
    (False, True): "WAR",
}


@dataclass(frozen=True)
class AdjacentAccessTimes:
    """Elapsed times (seconds) of same-block adjacent accesses, by type."""

    raw: np.ndarray
    waw: np.ndarray
    rar: np.ndarray
    war: np.ndarray

    def counts(self) -> Dict[str, int]:
        return {
            "RAW": len(self.raw),
            "WAW": len(self.waw),
            "RAR": len(self.rar),
            "WAR": len(self.war),
        }

    def get(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name.lower())
        except AttributeError:
            raise KeyError(f"unknown transition type: {name!r}") from None


def _sorted_block_stream(trace: VolumeTrace, block_size: int):
    """Block events sorted by (block, time), preserving request order for
    simultaneous accesses to a block."""
    ev = block_events(trace, block_size)
    if len(ev) == 0:
        return None
    order = np.lexsort((ev.req_index, ev.timestamps, ev.block_id))
    return ev.block_id[order], ev.timestamps[order], ev.is_write[order]


def adjacent_access_times(
    trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE
) -> AdjacentAccessTimes:
    """Classify every same-block adjacent access pair of the volume.

    Each consecutive pair of accesses to the same block contributes one
    elapsed time to exactly one of the four transition types, keyed by the
    (previous, current) op pair.
    """
    stream = _sorted_block_stream(trace, block_size)
    empty = np.array([], dtype=np.float64)
    if stream is None:
        return AdjacentAccessTimes(empty, empty.copy(), empty.copy(), empty.copy())
    block_id, ts, is_write = stream
    same_block = block_id[1:] == block_id[:-1]
    dt = (ts[1:] - ts[:-1])[same_block]
    prev_w = is_write[:-1][same_block]
    cur_w = is_write[1:][same_block]
    return AdjacentAccessTimes(
        raw=dt[prev_w & ~cur_w],
        waw=dt[prev_w & cur_w],
        rar=dt[~prev_w & ~cur_w],
        war=dt[~prev_w & cur_w],
    )


def dataset_adjacent_access_times(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> AdjacentAccessTimes:
    """Fleet-level pooled transition times (paper Figures 14-15, Table V)."""
    parts: Dict[str, List[np.ndarray]] = {"raw": [], "waw": [], "rar": [], "war": []}
    for trace in dataset.volumes():
        at = adjacent_access_times(trace, block_size)
        parts["raw"].append(at.raw)
        parts["waw"].append(at.waw)
        parts["rar"].append(at.rar)
        parts["war"].append(at.war)
    empty = np.array([], dtype=np.float64)

    def cat(key: str) -> np.ndarray:
        arrays = [a for a in parts[key] if len(a)]
        return np.concatenate(arrays) if arrays else empty.copy()

    return AdjacentAccessTimes(raw=cat("raw"), waw=cat("waw"), rar=cat("rar"), war=cat("war"))


def adjacent_access_counts(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> Dict[str, int]:
    """Fleet-level RAW/WAW/RAR/WAR counts (paper Table V)."""
    return dataset_adjacent_access_times(dataset, block_size).counts()


def update_intervals(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Elapsed times between consecutive *writes* to the same block.

    Unlike WAW times, reads may occur between the two writes; a block
    written M times contributes M-1 intervals (Finding 14).
    """
    stream = _sorted_block_stream(trace.writes(), block_size)
    if stream is None:
        return np.array([], dtype=np.float64)
    block_id, ts, _ = stream
    same_block = block_id[1:] == block_id[:-1]
    return (ts[1:] - ts[:-1])[same_block]


def dataset_update_intervals(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> np.ndarray:
    """Pooled update intervals across the fleet (paper Table VI)."""
    arrays = [update_intervals(v, block_size) for v in dataset.volumes()]
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return np.array([], dtype=np.float64)
    return np.concatenate(arrays)
