"""Temporal-pattern metrics (paper Section IV-C, Findings 12-14).

Covers the four adjacent-access transition types to the same block —
read-after-write (RAW), write-after-write (WAW), read-after-read (RAR),
write-after-read (WAR) — their elapsed-time distributions and counts, plus
block update intervals (time between consecutive writes to a block, reads
permitted in between).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from ..trace.blocks import BlockView, block_view
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = [
    "TRANSITION_TYPES",
    "AdjacentAccessTimes",
    "adjacent_access_times",
    "dataset_adjacent_access_times",
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


def _transitions(view: BlockView) -> AdjacentAccessTimes:
    earlier, later = view.pairs
    dt = view.timestamps[later] - view.timestamps[earlier]
    prev_w = view.is_write[earlier]
    cur_w = view.is_write[later]
    return AdjacentAccessTimes(
        raw=dt[prev_w & ~cur_w],
        waw=dt[prev_w & cur_w],
        rar=dt[~prev_w & ~cur_w],
        war=dt[~prev_w & cur_w],
    )


def _concat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    arrays = [a for a in arrays if len(a)]
    return np.concatenate(arrays) if arrays else np.array([], dtype=np.float64)


def _pool_transitions(parts: Iterable[AdjacentAccessTimes]) -> AdjacentAccessTimes:
    """Concatenate per-volume transition times, in volume order."""
    parts = list(parts)
    return AdjacentAccessTimes(
        *(_concat(getattr(p, key) for p in parts) for key in ("raw", "waw", "rar", "war"))
    )


def adjacent_access_times(
    trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE
) -> AdjacentAccessTimes:
    """Classify every same-block adjacent access pair of the volume.

    Each consecutive pair of accesses to the same block contributes one
    elapsed time to exactly one of the four transition types, keyed by the
    (previous, current) op pair.
    """
    return _transitions(block_view(trace, block_size))


def dataset_adjacent_access_times(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> AdjacentAccessTimes:
    """Fleet-level pooled transition times (paper Figures 14-15, Table V)."""
    return _pool_transitions(
        adjacent_access_times(v, block_size) for v in dataset.non_empty_volumes()
    )


def _update_intervals(view: BlockView) -> np.ndarray:
    earlier, later = view.write_pairs
    return view.timestamps[later] - view.timestamps[earlier]


def update_intervals(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Elapsed times between consecutive *writes* to the same block.

    Unlike WAW times, reads may occur between the two writes; a block
    written M times contributes M-1 intervals (Finding 14).
    """
    # The writes alone make a smaller view with the same write pairs.
    return _update_intervals(block_view(trace.writes(), block_size))


def dataset_update_intervals(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> np.ndarray:
    """Pooled update intervals across the fleet (paper Table VI)."""
    return _concat(update_intervals(v, block_size) for v in dataset.non_empty_volumes())
