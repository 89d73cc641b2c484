"""HyperLogLog cardinality estimation.

Working-set sizes are distinct-block counts; on the real AliCloud traces
(tens of billions of requests, billions of distinct blocks) exact sets do
not fit in memory.  HyperLogLog estimates distinct counts with a few KiB
of state and ~1-2% error at ``p=14`` — the substrate behind the streaming
profiler's WSS fields.

Standard HLL with the bias corrections from Flajolet et al. (small-range
linear counting, large-range correction is unnecessary for 64-bit hashes).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["HyperLogLog"]

# Splitmix64 finalizer (same mixer as repro.cache.shards).
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        x = x ^ (x >> np.uint64(31))
    return x


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Exact bit length of uint64 values.

    float64 holds integers below 2**53 exactly, so ``frexp`` reads the bit
    length off the top 53 bits (``v >> 11``), or off ``v`` itself when
    those are all zero (``v < 2**11``).
    """
    top = v >> np.uint64(11)
    big = top > 0
    return np.frexp(np.where(big, top, v).astype(np.float64))[1] + 11 * big


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


class HyperLogLog:
    """Distinct-count sketch over 64-bit integer items.

    Args:
        p: precision — ``2**p`` registers; relative error ~1.04/sqrt(2**p)
           (p=14 -> ~0.8%).  4 <= p <= 18.
        seed: hash seed, so independent sketches decorrelate.
    """

    def __init__(self, p: int = 14, seed: int = 0) -> None:
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self._registers = np.zeros(self.m, dtype=np.uint8)
        self._seed = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)

    def add(self, item: int) -> None:
        """Add one integer item."""
        self.add_many(np.array([item], dtype=np.int64))

    def add_many(self, items: np.ndarray) -> None:
        """Vectorized bulk insert of int64 items."""
        self.add_positions(*self.positions(items))

    def positions(self, items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(register index, rank)`` of each int64 item.

        The hash step of :meth:`add_many`.  Sketches with the same ``p``
        and ``seed`` give the same positions, so one call can feed several
        of them (or subsets of the items) through :meth:`add_positions`.
        """
        items = np.asarray(items, dtype=np.int64)
        hashed = _mix64(items.view(np.uint64) ^ self._seed)
        idx = (hashed >> np.uint64(64 - self.p)).astype(np.intp)
        # rank = 1 + leading zeros of the remaining 64 - p bits, or
        # 64 - p + 1 when they are all zero.
        low = hashed & np.uint64((1 << (64 - self.p)) - 1)
        ranks = (65 - self.p - _bit_length(low)).astype(np.uint8)
        return idx, ranks

    def add_positions(self, idx: np.ndarray, ranks: np.ndarray) -> None:
        """Raise registers ``idx`` to at least ``ranks`` (see :meth:`positions`)."""
        np.maximum.at(self._registers, idx, ranks)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union of two sketches (must share p and seed)."""
        if self.p != other.p or self._seed != other._seed:
            raise ValueError("can only merge sketches with identical p and seed")
        merged = HyperLogLog(self.p)
        merged._seed = self._seed
        merged._registers = np.maximum(self._registers, other._registers)
        return merged

    def estimate(self) -> float:
        """Estimated number of distinct items added."""
        registers = self._registers.astype(np.float64)
        raw = _alpha(self.m) * self.m**2 / np.sum(2.0 ** (-registers))
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * self.m and zeros:
            # Small-range correction: linear counting.
            return self.m * np.log(self.m / zeros)
        return float(raw)

    def __len__(self) -> int:
        """Rounded estimate."""
        return int(round(self.estimate()))
