"""Streaming statistics for single-pass trace processing.

When traces are too large to hold in memory (the real AliCloud release is
tens of GB), analyses can fold rows through these accumulators instead of
materializing arrays.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

__all__ = ["StreamingMoments", "ReservoirSampler", "StreamingMinMax"]

#: Seed of the fallback reservoir generator.  A caller that does not
#: thread its own seeded Generator still gets run-to-run identical
#: sampling (RC001: no fresh OS entropy in analysis paths).
DEFAULT_RESERVOIR_SEED = 0x5EED


class StreamingMoments:
    """Welford single-pass mean/variance accumulator."""

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)

    def add_many(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(float(x))

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two accumulators (parallel reduction; Chan's formula)."""
        merged = StreamingMoments()
        n = self._n + other._n
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = self._mean + delta * other._n / n
        merged._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        return merged

    @property
    def n(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance."""
        if self._n == 0:
            raise ValueError("no samples")
        return self._m2 / self._n

    @property
    def sample_variance(self) -> float:
        if self._n < 2:
            raise ValueError("need at least two samples")
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class StreamingMinMax:
    """Single-pass min/max tracker."""

    def __init__(self) -> None:
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, x: float) -> None:
        if self._min is None or x < self._min:
            self._min = x
        if self._max is None or x > self._max:
            self._max = x

    def add_many(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(float(x))

    @property
    def min(self) -> float:
        if self._min is None:
            raise ValueError("no samples")
        return self._min

    @property
    def max(self) -> float:
        if self._max is None:
            raise ValueError("no samples")
        return self._max


class ReservoirSampler:
    """Uniform fixed-size reservoir sample of a stream (Vitter's algorithm R).

    Quantiles of the reservoir approximate quantiles of the full stream,
    which is how percentile metrics stay bounded-memory on huge traces.

    The sample is a float64 array.  Draws come from ``rng`` when given,
    else from a ``default_rng(seed)`` created on the first draw, so a
    reservoir that never overflows builds no generator and the draw
    stream is the same either way.
    """

    def __init__(
        self,
        capacity: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = DEFAULT_RESERVOIR_SEED,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = rng
        self._seed = seed
        self._items = np.empty(0, dtype=np.float64)
        self._seen = 0

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng

    def add(self, x: float) -> None:
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items = np.append(self._items, np.float64(x))
        else:
            j = int(self._generator().integers(0, self._seen))
            if j < self.capacity:
                self._items[j] = x

    def add_many(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(float(x))

    def add_array(self, xs: np.ndarray) -> None:
        """Vectorized bulk insert (algorithm R over a whole array).

        Distributionally equivalent to calling :meth:`add` per element —
        each incoming item t (1-based global index) replaces a uniformly
        chosen slot ``j ~ U[0, t)`` when ``j < capacity`` — but draws the
        random slots in one batch, so feeding chunked column arrays costs
        O(batch) numpy work.  When a batch draws one slot several times,
        its last item wins, as it would item by item.
        """
        xs = np.asarray(xs, dtype=np.float64).ravel()
        if len(xs) == 0:
            return
        fill = min(self.capacity - len(self._items), len(xs))
        if fill > 0:
            self._items = np.concatenate((self._items, xs[:fill]))
            self._seen += fill
            xs = xs[fill:]
            if len(xs) == 0:
                return
        t = self._seen + np.arange(1, len(xs) + 1, dtype=np.int64)
        slots = (self._generator().random(len(xs)) * t).astype(np.int64)
        self._seen += len(xs)
        hits = np.flatnonzero(slots < self.capacity)
        # Sorted stably by slot, the last hit of each run of equal slots
        # is that slot's last write; assigning only those leaves no
        # repeated index for numpy's fancy assignment to order.
        order = np.argsort(slots[hits], kind="stable")
        hits = hits[order]
        ordered = slots[hits]
        last = np.ones(len(hits), dtype=bool)
        last[:-1] = ordered[1:] != ordered[:-1]
        self._items[ordered[last]] = xs[hits[last]]

    def merge(self, other: "ReservoirSampler") -> "ReservoirSampler":
        """Combine two reservoirs into one sample of the concatenated streams.

        The number of survivors drawn from each side follows the
        hypergeometric law of a uniform without-replacement sample over
        the union stream, so quantile estimates from the merged reservoir
        match those of a single-pass reservoir over both streams (used by
        the engine's parallel per-file fold → merge reduction).  The
        merged reservoir continues this one's draw stream.
        """
        if other.capacity != self.capacity:
            raise ValueError("can only merge reservoirs with identical capacity")
        a, b = self._items, other._items
        if len(a) + len(b) > self.capacity:
            k = self.capacity
            rng = self._generator()
            from_a = int(rng.hypergeometric(self._seen, other._seen, k))
            from_a = min(max(from_a, k - len(b)), len(a))
            a = a[rng.choice(len(a), size=from_a, replace=False)]
            b = b[rng.choice(len(b), size=k - from_a, replace=False)]
        merged = ReservoirSampler(self.capacity, self._rng, self._seed)
        merged._seen = self._seen + other._seen
        merged._items = np.concatenate((a, b))
        return merged

    @property
    def n_seen(self) -> int:
        return self._seen

    def sample(self) -> np.ndarray:
        return self._items.copy()

    def percentile(self, p: float) -> float:
        if len(self._items) == 0:
            raise ValueError("no samples")
        return float(np.percentile(self._items, p))
