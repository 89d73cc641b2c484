"""Hot-block analysis and Zipf skew estimation.

Finding 9's aggregation metrics summarize the skew of block popularity;
this module exposes the underlying distribution: ranked per-block traffic,
the concentration curve (what fraction of traffic the top-x% of blocks
hold), and a Zipf exponent estimate via log-log regression on the
rank-frequency series — the standard way to parameterize hot-spot models
(e.g. to fit :class:`~repro.synth.address.ZipfHotspot` to a real volume).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..trace.blocks import BlockView, block_view
from ..trace.dataset import VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = ["ZipfFit", "ranked_block_traffic", "concentration_curve", "fit_zipf"]


def ranked_block_traffic(
    trace: VolumeTrace, op: Optional[str] = None, block_size: int = DEFAULT_BLOCK_SIZE
) -> np.ndarray:
    """Per-block traffic (bytes) sorted descending (rank 0 = hottest).

    ``op`` restricts to ``"read"`` or ``"write"`` traffic; default sums
    both.  Untouched blocks are excluded.
    """
    return _ranked_traffic(block_view(trace, block_size), op)


def _ranked_traffic(view: BlockView, op: Optional[str]) -> np.ndarray:
    read_bytes, write_bytes = view.traffic
    if op == "read":
        traffic = read_bytes
    elif op == "write":
        traffic = write_bytes
    elif op is None:
        traffic = read_bytes + write_bytes
    else:
        raise ValueError(f"op must be None, 'read', or 'write', got {op!r}")
    traffic = traffic[traffic > 0]
    return np.sort(traffic)[::-1]


def concentration_curve(ranked: np.ndarray, points: int = 100) -> Tuple[np.ndarray, np.ndarray]:
    """Traffic concentration: ``(block_fraction, traffic_fraction)``.

    ``traffic_fraction[i]`` is the share of traffic held by the hottest
    ``block_fraction[i]`` of blocks — the Lorenz-style curve behind
    Figure 11's top-1%/top-10% readings.
    """
    ranked = np.asarray(ranked, dtype=np.float64)
    if len(ranked) == 0:
        raise ValueError("no traffic to analyze")
    if np.any(np.diff(ranked) > 0):
        raise ValueError("ranked traffic must be sorted descending")
    cum = np.cumsum(ranked) / ranked.sum()
    idx = np.unique(np.linspace(0, len(ranked) - 1, min(points, len(ranked))).astype(int))
    return (idx + 1) / len(ranked), cum[idx]


@dataclass(frozen=True)
class ZipfFit:
    """Zipf exponent fit of a rank-frequency series."""

    s: float
    #: R^2 of the log-log regression (1 = perfectly Zipfian)
    r_squared: float
    n_blocks: int

    @property
    def is_skewed(self) -> bool:
        """Heuristic: an exponent above ~0.5 marks meaningful skew."""
        return self.s > 0.5


def fit_zipf(ranked: np.ndarray, min_blocks: int = 10) -> ZipfFit:
    """Least-squares fit of ``traffic ~ rank^-s`` in log-log space.

    The fit uses all ranks with positive traffic; heavily discretized
    tails (many equal-traffic blocks) lower the R^2, which is the signal
    that a Zipf model is a poor description.
    """
    ranked = np.asarray(ranked, dtype=np.float64)
    ranked = ranked[ranked > 0]
    if len(ranked) < min_blocks:
        raise ValueError(f"need at least {min_blocks} blocks with traffic")
    log_rank = np.log(np.arange(1, len(ranked) + 1, dtype=np.float64))
    log_traffic = np.log(ranked)
    slope, intercept = np.polyfit(log_rank, log_traffic, 1)
    predicted = slope * log_rank + intercept
    ss_res = float(np.sum((log_traffic - predicted) ** 2))
    ss_tot = float(np.sum((log_traffic - log_traffic.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ZipfFit(s=float(-slope), r_squared=r_squared, n_blocks=len(ranked))
