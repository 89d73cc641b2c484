"""Synthetic-twin fitting: model a volume from an observed trace.

Closes the loop between analysis and generation: given a real (or
synthetic) volume trace, estimate the generative parameters — arrival
rate, write fraction, per-op size mixtures, working-set sizes, and Zipf
skew — and build a :class:`~repro.synth.volume_model.VolumeSpec` whose
generated trace matches the original's headline profile.  This is how a
practitioner turns one month of production traces into a reusable,
shareable workload model (no raw data leaves the house).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.hotspots import _ranked_traffic, fit_zipf
from ..trace.blocks import BlockView, block_view
from ..trace.dataset import VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from .address import UniformRandom, ZipfHotspot
from .arrival import JitteredRegular, MicroBurst, PoissonArrivals
from .sizes import ChoiceSizes
from .volume_model import VolumeSpec

__all__ = ["TwinParameters", "fit_twin", "twin_spec"]

GIB = 1024**3


@dataclass(frozen=True)
class TwinParameters:
    """Estimated generative parameters of one volume."""

    volume_id: str
    rate: float
    write_fraction: float
    read_sizes: Optional[ChoiceSizes]
    write_sizes: Optional[ChoiceSizes]
    read_wss_blocks: int
    write_wss_blocks: int
    #: blocks touched by both reads and writes (mixed blocks)
    overlap_blocks: int
    read_zipf_s: float
    write_zipf_s: float
    micro_burst_fraction: float

    @property
    def is_write_dominant(self) -> bool:
        return self.write_fraction > 0.5


def _size_mixture(sizes: np.ndarray) -> Optional[ChoiceSizes]:
    """Empirical size distribution as a categorical mixture (top 12 sizes,
    remainder folded into the nearest kept size)."""
    if len(sizes) == 0:
        return None
    values, counts = np.unique(sizes, return_counts=True)
    if len(values) > 12:
        keep = np.argsort(counts)[::-1][:12]
        kept_values = values[keep]
        # Reassign dropped mass to the nearest kept size.
        weights = np.zeros(len(kept_values), dtype=np.float64)
        for v, c in zip(values, counts):
            weights[np.argmin(np.abs(kept_values - v))] += c
        values, counts = kept_values, weights
    order = np.argsort(values)
    return ChoiceSizes(values[order].tolist(), counts[order].tolist())


def _zipf_exponent(view: BlockView, op: str) -> float:
    try:
        fit = fit_zipf(_ranked_traffic(view, op))
        return float(np.clip(fit.s, 0.0, 2.0))
    except ValueError:
        return 0.0


def fit_twin(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> TwinParameters:
    """Estimate the generative parameters of a volume trace."""
    if len(trace) < 10:
        raise ValueError("need at least 10 requests to fit a twin")
    duration = trace.duration
    rate = len(trace) / duration if duration > 0 else float(len(trace))
    gaps = np.diff(trace.timestamps)
    micro = float(np.mean(gaps < 1e-3)) if len(gaps) else 0.0
    view = block_view(trace, block_size)
    reads, writes = view.access_counts
    read_blocks = int(np.count_nonzero(reads))
    write_blocks = int(np.count_nonzero(writes))
    overlap = read_blocks + write_blocks - len(reads)
    return TwinParameters(
        volume_id=trace.volume_id,
        rate=rate,
        write_fraction=trace.n_writes / len(trace),
        read_sizes=_size_mixture(trace.sizes[~trace.is_write]),
        write_sizes=_size_mixture(trace.sizes[trace.is_write]),
        read_wss_blocks=read_blocks,
        write_wss_blocks=write_blocks,
        overlap_blocks=overlap,
        read_zipf_s=_zipf_exponent(view, "read"),
        write_zipf_s=_zipf_exponent(view, "write"),
        micro_burst_fraction=micro,
    )


def twin_spec(
    params: TwinParameters,
    volume_id: Optional[str] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    seed: int = 0,
) -> VolumeSpec:
    """Build a generative :class:`VolumeSpec` from fitted parameters.

    The twin reproduces the original's rate, op mix, size mixtures,
    working-set sizes, popularity skew, and micro-burst share; generate
    it over any window with :func:`~repro.synth.volume_model.generate_volume`.
    """
    fallback = ChoiceSizes([4096], [1.0])
    read_sizes = params.read_sizes or fallback
    write_sizes = params.write_sizes or fallback

    def address_model(n_blocks: int, s: float, region_start: int, seed_offset: int):
        n_blocks = max(n_blocks, 16)
        region = n_blocks * block_size * 4
        if s > 0.1:
            return (
                ZipfHotspot(
                    n_blocks, region, region_start=region_start, s=s,
                    seed=seed + seed_offset,
                ),
                region,
            )
        return UniformRandom(region, region_start=region_start), region

    write_addr, write_region = address_model(params.write_wss_blocks, params.write_zipf_s, 0, 1)
    # Reads split between their own territory and the written region, in
    # proportion to the observed working-set overlap (mixed blocks drive
    # the original's update coverage and RAW/WAR transitions).
    own_read_blocks = max(params.read_wss_blocks - params.overlap_blocks, 16)
    read_own, read_region = address_model(own_read_blocks, params.read_zipf_s, write_region, 2)
    if params.overlap_blocks > 0 and params.read_wss_blocks > 0:
        shared_blocks = min(max(params.overlap_blocks, 16), max(params.write_wss_blocks, 16))
        read_shared, _ = address_model(shared_blocks, params.read_zipf_s, 0, 3)
        overlap_frac = min(params.overlap_blocks / params.read_wss_blocks, 1.0)
        from .address import MixtureAddress

        read_addr = MixtureAddress([read_own, read_shared], [1 - overlap_frac + 1e-9, overlap_frac])
    else:
        read_addr = read_own
    if params.micro_burst_fraction > 0.05:
        # Followers-per-arrival budget E = f/(1-f) reproduces the observed
        # sub-ms gap share f.  MicroBurst emits burst_prob*(1+mean_extra)
        # followers per base arrival on average; solve for its parameters
        # and shrink the base rate so the TOTAL rate matches the original.
        followers = min(
            4.0, params.micro_burst_fraction / max(1 - params.micro_burst_fraction, 0.1)
        )
        if followers >= 1.0:
            burst_prob, extra = 0.5, 2 * followers - 1
        else:
            burst_prob, extra = followers * 0.99, 0.01
        base_rate = params.rate / (1 + burst_prob * (1 + extra))
        arrival = MicroBurst(
            PoissonArrivals(base_rate), burst_prob=burst_prob, mean_extra=extra, gap=50e-6
        )
    elif params.rate > 0.5:
        arrival = JitteredRegular(params.rate)
    else:
        arrival = PoissonArrivals(params.rate)
    capacity = max(40 * GIB, (write_region + read_region) * 2)
    return VolumeSpec(
        volume_id=volume_id or f"{params.volume_id}-twin",
        capacity=capacity,
        arrival=arrival,
        write_fraction=params.write_fraction,
        read_sizes=read_sizes,
        write_sizes=write_sizes,
        read_addresses=read_addr,
        write_addresses=write_addr,
    )
