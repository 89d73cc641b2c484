"""Micro-benchmarks of the analysis kernels themselves.

Unlike the table/figure benches (which run once and assert shape), these
measure the throughput of the hot computational kernels the whole
pipeline rests on, with pytest-benchmark's normal statistical repetition.
Each lane names the repository-benchmark layer (``benchmarks/suite``,
traced pass) its kernel feeds; a kernel win counts once it shows there:

* request-to-block expansion -> ``trace.blocks.expand_to_blocks``,
* randomness-ratio computation (32-lag sliding-window minimum) ->
  ``core.compute_profile`` and ``core.findings.evaluate_findings``,
* exact reuse distances (merge-sort inversion count) and LRU miss ratios
  from them -> ``core.cache_analysis.volume_miss_ratios`` and
  ``core.cache_analysis.dataset_miss_ratios``,
* same-block transition classification (RAW/WAW/RAR/WAR) ->
  ``core.temporal.adjacent_access_times``,
* LRU replay simulation (pure-Python inner loop) -> the non-LRU replay
  path of ``volume_miss_ratios``; no suite layer times it,
* HyperLogLog bulk insertion -> the ``spatial`` engine fold; no suite
  layer times it.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py``;
add ``--benchmark-disable`` to run each lane once as a correctness smoke.
"""

import numpy as np
import pytest

from repro.cache import LRUCache, reuse_distances, simulate_lru, simulate_stream
from repro.core import adjacent_access_times, randomness_ratio
from repro.stats import HyperLogLog
from repro.trace import VolumeTrace
from repro.trace.blocks import expand_to_blocks

N_REQUESTS = 200_000


@pytest.fixture(scope="module")
def kernel_trace():
    rng = np.random.default_rng(99)
    timestamps = np.sort(rng.random(N_REQUESTS) * 1e4)
    offsets = rng.integers(0, 1 << 22, N_REQUESTS) * 4096
    sizes = rng.choice([4096, 8192, 16384, 65536], N_REQUESTS).astype(np.int64)
    is_write = rng.random(N_REQUESTS) < 0.7
    return VolumeTrace("kern", timestamps, offsets, sizes, is_write, presorted=True)


def test_kernel_expand_to_blocks(benchmark, kernel_trace):
    req, blk, nb = benchmark(expand_to_blocks, kernel_trace.offsets, kernel_trace.sizes)
    assert nb.sum() == kernel_trace.sizes.sum()


def test_kernel_randomness_ratio(benchmark, kernel_trace):
    ratio = benchmark(randomness_ratio, kernel_trace)
    assert 0 <= ratio <= 1


def test_kernel_adjacent_access_times(benchmark, kernel_trace):
    at = benchmark(adjacent_access_times, kernel_trace)
    assert sum(at.counts().values()) >= 0


def test_kernel_reuse_distances(benchmark):
    rng = np.random.default_rng(7)
    stream = rng.integers(0, 5000, 50_000)
    distances = benchmark(reuse_distances, stream)
    assert len(distances) == len(stream)


def test_kernel_lru_simulation(benchmark):
    rng = np.random.default_rng(8)
    blocks = rng.integers(0, 5000, 100_000)
    is_write = rng.random(100_000) < 0.5

    def run():
        return simulate_stream(blocks, is_write, LRUCache(500))

    result = benchmark(run)
    assert result.n_accesses == 100_000


def test_kernel_lru_miss_ratios(benchmark):
    rng = np.random.default_rng(8)
    blocks = rng.integers(0, 5000, 100_000)
    is_write = rng.random(100_000) < 0.5
    capacities = (50, 500)

    def run():
        distances = reuse_distances(blocks)
        return [simulate_lru(distances, is_write, c) for c in capacities]

    results = benchmark(run)
    assert results == [simulate_stream(blocks, is_write, LRUCache(c)) for c in capacities]


def test_kernel_hll_bulk_insert(benchmark):
    rng = np.random.default_rng(9)
    items = rng.integers(0, 1 << 40, 500_000)

    def run():
        hll = HyperLogLog(p=14)
        hll.add_many(items)
        return hll

    hll = benchmark(run)
    assert len(hll) > 0
