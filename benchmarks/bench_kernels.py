"""Micro-benchmarks of the analysis kernels themselves.

Unlike the experiments report and the ablations (which run once), these
measure the throughput of the hot computational kernels the whole
pipeline rests on, with pytest-benchmark's normal statistical repetition.
Each lane names the repository-benchmark layer (``benchmarks/suite``,
traced pass) its kernel feeds; a kernel win counts once it shows there:

* request-to-block expansion -> ``trace.blocks.expand_to_blocks``,
* the volume profile: the block view and every block metric reduced from
  it (one packed-key sort per volume) -> ``core.compute_profile`` and
  ``core.findings.evaluate_findings``; the lane checks a small trace
  against the naive replay in ``tests/block_oracle.py``,
* the volume profile's scaling: ns/access and tracemalloc peak
  bytes/access of ``compute_profile`` at 2^16, 2^18 and 2^20 block
  accesses of a Zipf volume -> ``core.compute_profile``; the lane asserts
  the peak stays at or below 64 bytes per access,
* randomness-ratio computation (32-lag sliding-window minimum) ->
  ``core.compute_profile`` and ``core.findings.evaluate_findings``,
* exact reuse distances (a merge-sort count over runs of previous
  positions) on a random stream and on the block stream of multi-block
  requests, and LRU miss ratios from them ->
  ``core.cache_analysis.volume_miss_ratios`` and
  ``core.cache_analysis.dataset_miss_ratios``,
* same-block transition classification (RAW/WAW/RAR/WAR) ->
  ``core.temporal.adjacent_access_times``,
* LRU replay simulation (pure-Python inner loop) -> the non-LRU replay
  path of ``volume_miss_ratios``; no suite layer times it,
* HyperLogLog bulk insertion -> the working-set sketches of the
  ``spatial`` and ``streaming_profile`` engine folds, timed by
  ``engine.analyzers.streaming_profile.consume``,
* the streaming profile's consume and finalize over 100 small volumes
  (per-volume sketch set-up, reservoir fill, three HLL sketches, and the
  estimates and percentiles) -> ``engine.analyzers.streaming_profile.consume``
  and ``engine.analyzers.streaming_profile.finalize``; the lane checks
  the exact counters and the under-capacity percentiles,
* byte-level text parsing of AliCloud and MSRC trace files ->
  ``engine.chunks.parse`` (each lane checks its columns against the row
  readers).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py``;
add ``--benchmark-disable`` to run each lane once as a correctness smoke.
"""

import gc
import math
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro.cache import LRUCache, reuse_distances, simulate_lru, simulate_stream
from repro.core import adjacent_access_times, randomness_ratio
from repro.core.volume_profile import compute_profile
from repro.engine import Chunk, StreamingProfileAnalyzer, iter_chunks
from repro.stats import HyperLogLog
from repro.trace import VolumeTrace
from repro.trace.blocks import block_view, expand_to_blocks
from repro.trace.reader import iter_alicloud_requests, iter_msrc_requests

N_REQUESTS = 200_000
N_PARSE_ROWS = 50_000


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


def test_kernel_block_view(benchmark, kernel_trace):
    profile = benchmark(compute_profile, kernel_trace)
    assert profile.working_sets.total > 0

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
    from block_oracle import replay

    rng = np.random.default_rng(12)
    n = 3000
    small = VolumeTrace("small", np.sort(rng.integers(0, 500, n)) * 0.5,
                        rng.integers(0, 2400, n) * 512, rng.choice([512, 4096, 12800], n),
                        rng.random(n) < 0.6, presorted=True)
    got, want = compute_profile(small), replay(small)
    ws = got.working_sets
    assert (ws.total, ws.read, ws.write, ws.update) == want["working_sets"]
    assert got.update_traffic == want["update_traffic"]
    assert got.mostly_bytes == want["mostly_bytes"]
    for op in ("read", "write"):
        for k in (0.01, 0.10):
            value, expected = getattr(got, f"top{int(k * 100)}_{op}_traffic"), want["top"][op, k]
            assert value == expected or math.isnan(value) and math.isnan(expected)
    assert {k: got.transitions.get(k).tolist() for k in want["transitions"]} == want["transitions"]
    assert got.update_intervals.tolist() == want["update_intervals"]
    for r in got.miss_ratios:
        res = r.result
        counts = (res.read_hits, res.read_misses, res.write_hits, res.write_misses)
        assert (r.capacity_blocks, counts) == want["miss"][r.cache_fraction]


def _zipf_volume(accesses: int, seed: int) -> VolumeTrace:
    """Sector-aligned requests of 512 B to 32 KiB on Zipf-ranked blocks,
    cut at the first request that reaches ``accesses`` 4 KiB accesses."""
    rng = np.random.default_rng(seed)
    n = accesses // 2
    offsets = (np.minimum(rng.zipf(1.2, n), 1 << 20) * 8 + rng.integers(0, 8, n)) * 512
    sizes = rng.choice([512, 4096, 8192, 12288, 16384, 32768], n)
    per_request = (offsets + sizes - 1) // 4096 - offsets // 4096 + 1
    keep = int(np.searchsorted(np.cumsum(per_request), accesses)) + 1
    return VolumeTrace("zipf", np.sort(rng.random(n))[:keep] * 3600, offsets[:keep],
                       sizes[:keep], (rng.random(n) < 0.6)[:keep], presorted=True)


def test_kernel_profile_scaling():
    """The one block pass per volume holds at most 64 bytes per access."""
    compute_profile(_zipf_volume(1000, 0))  # imports and caches outside the trace
    for log2 in (16, 18, 20):
        trace = _zipf_volume(1 << log2, log2)
        accesses = len(expand_to_blocks(trace.offsets, trace.sizes)[1])
        gc.collect()
        tracemalloc.start()
        try:
            compute_profile(trace)
            peak = tracemalloc.get_traced_memory()[1] / accesses
        finally:
            tracemalloc.stop()
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            compute_profile(trace)
            best = min(best, time.perf_counter() - start)
        print(f"compute_profile 2^{log2}: {accesses} accesses, "
              f"{best / accesses * 1e9:.0f} ns/access, {peak:.1f} peak B/access")
        assert peak <= 64


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


def test_kernel_reuse_distances_extents(benchmark):
    """Multi-block requests over a 64 MiB region re-read recent extents, so
    the previous positions of the re-accesses form runs."""
    rng = np.random.default_rng(13)
    n = 20_000
    trace = VolumeTrace("extents", np.arange(n, dtype=float), rng.integers(0, 1 << 14, n) * 4096,
                        rng.choice([4096, 16384, 65536], n), rng.random(n) < 0.5, presorted=True)
    view = block_view(trace)
    gap = view.previous[view.previous >= 0]
    runs = 1 + np.count_nonzero(np.diff(gap) != 1)
    assert 2 * runs <= len(gap)

    distances = benchmark(reuse_distances, view.block_id)
    for capacity in (100, 2000):
        want = simulate_stream(view.block_id, view.is_write, LRUCache(capacity))
        assert simulate_lru(distances, view.is_write, capacity) == want


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


def test_kernel_streaming_profile(benchmark):
    rng = np.random.default_rng(21)
    chunks = []
    for v in range(100):
        n = int(rng.integers(1_000, 2_700))
        trace = VolumeTrace(
            f"vol{v}", np.sort(rng.random(n) * 86_400.0),
            rng.integers(0, 1 << 20, n) * 4096,
            rng.choice([4096, 8192, 16384, 65536], n).astype(np.int64),
            rng.random(n) < 0.7, presorted=True,
        )
        chunks.append(Chunk.from_trace(trace))
    analyzer = StreamingProfileAnalyzer()

    def run():
        return [
            analyzer.finalize(analyzer.consume(analyzer.init_state(c.volume_id), c))
            for c in chunks
        ]

    profiles = benchmark(run)
    for chunk, profile in zip(chunks, profiles):
        assert profile.n_requests == len(chunk)
        assert profile.n_writes == int(chunk.is_write.sum())
        expected = np.percentile(chunk.sizes.astype(np.float64), analyzer.percentiles)
        assert list(profile.size_percentiles.values()) == expected.tolist()
        assert profile.wss_total_bytes >= max(profile.wss_read_bytes, profile.wss_write_bytes)


def _parse_lane(benchmark, path, fmt, read_rows):
    chunks = benchmark(lambda: list(iter_chunks(str(path), fmt)))
    got = {}
    for chunk in chunks:
        cols = got.setdefault(chunk.volume_id, ([], [], [], [], []))
        for col, values in zip(cols, (chunk.timestamps, chunk.offsets, chunk.sizes,
                                       chunk.is_write, chunk.response_times)):
            col.extend([] if values is None else values.tolist())
    want = {}
    for r in read_rows(str(path)):
        cols = want.setdefault(r.volume, ([], [], [], [], []))
        for col, value in zip(cols, (r.timestamp, r.offset, r.size, r.is_write,
                                     r.response_time)):
            if value is not None:
                col.append(value)
    assert got == want


def test_kernel_parse_alicloud(benchmark, tmp_path):
    rng = np.random.default_rng(10)
    n = N_PARSE_ROWS
    columns = (rng.integers(0, 20, n), rng.choice(["R", "W"], n),
               rng.integers(0, 1 << 28, n) * 512, rng.choice([4096, 8192, 65536], n),
               np.sort(rng.integers(1_500_000_000_000_000, 1_600_000_000_000_000, n)))
    path = tmp_path / "ali.csv"
    path.write_text("".join(f"v{v},{o},{off},{sz},{ts}\n" for v, o, off, sz, ts in zip(*columns)))
    _parse_lane(benchmark, path, "alicloud", iter_alicloud_requests)


def test_kernel_parse_msrc(benchmark, tmp_path):
    rng = np.random.default_rng(11)
    n = N_PARSE_ROWS
    # Filetimes below 2**53 divide exactly on both paths.
    columns = (np.sort(rng.integers(8_000_000_000_000_000, 9_000_000_000_000_000, n)),
               rng.choice(["src1", "web", "hm"], n), rng.integers(0, 3, n),
               rng.choice(["Read", "Write"], n), rng.integers(0, 1 << 28, n) * 512,
               rng.choice([4096, 8192, 65536], n), rng.integers(1_000, 1_000_000, n))
    path = tmp_path / "msrc.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in zip(*columns)))
    _parse_lane(benchmark, path, "msrc", iter_msrc_requests)
