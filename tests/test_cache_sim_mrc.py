"""Tests for cache simulation, reuse distances, MRC, and SHARDS."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    INFINITE_DISTANCE,
    LRUCache,
    mrc_from_distances,
    mrc_from_stream,
    reuse,
    reuse_distances,
    shards_mrc,
    shards_sample_mask,
    simulate_stream,
    simulate_trace,
)

from conftest import make_trace

#: Lengths 2^k - 1, 2^k and 2^k + 1 around the shifted-compare tile (16)
#: and every merge level up to 2048.
BOUNDARY_LENGTHS = sorted({2**k + d for k in range(1, 12) for d in (-1, 0, 1)})


def _extents(starts, lengths):
    """The block stream of requests reading ``lengths[k]`` blocks from ``starts[k]``."""
    return np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lengths)])


def _naive_greater_before(p, weights):
    """``sum(weights[j] for j < i if p[j] > p[i])`` by brute force."""
    earlier_greater = np.tril(p[None, :] > p[:, None], -1)
    return earlier_greater.astype(np.int64) @ weights


def _naive_distances(stream):
    """Reuse distances by definition: distinct ids since the last access."""
    last, out = {}, []
    for i, b in enumerate(stream):
        out.append(len(set(stream[last[b] + 1 : i])) if b in last else INFINITE_DISTANCE)
        last[b] = i
    return out


class TestReuseDistances:
    def test_first_touches_are_infinite(self):
        d = reuse_distances(np.array([1, 2, 3]))
        assert list(d) == [INFINITE_DISTANCE] * 3

    def test_immediate_reuse_is_zero(self):
        d = reuse_distances(np.array([1, 1]))
        assert d[1] == 0

    def test_classic_example(self):
        # a b c a : distance of final a is 2 (b and c in between)
        d = reuse_distances(np.array([1, 2, 3, 1]))
        assert d[3] == 2

    def test_repeated_interleaving(self):
        d = reuse_distances(np.array([1, 2, 1, 2, 1]))
        assert list(d[2:]) == [1, 1, 1]

    def test_duplicates_between_count_once(self):
        # a b b a : only one distinct block between the two a's.
        d = reuse_distances(np.array([1, 2, 2, 1]))
        assert d[3] == 1

    def test_empty(self):
        assert len(reuse_distances(np.array([]))) == 0

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_naive(self, stream):
        """The merge-sort kernel equals the obvious O(n^2) computation."""
        assert reuse_distances(np.asarray(stream)).tolist() == _naive_distances(stream)

    @given(
        n=st.one_of(st.integers(0, 2000), st.sampled_from(BOUNDARY_LENGTHS)),
        distinct=st.sampled_from([1, 2, 17, 300, 5000]),
        extreme_ids=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_long_streams_match_naive(self, n, distinct, extreme_ids, seed):
        """Lengths past every tile and merge level, negative ids and ids
        near +/-2^62."""
        rng = np.random.default_rng(seed)
        if extreme_ids:
            ids = rng.integers(-(2**62), 2**62, size=distinct)
            edges = [-(2**62), 2**62 - 1, -1, 0][:distinct]
            ids[: len(edges)] = edges
        else:
            ids = np.arange(distinct) - distinct // 2
        stream = ids[rng.integers(0, distinct, size=n)]
        assert reuse_distances(stream).tolist() == _naive_distances(stream.tolist())

    @pytest.mark.parametrize("m", BOUNDARY_LENGTHS)
    def test_reaccess_count_at_boundaries(self, m):
        """The merge runs over the re-accesses alone: put exactly ``m`` of
        them after 40 first touches."""
        rng = np.random.default_rng(m)
        stream = np.concatenate([np.arange(40), rng.integers(0, 40, size=m)])
        assert reuse_distances(stream).tolist() == _naive_distances(stream.tolist())

    @pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
    def test_all_equal_stream(self, n):
        assert reuse_distances(np.full(n, -7)).tolist() == [INFINITE_DISTANCE] + [0] * (n - 1)

    @pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
    def test_all_distinct_stream(self, n):
        stream = np.arange(n)[::-1] * (2**40) - 2**61
        assert reuse_distances(stream).tolist() == [INFINITE_DISTANCE] * n

    @given(
        extents=st.lists(st.tuples(st.integers(0, 120), st.integers(1, 40)), min_size=1,
                         max_size=80),
        lead=st.integers(0, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_repeated_extents_match_naive(self, extents, lead):
        """Multi-block requests over a small hot region re-read recent
        extents, so the previous positions form runs; ``lead`` first
        touches shift the runs across tile and merge-level boundaries."""
        starts, lengths = zip(*extents)
        stream = np.concatenate([np.arange(-lead, 0), _extents(starts, lengths)])
        assert reuse_distances(stream).tolist() == _naive_distances(stream.tolist())

    @pytest.mark.parametrize("length", [1, 3, 15, 16, 17, 31, 33, 100])
    @pytest.mark.parametrize("lead", [0, 5, 16, 29])
    def test_sequential_rescans(self, length, lead):
        """Re-scanning an extent makes one run per scan; a few random reads
        between the scans split it."""
        rng = np.random.default_rng(length * 100 + lead)
        scans = [np.arange(length)] * 6 + [rng.integers(0, 2 * length, 3)] + [np.arange(length)] * 5
        stream = np.concatenate([np.arange(-lead, 0)] + scans)
        assert reuse_distances(stream).tolist() == _naive_distances(stream.tolist())

    @pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
    def test_weighted_kernel_at_boundaries(self, n):
        """The count over run heads, with the heads' weights, at lengths
        around the tile and every merge level."""
        rng = np.random.default_rng(n)
        p = rng.permutation(3 * n)[:n]
        weights = rng.integers(1, 9, n)
        assert reuse._greater_before(p, weights).tolist() == _naive_greater_before(p, weights).tolist()

    @pytest.mark.parametrize("fields", [0, 1, 4, 7, 10])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_kernel_count_flush(self, monkeypatch, fields, weighted):
        """A count field of ``fields`` bits overflows at some merge level;
        the kernel moves the counts out first and stays exact."""
        rng = np.random.default_rng(fields)
        n = 1500
        p = rng.permutation(4000)[:n]
        weights = rng.integers(1, 40, n) if weighted else None
        key_bits = int(p.max()).bit_length() + (n - 1).bit_length() + fields
        monkeypatch.setattr(reuse, "_KEY_BITS", key_bits)
        got = reuse._greater_before(p, weights)
        want = _naive_greater_before(p, np.ones(n, dtype=np.int64) if weights is None else weights)
        assert got.tolist() == want.tolist()

    def test_kernel_count_flush_for_a_heavy_tail(self, monkeypatch):
        """Only the partial block at the end is too heavy for the field."""
        n = 1500
        p = np.random.default_rng(3).permutation(n)
        weights = np.ones(n, dtype=np.int64)
        weights[-(n % 32) :] = 1000
        monkeypatch.setattr(reuse, "_KEY_BITS", 2 * (n - 1).bit_length() + 7)
        assert reuse._greater_before(p, weights).tolist() == _naive_greater_before(p, weights).tolist()

    def test_kernel_refuses_keys_that_do_not_fit(self):
        """Positions and values too wide for one int64 key fail loudly."""
        with pytest.raises(OverflowError):
            reuse._greater_before(np.array([2**62, 0]))

    def test_peak_memory_per_access(self):
        """Working memory stays linear with a small constant: at most 96
        bytes per access on a reuse-heavy stream."""
        n = 2**18 + 1
        stream = np.random.default_rng(5).integers(0, 3000, size=n)
        tracemalloc.start()
        try:
            reuse_distances(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 96


class TestSimulator:
    def test_counts_split_by_op(self):
        blocks = np.array([1, 1, 2, 2])
        is_write = np.array([False, True, True, False])
        res = simulate_stream(blocks, is_write, LRUCache(4))
        assert res.read_misses == 1  # block 1 first touch
        assert res.write_hits == 1  # block 1 second touch
        assert res.write_misses == 1  # block 2 first touch
        assert res.read_hits == 1  # block 2 second touch

    def test_ratios(self):
        blocks = np.array([1, 1, 1, 1])
        is_write = np.array([False, False, False, False])
        res = simulate_stream(blocks, is_write, LRUCache(2))
        assert res.read_miss_ratio == pytest.approx(0.25)
        assert res.hit_ratio == pytest.approx(0.75)
        assert np.isnan(res.write_miss_ratio)

    def test_simulate_trace_expands_blocks(self):
        tr = make_trace(
            timestamps=[0.0, 1.0],
            offsets=[0, 0],
            sizes=[8192, 8192],  # two blocks each
            is_write=[True, False],
        )
        res = simulate_trace(tr, LRUCache, capacity_blocks=4)
        assert res.n_writes == 2 and res.n_reads == 2
        assert res.write_misses == 2 and res.read_hits == 2

    def test_empty_trace(self):
        from repro.trace import VolumeTrace

        res = simulate_trace(VolumeTrace.empty("v"), LRUCache, 4)
        assert res.n_accesses == 0
        assert np.isnan(res.miss_ratio)


class TestMRC:
    def test_exact_against_simulation(self, rng):
        stream = rng.integers(0, 40, size=3000)
        mrc = mrc_from_stream(stream)
        for capacity in (1, 4, 16, 50):
            c = LRUCache(capacity)
            misses = sum(not c.access(int(b), False) for b in stream)
            assert mrc.miss_ratio(capacity) == pytest.approx(misses / len(stream))

    def test_monotone_nonincreasing(self, rng):
        stream = rng.integers(0, 100, size=2000)
        mrc = mrc_from_stream(stream)
        ratios = mrc.miss_ratios(range(1, 120))
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_compulsory_floor(self, rng):
        stream = rng.integers(0, 30, size=1000)
        mrc = mrc_from_stream(stream)
        distinct = len(set(stream.tolist()))
        assert mrc.compulsory_miss_ratio == pytest.approx(distinct / 1000)
        assert mrc.miss_ratio(10**6) == pytest.approx(mrc.compulsory_miss_ratio)
        assert mrc.working_set_blocks() == distinct

    def test_rejects_bad_capacity(self):
        mrc = mrc_from_stream(np.array([1, 2, 1]))
        with pytest.raises(ValueError):
            mrc.miss_ratio(0)

    def test_empty_stream(self):
        mrc = mrc_from_distances(np.array([], dtype=np.int64))
        assert np.isnan(mrc.miss_ratio(1))


class TestSHARDS:
    def test_mask_is_by_block(self, rng):
        blocks = rng.integers(0, 1000, size=5000)
        mask = shards_sample_mask(blocks, rate=0.1)
        # Every occurrence of a block gets the same decision.
        decisions = {}
        for b, m in zip(blocks.tolist(), mask.tolist()):
            assert decisions.setdefault(b, m) == m

    def test_rate_one_keeps_everything(self, rng):
        blocks = rng.integers(0, 100, size=500)
        assert shards_sample_mask(blocks, rate=1.0).all()

    def test_sampling_rate_approx(self, rng):
        blocks = np.arange(100000)
        frac = shards_sample_mask(blocks, rate=0.05).mean()
        assert frac == pytest.approx(0.05, rel=0.2)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            shards_sample_mask(np.array([1]), rate=0.0)

    def test_estimates_close_to_exact(self, rng):
        # Zipf-ish stream: heavily skewed popularity.
        ranks = (rng.pareto(1.0, size=60000) * 3).astype(np.int64) % 3000
        exact = mrc_from_stream(ranks)
        est = shards_mrc(ranks, rate=0.1, seed=1)
        for capacity in (30, 300, 1500):
            assert est.miss_ratio(capacity) == pytest.approx(
                exact.miss_ratio(capacity), abs=0.08
            )

    def test_seed_changes_sample(self, rng):
        blocks = rng.integers(0, 10000, size=2000)
        m1 = shards_sample_mask(blocks, 0.1, seed=1)
        m2 = shards_sample_mask(blocks, 0.1, seed=2)
        assert not np.array_equal(m1, m2)
