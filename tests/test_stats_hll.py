"""Tests for repro.stats.hll (HyperLogLog cardinality sketch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.analyzers import _add_working_sets
from repro.stats import HyperLogLog
from repro.stats.hll import _alpha, _bit_length

_M64 = (1 << 64) - 1
EDGE_ITEMS = [0, -1, 1, 2**62, -(2**62), -(2**63), 2**63 - 1]


def _reference_registers(items, p, seed):
    """Registers by definition: splitmix64 of (item ^ seed), top p bits
    pick the register, rank = 1 + leading zeros of the other 64 - p."""
    registers = [0] * (1 << p)
    mixed_seed = (seed * 0x9E3779B97F4A7C15) & _M64
    for item in items:
        x = (int(item) & _M64) ^ mixed_seed
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        x ^= x >> 31
        low = x & ((1 << (64 - p)) - 1)
        rank = 64 - p + 1 - low.bit_length()
        registers[x >> (64 - p)] = max(registers[x >> (64 - p)], rank)
    return registers


class TestHyperLogLog:
    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=3)
        with pytest.raises(ValueError):
            HyperLogLog(p=19)

    def test_empty_estimate_zero(self):
        assert HyperLogLog().estimate() == pytest.approx(0.0)

    def test_small_exact_via_linear_counting(self):
        hll = HyperLogLog(p=12)
        hll.add_many(np.arange(100))
        assert len(hll) == pytest.approx(100, abs=3)

    def test_duplicates_not_double_counted(self):
        hll = HyperLogLog(p=12)
        for _ in range(50):
            hll.add_many(np.arange(200))
        assert len(hll) == pytest.approx(200, abs=6)

    @pytest.mark.parametrize("n", [1_000, 50_000, 1_000_000])
    def test_accuracy_within_bounds(self, n):
        hll = HyperLogLog(p=14)
        hll.add_many(np.arange(n, dtype=np.int64))
        # Theoretical stderr ~1.04/sqrt(2^14) ~ 0.8%; allow 4 sigma.
        assert len(hll) == pytest.approx(n, rel=0.04)

    def test_add_single(self):
        hll = HyperLogLog(p=10)
        hll.add(42)
        hll.add(42)
        hll.add(43)
        assert len(hll) == pytest.approx(2, abs=1)

    def test_merge_equals_union(self):
        a, b = HyperLogLog(p=12), HyperLogLog(p=12)
        a.add_many(np.arange(0, 3000))
        b.add_many(np.arange(1500, 4500))
        merged = a.merge(b)
        assert len(merged) == pytest.approx(4500, rel=0.05)

    def test_merge_requires_same_config(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=12).merge(HyperLogLog(p=13))
        with pytest.raises(ValueError):
            HyperLogLog(p=12, seed=1).merge(HyperLogLog(p=12, seed=2))

    def test_seed_decorrelates(self):
        a, b = HyperLogLog(p=8, seed=1), HyperLogLog(p=8, seed=2)
        items = np.arange(10000)
        a.add_many(items)
        b.add_many(items)
        assert not np.array_equal(a._registers, b._registers)

    def test_negative_items_ok(self):
        hll = HyperLogLog(p=12)
        hll.add_many(np.arange(-500, 500))
        assert len(hll) == pytest.approx(1000, rel=0.05)

    @given(st.lists(st.integers(-(2**62), 2**62), min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_property_estimate_tracks_distinct(self, items):
        hll = HyperLogLog(p=12)
        hll.add_many(np.asarray(items, dtype=np.int64))
        distinct = len(set(items))
        if distinct == 0:
            assert hll.estimate() == pytest.approx(0.0)
        else:
            assert len(hll) == pytest.approx(distinct, rel=0.1, abs=4)


class TestPositions:
    def test_bit_length_exact_at_every_bit(self):
        values = [0] + [v for k in range(64) for v in (1 << k, (1 << k) + 1, (2 << k) - 1)]
        got = _bit_length(np.array(values, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() for v in values]

    @pytest.mark.parametrize("p", [4, 10, 14, 18])
    def test_registers_match_definition(self, p):
        rng = np.random.default_rng(p)
        items = EDGE_ITEMS + rng.integers(-(2**63), 2**63 - 1, 3000, endpoint=True).tolist()
        hll = HyperLogLog(p, seed=5)
        hll.add_many(np.array(items, dtype=np.int64))
        assert hll._registers.tolist() == _reference_registers(items, p, seed=5)

    @pytest.mark.parametrize("p", [4, 10, 14, 18])
    def test_shared_positions_equal_three_add_many(self, p):
        rng = np.random.default_rng(p)
        items = np.concatenate([
            np.array(EDGE_ITEMS, dtype=np.int64),
            rng.integers(-(2**63), 2**63 - 1, 20_000, endpoint=True, dtype=np.int64),
            rng.integers(0, 1_000, 20_000),
        ])
        is_write = rng.random(len(items)) < 0.4
        separate = [HyperLogLog(p, seed=9) for _ in range(3)]
        separate[0].add_many(items)
        separate[1].add_many(items[~is_write])
        separate[2].add_many(items[is_write])
        shared = [HyperLogLog(p, seed=9) for _ in range(3)]
        _add_working_sets(*shared, items, is_write)
        for a, b in zip(separate, shared):
            assert np.array_equal(a._registers, b._registers)

    @pytest.mark.parametrize("chunks", [1, 3, 17])
    def test_total_is_the_union_of_read_and_write(self, chunks):
        rng = np.random.default_rng(chunks)
        items = rng.integers(0, 50_000, 30_000)
        is_write = rng.random(len(items)) < 0.3
        sketches = [HyperLogLog(12, seed=4) for _ in range(3)]
        for part in np.array_split(np.arange(len(items)), chunks):
            _add_working_sets(*sketches, items[part], is_write[part])
        fed_every_block = HyperLogLog(12, seed=4)
        fed_every_block.add_many(items)
        assert np.array_equal(sketches[0]._registers, fed_every_block._registers)

    def test_update_requires_same_config(self):
        with pytest.raises(ValueError):
            HyperLogLog(10, seed=1).update(HyperLogLog(10, seed=2))


def _power_formula_estimate(hll):
    """``estimate`` as ``2.0 ** -registers``: the table lookup must equal it."""
    registers = hll._registers.astype(np.float64)
    raw = _alpha(hll.m) * hll.m**2 / np.sum(2.0 ** (-registers))
    zeros = int(np.count_nonzero(hll._registers == 0))
    if raw <= 2.5 * hll.m and zeros:
        return hll.m * np.log(hll.m / zeros)
    return float(raw)


@pytest.mark.parametrize("p", range(4, 19))
def test_estimate_equals_the_power_formula_bit_for_bit(p):
    rng = np.random.default_rng(p)
    max_rank = 64 - p + 1
    for fill in (0.0, 0.02, 0.5, 1.0):
        hll = HyperLogLog(p)
        registers = rng.integers(1, max_rank + 1, hll.m, endpoint=False).astype(np.uint8)
        registers[rng.random(hll.m) >= fill] = 0
        registers[rng.integers(0, hll.m)] = max_rank
        hll._registers = registers
        got = hll.estimate()
        assert type(got) is float
        assert got == float(_power_formula_estimate(hll))


def test_estimate_is_a_float_in_both_ranges():
    small = HyperLogLog(10)
    small.add_many(np.arange(10))
    large = HyperLogLog(4)
    large.add_many(np.arange(100_000))
    assert type(small.estimate()) is float
    assert type(large.estimate()) is float

