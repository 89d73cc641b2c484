"""Exactness of the array-backed ReservoirSampler against a list-based oracle.

``_ListReservoir`` is algorithm R kept as a Python list with a loop per
replacement, drawing from one eagerly built generator.  The array-backed
sampler must hold the same items in the same slots after any sequence of
``add`` / ``add_array`` / ``merge`` calls (and a pickle round trip), and
must build its seeded generator only when it first draws.
"""

import pickle

import numpy as np
import pytest

from repro.stats import ReservoirSampler
from repro.stats.streaming import DEFAULT_RESERVOIR_SEED


class _ListReservoir:
    """Algorithm R over a Python list: the reference the sampler must match."""

    def __init__(self, capacity, rng):
        self.capacity = capacity
        self.rng = rng
        self.items = []
        self.seen = 0

    def add(self, x):
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(x)
        else:
            j = int(self.rng.integers(0, self.seen))
            if j < self.capacity:
                self.items[j] = x

    def add_array(self, xs):
        xs = np.asarray(xs, dtype=np.float64).ravel()
        if len(xs) == 0:
            return
        fill = min(self.capacity - len(self.items), len(xs))
        if fill > 0:
            self.items.extend(xs[:fill].tolist())
            self.seen += fill
            xs = xs[fill:]
            if len(xs) == 0:
                return
        t = self.seen + np.arange(1, len(xs) + 1, dtype=np.int64)
        slots = (self.rng.random(len(xs)) * t).astype(np.int64)
        self.seen += len(xs)
        for i in np.flatnonzero(slots < self.capacity):
            self.items[slots[i]] = float(xs[i])

    def merge(self, other):
        merged = _ListReservoir(self.capacity, self.rng)
        merged.seen = self.seen + other.seen
        a = np.asarray(self.items, dtype=np.float64)
        b = np.asarray(other.items, dtype=np.float64)
        if len(a) + len(b) <= self.capacity:
            merged.items = a.tolist() + b.tolist()
            return merged
        k = self.capacity
        from_a = int(self.rng.hypergeometric(self.seen, other.seen, k))
        from_a = min(max(from_a, k - len(b)), len(a))
        pick_a = self.rng.choice(len(a), size=from_a, replace=False)
        pick_b = self.rng.choice(len(b), size=k - from_a, replace=False)
        merged.items = a[pick_a].tolist() + b[pick_b].tolist()
        return merged


def _pair(capacity, seed):
    return (
        ReservoirSampler(capacity, seed=seed),
        _ListReservoir(capacity, np.random.default_rng(seed)),
    )


def _assert_same(sampler, oracle):
    sample = sampler.sample()
    assert sample.dtype == np.float64
    assert sample.tolist() == np.asarray(oracle.items, dtype=np.float64).tolist()
    assert sampler.n_seen == oracle.seen


def _feed(sampler, oracle, rng, steps):
    """Apply the same random add / add_array sequence to both."""
    for _ in range(steps):
        if rng.random() < 0.3:
            x = float(rng.normal())
            sampler.add(x)
            oracle.add(x)
        else:
            xs = rng.lognormal(0, 1, int(rng.integers(0, 400)))
            sampler.add_array(xs)
            oracle.add_array(xs)
        _assert_same(sampler, oracle)


@pytest.mark.parametrize("seed", range(6))
def test_add_and_add_array_match_the_list_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    sampler, oracle = _pair(int(rng.integers(1, 300)), seed)
    _feed(sampler, oracle, rng, 40)


def test_repeated_slots_in_one_batch_keep_the_last_write():
    capacity, seed = 4, 11
    sampler, oracle = _pair(capacity, seed)
    sampler.add_array(np.arange(capacity, dtype=np.float64))
    oracle.add_array(np.arange(capacity, dtype=np.float64))
    batch = np.arange(100, 140, dtype=np.float64)
    # The draws of this batch (same generator state as both reservoirs)
    # hit some slot more than once, so the write order matters.
    probe = np.random.default_rng(seed)
    t = capacity + np.arange(1, len(batch) + 1)
    slots = (probe.random(len(batch)) * t).astype(np.int64)
    hit_slots = slots[slots < capacity]
    assert len(np.unique(hit_slots)) < len(hit_slots)
    sampler.add_array(batch)
    oracle.add_array(batch)
    _assert_same(sampler, oracle)


@pytest.mark.parametrize("seed", range(6))
def test_merge_matches_the_list_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    capacity = int(rng.integers(5, 200))
    left, left_oracle = _pair(capacity, seed)
    right, right_oracle = _pair(capacity, seed + 1000)
    _feed(left, left_oracle, rng, 10)
    _feed(right, right_oracle, rng, 10)
    merged, merged_oracle = left.merge(right), left_oracle.merge(right_oracle)
    _assert_same(merged, merged_oracle)
    # The merged reservoir continues the left side's draw stream.
    _feed(merged, merged_oracle, rng, 10)


def test_merge_of_unfilled_reservoirs_is_their_concatenation():
    left, left_oracle = _pair(50, 1)
    right, right_oracle = _pair(50, 2)
    left.add_array(np.arange(10.0))
    left_oracle.add_array(np.arange(10.0))
    right.add_array(np.arange(10.0, 25.0))
    right_oracle.add_array(np.arange(10.0, 25.0))
    _assert_same(left.merge(right), left_oracle.merge(right_oracle))


def test_pickle_round_trip_continues_the_same_stream():
    rng = np.random.default_rng(7)
    sampler, oracle = _pair(64, 3)
    _feed(sampler, oracle, rng, 15)
    restored = pickle.loads(pickle.dumps(sampler))
    _assert_same(restored, oracle)
    _feed(restored, oracle, rng, 15)
    # A reservoir pickled before its first draw resumes the seeded stream.
    fresh, fresh_oracle = _pair(8, 4)
    fresh = pickle.loads(pickle.dumps(fresh))
    _feed(fresh, fresh_oracle, rng, 10)


def test_default_seed_is_the_documented_one():
    sampler = ReservoirSampler(3)
    oracle = _ListReservoir(3, np.random.default_rng(DEFAULT_RESERVOIR_SEED))
    _feed(sampler, oracle, np.random.default_rng(5), 10)


def test_fill_only_reservoir_builds_no_generator(monkeypatch):
    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    a, b = ReservoirSampler(100, seed=1), ReservoirSampler(100, seed=2)
    a.add_array(np.arange(40.0))
    a.add(40.0)
    b.add_array(np.arange(50.0))
    merged = a.merge(b)
    assert len(merged.sample()) == 91
    assert calls == []
    merged.add_array(np.arange(20.0))  # overflows: now it draws
    assert calls == [(1,)]


def test_sample_is_a_copy():
    sampler = ReservoirSampler(4, seed=0)
    sampler.add_array(np.arange(4.0))
    sampler.sample()[:] = -1.0
    assert sampler.sample().tolist() == [0.0, 1.0, 2.0, 3.0]


def test_reservoir_percentiles_equal_numpy_bit_for_bit():
    from repro.engine.analyzer import _linear_percentiles, reservoir_percentiles

    rng = np.random.default_rng(0)
    percentile_sets = [
        (25.0, 50.0, 75.0, 90.0, 95.0), (0.0, 100.0), (0.0, 1.0, 33.3, 50.0, 99.9, 100.0),
    ]
    draws = [
        lambda n: rng.normal(size=n),
        lambda n: rng.integers(0, 5, n).astype(np.float64),
        lambda n: rng.lognormal(0, 3, n),
        lambda n: rng.choice([0.0, -0.0, 1.0, np.inf, -np.inf], n),
        lambda n: np.where(rng.random(n) < 0.05, np.nan, rng.normal(size=n)),
        lambda n: rng.random(n) * 1e-300,
    ]
    with np.errstate(invalid="ignore"):
        for i in range(3000):
            sample = draws[i % len(draws)](int(rng.integers(1, 400)))
            if i % 4:
                percentiles = percentile_sets[i % len(percentile_sets)]
            else:
                percentiles = tuple(rng.random(int(rng.integers(1, 8))) * 100)
            want = np.percentile(sample, list(percentiles))
            got = _linear_percentiles(sample.copy(), percentiles)
            assert got.tobytes() == want.tobytes(), (sample, percentiles)
    reservoir = ReservoirSampler(1000, seed=1)
    reservoir.add_array(rng.lognormal(0, 1, 5000))
    expected = np.percentile(reservoir.sample(), [25.0, 50.0, 95.0])
    assert reservoir_percentiles(reservoir, (25.0, 50.0, 95.0)) == dict(
        zip((25.0, 50.0, 95.0), expected.tolist())
    )
    with pytest.raises(ValueError, match="range"):
        _linear_percentiles(np.arange(3.0), (101.0,))
