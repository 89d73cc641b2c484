"""Randomized invariance: how a run is cut up never changes its answer.

One seeded draw of run configurations — chunk size, unit splitting,
worker count, cold text or warm store — each compared with the canonical
configuration (default chunk size, whole files, one worker, text path).
The streaming profile, the temporal fold and the materialized dataset
must come out equal.  Reservoirs are sized to hold every sample, so
their percentiles are exact and comparable across chunk layouts (an
over-capacity reservoir is only deterministic for one fixed layout).
"""

import itertools

import numpy as np
import pytest

from repro.engine import (
    StreamingProfileAnalyzer,
    TemporalAnalyzer,
    list_trace_files,
    read_dataset_dir_chunked,
    run_files,
)
from repro.store import StoreConfig, ingest_dir
from repro.trace import write_dataset_dir

EXACT_RESERVOIR = 1 << 20
SEED = 20
N_CONFIGS = 8
GRID = list(itertools.product((13, 97, 257, 4096), (0, 150, 600), (1, 2), (False, True)))
CONFIGS = [
    dict(zip(("chunk_size", "split_rows", "workers", "warm"), GRID[i]))
    for i in np.random.default_rng(SEED).permutation(len(GRID))[:N_CONFIGS].tolist()
]


def _analyzers():
    return [
        StreamingProfileAnalyzer(reservoir_size=EXACT_RESERVOIR),
        TemporalAnalyzer(reservoir_size=EXACT_RESERVOIR),
    ]


def _results(files, **kwargs):
    result = run_files(files, _analyzers(), fmt="alicloud", **kwargs)
    return {name: repr(per_volume) for name, per_volume in result.per_volume.items()}


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory, tiny_ali):
    out = tmp_path_factory.mktemp("invariance")
    write_dataset_dir(tiny_ali, str(out), fmt="alicloud")
    return str(out)


@pytest.fixture(scope="module")
def warm_store(fleet_dir, tmp_path_factory):
    store = StoreConfig(dir=str(tmp_path_factory.mktemp("invariance_store")))
    # Small ingest batches give small zone spans, so row splits can land.
    ingest_dir(fleet_dir, fmt="alicloud", store_dir=store.dir, chunk_size=100)
    return store


@pytest.fixture(scope="module")
def canonical(fleet_dir):
    files = list_trace_files(fleet_dir)
    return _results(files), read_dataset_dir_chunked(fleet_dir, fmt="alicloud")


def test_draw_covers_every_axis():
    for axis in ("workers", "warm"):
        assert len({c[axis] for c in CONFIGS}) == 2, axis
    assert any(c["split_rows"] for c in CONFIGS)
    assert len({c["chunk_size"] for c in CONFIGS}) > 2


@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=lambda c: "cs{chunk_size}-split{split_rows}-w{workers}-{}".format(
        "warm" if c["warm"] else "cold", **c
    ),
)
def test_matches_canonical(config, fleet_dir, warm_store, canonical):
    want_results, want_dataset = canonical
    kwargs = dict(
        chunk_size=config["chunk_size"], split_rows=config["split_rows"],
        workers=config["workers"], store=warm_store if config["warm"] else None,
    )
    assert _results(list_trace_files(fleet_dir), **kwargs) == want_results

    dataset = read_dataset_dir_chunked(fleet_dir, fmt="alicloud", **kwargs)
    assert dataset.volume_ids() == want_dataset.volume_ids()
    for vid in want_dataset.volume_ids():
        got, want = dataset[vid], want_dataset[vid]
        for column in ("timestamps", "offsets", "sizes", "is_write"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), (vid, column)
        assert (got.response_times is None) == (want.response_times is None)
