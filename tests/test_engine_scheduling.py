"""Straggler-free execution: unit splitting, LPT dispatch, fan-out.

Three contracts drilled on skewed fixtures (one big file, a tail of tiny
ones — the fleet shape the paper reports):

* **identity** — materialized datasets and ``analyze`` output are
  byte-identical split vs unsplit, at workers 1 and 4, cold (byte-range
  sub-units) and warm (store row-range sub-units);
* **scheduling wins** — splitting creates sub-units
  (``engine.units_split``) and strictly improves ``engine.utilization``
  under a deterministic injected straggler (sleeps overlap across pool
  workers even on a single-core CI machine, so the assertion is
  machine-independent);
* **durability** — checkpoint/resume round-trips across sub-unit
  boundaries: unit identity is keyed on ``(file, range)``, an
  interrupted split run resumes to the uninterrupted run's exact result,
  and a resume under a different ``split_rows`` is refused.
"""

import json
import os

import numpy as np
import pytest

from repro import faults
from repro.cli import main
from repro.engine import (
    StreamingProfileAnalyzer,
    TemporalAnalyzer,
    WorkUnit,
    plan_units,
    read_dataset_dir_chunked,
    run_files,
)
from repro.engine.units import KIND_BYTES, KIND_ROWS, checkpoint_key, file_cost
from repro.faults import FaultPlan, InjectedFault
from repro.obs import collecting
from repro.resilience import CheckpointConfig, CheckpointError, Checkpointer, unit_label
from repro.resilience.checkpoint import RUN_FILE
from repro.store import StoreConfig, aligned_row_splits, ingest_dir

BIG_ROWS = 60_000
SPLIT_ROWS = 15_000  # -> 4 sub-units of the big file
N_SMALL = 50
SMALL_ROWS = 120


@pytest.fixture(autouse=True)
def clean_faults():
    os.environ.pop(faults.ENV_VAR, None)
    faults._reset_for_tests()
    yield
    os.environ.pop(faults.ENV_VAR, None)
    faults._reset_for_tests()


def _write_skew(directory, big_rows=BIG_ROWS, n_small=N_SMALL, small_rows=SMALL_ROWS):
    """One straggler file + tiny files, AliCloud format, multi-volume."""
    os.makedirs(directory)
    with open(os.path.join(directory, "aaa_big.csv"), "w") as fh:
        for i in range(big_rows):
            vid = i % 3
            op = "W" if i % 4 == 0 else "R"
            fh.write(f"{vid},{op},{(i * 4096) % (1 << 28)},4096,{1_000_000 + i * 50}\n")
    for j in range(n_small):
        with open(os.path.join(directory, f"small{j:02d}.csv"), "w") as fh:
            for i in range(small_rows):
                fh.write(f"{10 + j},R,{i * 4096},4096,{2_000_000 + i * 50}\n")
    return directory


@pytest.fixture(scope="module")
def skew_dir(tmp_path_factory):
    return _write_skew(str(tmp_path_factory.mktemp("skew") / "traces"))


@pytest.fixture(scope="module")
def tiny_skew_dir(tmp_path_factory):
    """A faster fixture for the sleep-injected drills (parse cost ~0)."""
    return _write_skew(
        str(tmp_path_factory.mktemp("tinyskew") / "traces"),
        big_rows=8_000, n_small=6, small_rows=100,
    )


def _assert_datasets_equal(a, b):
    assert sorted(dict(a.items())) == sorted(dict(b.items()))
    for (vid, va), (_, vb) in zip(sorted(a.items()), sorted(b.items())):
        for column in ("timestamps", "offsets", "sizes", "is_write", "response_times"):
            x, y = getattr(va, column, None), getattr(vb, column, None)
            if x is None or y is None:
                assert x is None and y is None, (vid, column)
                continue
            assert np.array_equal(x, y), f"{vid}.{column} differs"


class TestSplitIdentity:
    """Satellite (a): byte-identical output split vs unsplit, warm and cold."""

    def test_materialized_dataset_identical_cold_and_warm(self, skew_dir, tmp_path):
        base = read_dataset_dir_chunked(skew_dir, fmt="alicloud", workers=1)
        store = StoreConfig(dir=str(tmp_path / "store"), build=True)
        # Zone spans of 5000 rows let split_rows=15000 carve the big
        # file's entry into genuine row-range sub-units.
        ingest_dir(
            skew_dir, fmt="alicloud", store_dir=store.dir,
            workers=1, chunk_size=5_000,
        )
        warm_units, _ = plan_units(
            sorted(os.path.join(skew_dir, f) for f in os.listdir(skew_dir)),
            split_rows=SPLIT_ROWS, store=store,
        )
        assert any(
            isinstance(u, WorkUnit) and u.kind == KIND_ROWS for u in warm_units
        ), "warm fixture must actually exercise store row-range serving"
        for workers in (1, 4):
            for st in (None, store):
                got = read_dataset_dir_chunked(
                    skew_dir, fmt="alicloud", workers=workers,
                    split_rows=SPLIT_ROWS, store=st,
                )
                _assert_datasets_equal(base, got)

    def test_cli_analyze_output_byte_identical(self, skew_dir, tmp_path):
        unsplit = str(tmp_path / "unsplit.json")
        split = str(tmp_path / "split.json")
        assert main(["analyze", skew_dir, "--output", unsplit]) == 0
        assert main([
            "analyze", skew_dir, "--split-rows", str(SPLIT_ROWS),
            "--workers", "4", "--output", split,
        ]) == 0
        with open(unsplit, "rb") as fa, open(split, "rb") as fb:
            assert fa.read() == fb.read()

    def test_exact_analyzers_split_invariant_run_files(self, skew_dir):
        """Exact results (counters, register-max sketches) are split-invariant."""
        files = sorted(
            os.path.join(skew_dir, f) for f in os.listdir(skew_dir)
        )

        def exact(result):
            profiles = {
                vid: (p.n_reads, p.n_writes, p.read_bytes, p.write_bytes,
                      p.start_time, p.end_time, p.wss_total_bytes,
                      p.wss_read_bytes, p.wss_write_bytes)
                for vid, p in result.analyzer("streaming_profile").items()
            }
            temporal = {
                vid: (t.counts, t.update_count)
                for vid, t in result.analyzer("temporal").items()
            }
            return repr((profiles, temporal))

        mk = lambda: [TemporalAnalyzer(), StreamingProfileAnalyzer()]
        base = run_files(files, mk(), fmt="alicloud", workers=1)
        for workers in (1, 4):
            got = run_files(
                files, mk(), fmt="alicloud", workers=workers, split_rows=SPLIT_ROWS
            )
            assert exact(got) == exact(base)

    def test_sketch_analyzers_worker_invariant_at_fixed_split(self, skew_dir):
        """Reservoir-bearing folds: bit-identical at any worker count, in
        process or pooled, for one fixed split configuration (the DESIGN.md
        contract)."""
        files = sorted(
            os.path.join(skew_dir, f) for f in os.listdir(skew_dir)
        )
        runs = [
            run_files(
                files, [StreamingProfileAnalyzer()], fmt="alicloud",
                workers=w, split_rows=SPLIT_ROWS,
            )
            for w in (1, 2, 4)
        ]
        assert repr(runs[0].per_volume) == repr(runs[1].per_volume)
        assert repr(runs[0].per_volume) == repr(runs[2].per_volume)


class TestSchedulingWins:
    """Satellite (b): units_split > 0 and utilization strictly improves."""

    def _utilization(self, directory, split_rows, plan, workers=4):
        files = sorted(os.path.join(directory, f) for f in os.listdir(directory))
        faults.activate(plan)
        try:
            with collecting() as reg:
                run_files(
                    files, [StreamingProfileAnalyzer()], fmt="alicloud",
                    workers=workers, split_rows=split_rows,
                )
        finally:
            faults.deactivate()
        snap = reg.snapshot()
        return (
            snap["gauges"]["engine.utilization"],
            snap["counters"].get("engine.units_split", 0),
        )

    def test_split_improves_utilization_under_straggler(self, tiny_skew_dir):
        # The same total injected latency: all on the big file's single
        # unit unsplit, spread over its sub-units split.  Sleeps count as
        # busy time and overlap across pool workers, so the utilization
        # ordering is deterministic even on one core.
        util_unsplit, split_count_unsplit = self._utilization(
            tiny_skew_dir, 0, FaultPlan(slow_units=(0,), slow_seconds=1.2)
        )
        assert split_count_unsplit == 0
        n_subs = 8_000 // 2_000
        util_split, split_count = self._utilization(
            tiny_skew_dir, 2_000,
            FaultPlan(slow_units=tuple(range(n_subs)), slow_seconds=1.2 / n_subs),
        )
        assert split_count > 0
        assert util_split > util_unsplit

    def test_unit_cost_estimates_recorded(self, tiny_skew_dir):
        files = sorted(os.path.join(tiny_skew_dir, f) for f in os.listdir(tiny_skew_dir))
        with collecting() as reg:
            units, costs = plan_units(files, split_rows=2_000)
        snap = reg.snapshot()
        hist = snap["histograms"]["engine.unit_cost_estimate"]
        assert hist["count"] == len(units) == len(costs)
        assert snap["counters"]["engine.units_split"] == 3
        # Sub-units of the big file come first (sorted paths) in
        # ascending range order; costs are byte lengths for cold units.
        subs = [u for u in units if isinstance(u, WorkUnit)]
        assert len(subs) == 4
        assert all(u.kind == KIND_BYTES for u in subs)
        assert subs == sorted(subs, key=lambda u: u.lo)
        assert sum(u.cost for u in subs) == file_cost(subs[0].path)


class TestCheckpointAcrossSubUnits:
    """Satellite (c): checkpoint/resume round-trips over sub-unit boundaries."""

    def _config(self, tmp_path, resume=False):
        return CheckpointConfig(
            digest="splitdigest01", dir=str(tmp_path / "ck"), resume=resume
        )

    def test_interrupted_split_run_resumes_bit_identical(self, tiny_skew_dir, tmp_path):
        files = sorted(os.path.join(tiny_skew_dir, f) for f in os.listdir(tiny_skew_dir))
        reference = run_files(
            files, [StreamingProfileAnalyzer()], fmt="alicloud",
            workers=1, split_rows=2_000,
        )
        # Crash sub-unit 2 of the big file: units 0 and 1 (both sub-units
        # of the same file) checkpoint before the run dies.
        faults.activate(FaultPlan(crash_units=(2,), crash_attempts=99))
        try:
            with pytest.raises(InjectedFault):
                run_files(
                    files, [StreamingProfileAnalyzer()], fmt="alicloud",
                    workers=1, split_rows=2_000,
                    checkpoint=self._config(tmp_path),
                )
        finally:
            faults.deactivate()
        ck_dir = tmp_path / "ck" / "splitdigest01"
        manifest = json.loads((ck_dir / RUN_FILE).read_text())
        assert sum(1 for u in manifest["units"] if "[bytes:" in u) == 4
        saved = sorted(f for f in os.listdir(ck_dir) if f.endswith(".pkl"))
        assert saved == ["unit-00000.pkl", "unit-00001.pkl"]
        resumed = run_files(
            files, [StreamingProfileAnalyzer()], fmt="alicloud",
            workers=4, split_rows=2_000,
            checkpoint=self._config(tmp_path, resume=True),
        )
        assert repr(resumed.per_volume) == repr(reference.per_volume)
        assert not ck_dir.exists()  # cleared on full success

    def test_resume_with_different_split_rows_is_refused(self, tiny_skew_dir, tmp_path):
        files = sorted(os.path.join(tiny_skew_dir, f) for f in os.listdir(tiny_skew_dir))
        units, _ = plan_units(files, split_rows=2_000)
        Checkpointer(self._config(tmp_path), [checkpoint_key(u) for u in units]).begin()
        other_units, _ = plan_units(files, split_rows=4_000)
        ck = Checkpointer(
            self._config(tmp_path, resume=True),
            [checkpoint_key(u) for u in other_units],
        )
        with pytest.raises(CheckpointError, match="unit list does not match"):
            ck.begin()


class TestUnitsAndBackends:
    """The planning/backends building blocks behind the tentpole."""

    def test_aligned_row_splits_snap_to_zone_spans(self):
        assert aligned_row_splits(100, 0, 10) == []
        assert aligned_row_splits(100, 200, 10) == []
        assert aligned_row_splits(100, 30, 10) == [30, 60, 90]
        assert aligned_row_splits(100, 30, 0) == [30, 60, 90]
        # A zone span is the minimum sub-unit: split_rows below it snaps up.
        assert aligned_row_splits(100, 5, 40) == [40, 80]

    def test_warm_plan_uses_store_row_ranges(self, tiny_skew_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"), build=True)
        # Small ingest chunks -> small zone spans, so split_rows=2000 can
        # carve on zone boundaries (a zone span is the minimum sub-unit).
        ingest_dir(
            tiny_skew_dir, fmt="alicloud", store_dir=store.dir,
            workers=1, chunk_size=1_000,
        )
        files = sorted(os.path.join(tiny_skew_dir, f) for f in os.listdir(tiny_skew_dir))
        units, costs = plan_units(files, split_rows=2_000, store=store)
        subs = [u for u in units if isinstance(u, WorkUnit)]
        assert subs and all(u.kind == KIND_ROWS for u in subs)
        assert subs[0].lo == 0 and subs[-1].hi == 8_000
        # Warm costs are manifest row counts, not bytes.
        assert all(u.cost == u.hi - u.lo for u in subs)

    def test_gz_and_small_files_stay_whole(self, tmp_path):
        import gzip

        directory = tmp_path / "mix"
        directory.mkdir()
        gz = str(directory / "a.csv.gz")
        with gzip.open(gz, "wt") as fh:
            for i in range(5_000):
                fh.write(f"0,R,{i * 4096},4096,{1_000_000 + i}\n")
        small = str(directory / "b.csv")
        with open(small, "w") as fh:
            fh.write("1,W,0,4096,1000000\n")
        units, _ = plan_units([gz, small], split_rows=100)
        assert units == [gz, small]

    def test_unit_labels_and_checkpoint_keys(self):
        unit = WorkUnit("/data/trace.csv", 0, 1000, KIND_ROWS, cost=1000.0)
        assert unit_label(unit) == "trace.csv[rows:0:1000]"
        assert checkpoint_key(unit) == "/data/trace.csv[rows:0:1000]"
        assert checkpoint_key("/data/trace.csv") == "/data/trace.csv"
