"""The mmap columnar trace store: round-trip parity, invalidation, serving.

The store's whole contract is *bit-identity with the text path*: a warm
run served from ``.npy`` mmaps must produce exactly the chunks, datasets,
and error ledgers a cold text parse would have — at any chunk size, any
worker count, either trace format, with or without response times.  Every
test here asserts equality, never closeness.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine.chunks import iter_chunks, list_trace_files, read_dataset_dir_chunked
from repro.obs import collecting
from repro.resilience import (
    ON_ERROR_QUARANTINE,
    ON_ERROR_SKIP,
    ON_ERROR_STRICT,
    ParseErrors,
)
from repro.store import (
    ENTRY_FRESH,
    ENTRY_INCOMPATIBLE,
    ENTRY_MISS,
    ENTRY_STALE,
    Manifest,
    StoreConfig,
    compatible_policy,
    entry_dir,
    entry_status,
    ingest_dir,
    ingest_file,
    segment_files,
)
from repro.store.reader import SegmentMismatch, open_segment
from repro.synth import Scale, make_alicloud_fleet, make_msrc_fleet
from repro.trace import write_dataset_dir
from repro.trace.reader import TraceFormatError
from repro.trace.writer import write_msrc

SCALE = Scale(n_days=2, day_seconds=30.0)


@pytest.fixture()
def ali_dir(tmp_path):
    fleet = make_alicloud_fleet(n_volumes=4, seed=3, scale=SCALE)
    directory = str(tmp_path / "ali")
    write_dataset_dir(fleet, directory, fmt="alicloud")
    return directory


@pytest.fixture()
def msrc_dir(tmp_path):
    fleet = make_msrc_fleet(n_volumes=3, seed=7, scale=SCALE)
    directory = str(tmp_path / "msrc")
    write_dataset_dir(fleet, directory, fmt="msrc", compress=True)
    return directory


def _chunk_stream(path, fmt, chunk_size, store=None, on_error=ON_ERROR_STRICT, errors=None):
    """A chunk iterator collapsed to comparable bytes."""
    return [
        (
            c.volume_id,
            c.timestamps.tobytes(),
            c.offsets.tobytes(),
            c.sizes.tobytes(),
            c.is_write.tobytes(),
            None if c.response_times is None else c.response_times.tobytes(),
        )
        for c in iter_chunks(
            path, fmt=fmt, chunk_size=chunk_size,
            on_error=on_error, errors=errors, store=store,
        )
    ]


def _volume_rows(path, fmt, chunk_size, store=None, on_error=ON_ERROR_STRICT, errors=None):
    """Per-volume concatenated row streams, ignoring chunk boundaries.

    For files with dropped malformed lines the text path batches by raw
    *line* count while the store batches by surviving *row* count, so
    chunk boundaries legitimately differ — but the per-volume row streams
    (what every analyzer actually folds) must stay bit-identical.
    """
    columns = {}
    for c in iter_chunks(
        path, fmt=fmt, chunk_size=chunk_size,
        on_error=on_error, errors=errors, store=store,
    ):
        columns.setdefault(c.volume_id, []).append(
            (c.timestamps, c.offsets, c.sizes, c.is_write)
        )
    return {
        vid: tuple(np.concatenate(col).tobytes() for col in zip(*parts))
        for vid, parts in columns.items()
    }


def _assert_datasets_identical(a, b):
    assert sorted(a.volume_ids()) == sorted(b.volume_ids())
    for vid in a.volume_ids():
        ta, tb = a[vid], b[vid]
        for col in ("timestamps", "offsets", "sizes", "is_write"):
            assert np.array_equal(getattr(ta, col), getattr(tb, col)), (vid, col)
        assert (ta.response_times is None) == (tb.response_times is None)
        if ta.response_times is not None:
            assert np.array_equal(ta.response_times, tb.response_times, equal_nan=True)


def _write_dirty_alicloud(path):
    """Six parseable rows with two malformed lines interleaved."""
    rows = [
        "7,R,0,4096,1000000",
        "7,W,4096,4096,2000000",
        "too,few,fields",
        "7,R,8192,8192,3000000",
        "7,W,0,notanint,4000000",
        "7,R,4096,4096,5000000",
        "7,W,8192,4096,6000000",
        "7,R,0,4096,7000000",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


class TestRoundTrip:
    @pytest.mark.parametrize("chunk_size", [500, 65536])
    def test_alicloud_chunk_stream_bit_identical(self, ali_dir, tmp_path, chunk_size):
        store = StoreConfig(dir=str(tmp_path / "store"))
        for path in list_trace_files(ali_dir):
            text = _chunk_stream(path, "alicloud", chunk_size)
            cold = _chunk_stream(path, "alicloud", chunk_size, store=store)
            warm = _chunk_stream(path, "alicloud", chunk_size, store=store)
            assert text == cold == warm

    def test_msrc_gz_with_response_times_bit_identical(self, msrc_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        for path in list_trace_files(msrc_dir):
            text = _chunk_stream(path, "msrc", 700)
            warm_after_build = _chunk_stream(path, "msrc", 700, store=store)
            assert text == warm_after_build
            assert all(row[-1] is not None for row in text)  # response times rode along

    @pytest.mark.parametrize("workers", [1, 4])
    def test_dataset_parity_at_worker_counts(self, ali_dir, workers):
        text = read_dataset_dir_chunked(ali_dir, fmt="alicloud", workers=workers)
        store = StoreConfig()  # default: .repro-store next to the traces
        cold = read_dataset_dir_chunked(ali_dir, fmt="alicloud", workers=workers, store=store)
        warm = read_dataset_dir_chunked(ali_dir, fmt="alicloud", workers=workers, store=store)
        _assert_datasets_identical(text, cold)
        _assert_datasets_identical(text, warm)

    def test_msrc_dataset_parity_workers(self, msrc_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        text = read_dataset_dir_chunked(msrc_dir, fmt="msrc", workers=1)
        warm = read_dataset_dir_chunked(msrc_dir, fmt="msrc", workers=4, store=store)
        _assert_datasets_identical(text, warm)

    def test_multi_volume_file_replays_exact_split(self, tmp_path):
        # One file interleaving three volumes: the store must reproduce the
        # text path's per-batch stable volume-sorted chunk boundaries.
        path = str(tmp_path / "mixed.csv")
        rng = np.random.default_rng(11)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(997):
                vol = rng.choice(["9", "2", "11"])
                fh.write(f"{vol},{'W' if i % 3 else 'R'},{i * 512},4096,{i * 1000}\n")
        store = StoreConfig(dir=str(tmp_path / "store"))
        for chunk_size in (64, 250, 4096):
            assert _chunk_stream(path, "alicloud", chunk_size) == _chunk_stream(
                path, "alicloud", chunk_size, store=store
            )

    def test_empty_file_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").close()
        store = StoreConfig(dir=str(tmp_path / "store"))
        assert _chunk_stream(path, "alicloud", 100, store=store) == []
        status, entry = entry_status(path, store, "alicloud")
        assert status == ENTRY_FRESH
        assert entry.manifest.n_rows == 0


class TestInvalidation:
    def test_source_change_invalidates_and_rebuilds(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        ingest_file(path, fmt="alicloud", store_dir=store.dir)
        assert entry_status(path, store, "alicloud")[0] == ENTRY_FRESH

        with open(path, "a", encoding="utf-8") as fh:
            fh.write("42,W,0,4096,99000000\n")
        assert entry_status(path, store, "alicloud")[0] == ENTRY_STALE
        # Serving transparently re-ingests and matches the *new* contents.
        assert _chunk_stream(path, "alicloud", 512, store=store) == _chunk_stream(
            path, "alicloud", 512
        )
        assert entry_status(path, store, "alicloud")[0] == ENTRY_FRESH

    def test_mtime_only_change_invalidates(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        ingest_file(path, fmt="alicloud", store_dir=store.dir)
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        assert entry_status(path, store, "alicloud")[0] == ENTRY_STALE

    def test_parser_version_bump_invalidates(self, ali_dir, tmp_path, monkeypatch):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        ingest_file(path, fmt="alicloud", store_dir=store.dir)
        import repro.store.manifest as manifest_mod

        monkeypatch.setattr(manifest_mod, "PARSER_VERSION", manifest_mod.PARSER_VERSION + 1)
        assert entry_status(path, store, "alicloud")[0] == ENTRY_STALE

    def test_v1_entry_is_rebuilt_with_current_line_one_rules(self, tmp_path, capsys):
        # Parser v1 skipped a 6-field line 1 whose last field is not an
        # integer as a header.  Forge such an entry: ingest a file whose
        # line 1 is a same-length header, swap in the 6-field line keeping
        # the source stamp, and mark the manifest v1.
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        path = str(fleet / "t.csv")
        line1 = "v0,R,0,4096,100,"
        rows = "v0,R,4096,4096,200\nv1,W,0,512,300\n"
        with open(path, "w") as fh:
            fh.write("dev,op,off,len,t".ljust(len(line1), "x") + "\n" + rows)
        ingest_file(path, fmt="alicloud")
        st = os.stat(path)
        with open(path, "w") as fh:
            fh.write(line1 + "\n" + rows)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        manifest_path = os.path.join(entry_dir(StoreConfig().dir_for(path), path), "manifest.json")
        with open(manifest_path) as fh:
            raw = json.load(fh)
        raw["parser_version"] = 1
        with open(manifest_path, "w") as fh:
            json.dump(raw, fh)

        want = "line 1: expected 5 comma-separated fields, got 6"
        for flag in ("--no-store", "--store"):
            with pytest.raises(TraceFormatError, match=want):
                main(["stream-analyze", str(fleet), flag, "--no-ledger"])

    def test_store_format_version_bump_invalidates(self, ali_dir, tmp_path, monkeypatch):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        ingest_file(path, fmt="alicloud", store_dir=store.dir)
        import repro.store.manifest as manifest_mod

        monkeypatch.setattr(
            manifest_mod, "STORE_FORMAT_VERSION", manifest_mod.STORE_FORMAT_VERSION + 1
        )
        assert entry_status(path, store, "alicloud")[0] == ENTRY_STALE

    def test_format_mismatch_is_stale(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        ingest_file(path, fmt="alicloud", store_dir=store.dir)
        assert entry_status(path, store, "msrc")[0] == ENTRY_STALE

    def test_corrupt_manifest_is_a_miss(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        entry, _ = entry_status(path, store, "alicloud")
        assert entry == ENTRY_MISS
        ingest_file(path, fmt="alicloud", store_dir=store.dir)
        manifest_path = os.path.join(entry_dir(store.dir, path), "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert entry_status(path, store, "alicloud")[0] == ENTRY_MISS
        assert Manifest.load(entry_dir(store.dir, path)) is None


class TestErrorPolicies:
    def test_policy_compatibility_matrix(self, tmp_path):
        path = str(tmp_path / "dirty.csv")
        _write_dirty_alicloud(path)
        store = StoreConfig(dir=str(tmp_path / "store"))
        ingest_file(path, fmt="alicloud", store_dir=store.dir, on_error=ON_ERROR_QUARANTINE)
        manifest = entry_status(path, store, "alicloud")[1].manifest
        assert manifest.dropped == 2
        # quarantine build: serves quarantine + skip, not strict.
        assert compatible_policy(manifest, ON_ERROR_QUARANTINE)
        assert compatible_policy(manifest, ON_ERROR_SKIP)
        assert not compatible_policy(manifest, ON_ERROR_STRICT)
        assert (
            entry_status(path, store, "alicloud", on_error=ON_ERROR_STRICT)[0]
            == ENTRY_INCOMPATIBLE
        )

    def test_policy_change_rebuilds_skip_to_quarantine(self, tmp_path):
        path = str(tmp_path / "dirty.csv")
        _write_dirty_alicloud(path)
        store = StoreConfig(dir=str(tmp_path / "store"))
        ingest_file(path, fmt="alicloud", store_dir=store.dir, on_error=ON_ERROR_SKIP)
        # A skip build has no samples, so a quarantine request cannot be
        # served from it — the engine rebuilds and then serves exactly.
        assert (
            entry_status(path, store, "alicloud", on_error=ON_ERROR_QUARANTINE)[0]
            == ENTRY_INCOMPATIBLE
        )
        text_errors, warm_errors = ParseErrors(), ParseErrors()
        text = _volume_rows(path, "alicloud", 3, on_error=ON_ERROR_QUARANTINE, errors=text_errors)
        warm = _volume_rows(
            path, "alicloud", 3, store=store, on_error=ON_ERROR_QUARANTINE, errors=warm_errors
        )
        assert text == warm
        assert warm_errors.dropped == text_errors.dropped
        assert entry_status(path, store, "alicloud")[1].manifest.on_error == ON_ERROR_QUARANTINE

    def test_clean_entry_serves_every_policy(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        ingest_file(path, fmt="alicloud", store_dir=store.dir, on_error=ON_ERROR_QUARANTINE)
        for policy in (ON_ERROR_STRICT, ON_ERROR_SKIP, ON_ERROR_QUARANTINE):
            assert entry_status(path, store, "alicloud", on_error=policy)[0] == ENTRY_FRESH

    def test_strict_over_dirty_file_raises_like_text_path(self, tmp_path):
        path = str(tmp_path / "dirty.csv")
        _write_dirty_alicloud(path)
        store = StoreConfig(dir=str(tmp_path / "store"))
        with pytest.raises(TraceFormatError) as text_exc:
            _chunk_stream(path, "alicloud", 100)
        with pytest.raises(TraceFormatError) as store_exc:
            _chunk_stream(path, "alicloud", 100, store=store)
        assert str(store_exc.value) == str(text_exc.value)

    def test_warm_run_replays_exact_fault_ledger(self, tmp_path):
        path = str(tmp_path / "dirty.csv")
        _write_dirty_alicloud(path)
        store = StoreConfig(dir=str(tmp_path / "store"))
        text_errors = ParseErrors()
        text = _volume_rows(
            path, "alicloud", 4, on_error=ON_ERROR_QUARANTINE, errors=text_errors
        )
        # Build the entry cold, then measure the warm replay in isolation.
        _volume_rows(path, "alicloud", 4, store=store, on_error=ON_ERROR_QUARANTINE)
        with collecting() as reg:
            warm_errors = ParseErrors()
            warm = _volume_rows(
                path, "alicloud", 4, store=store,
                on_error=ON_ERROR_QUARANTINE, errors=warm_errors,
            )
            assert reg.counter("engine.lines_quarantined").value == text_errors.dropped
            assert reg.counter("store.hits").value == 1
            assert reg.counter("parse.lines").value == 0  # no text touched
        assert text == warm
        assert warm_errors.dropped == text_errors.dropped == 2
        assert warm_errors.sample == text_errors.sample


class TestServing:
    def test_warm_run_parses_no_text(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        ingest_dir(ali_dir, fmt="alicloud", store_dir=store.dir)
        with collecting() as reg:
            read_dataset_dir_chunked(ali_dir, fmt="alicloud", store=store)
            assert reg.counter("parse.lines").value == 0
            assert reg.counter("store.hits").value == len(list_trace_files(ali_dir))
            assert reg.counter("store.rows").value > 0
            assert reg.counter("store.mmap_bytes").value > 0

    def test_no_build_config_falls_back_to_text(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"), build=False)
        with collecting() as reg:
            text = read_dataset_dir_chunked(ali_dir, fmt="alicloud")
            served = read_dataset_dir_chunked(ali_dir, fmt="alicloud", store=store)
            assert reg.counter("store.misses").value == len(list_trace_files(ali_dir))
            assert reg.counter("store.entries_built").value == 0
        _assert_datasets_identical(text, served)
        assert not os.path.isdir(store.dir)

    def test_single_volume_chunks_are_mmap_views(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        ingest_file(path, fmt="alicloud", store_dir=store.dir)
        chunks = list(iter_chunks(path, fmt="alicloud", chunk_size=400, store=store))
        assert chunks, "expected at least one chunk"
        for chunk in chunks:
            assert isinstance(chunk.timestamps, np.memmap)
            assert not chunk.timestamps.flags.writeable

    def test_ingest_reuses_fresh_entries(self, ali_dir, tmp_path):
        store_dir = str(tmp_path / "store")
        first = ingest_dir(ali_dir, fmt="alicloud", store_dir=store_dir)
        again = ingest_dir(ali_dir, fmt="alicloud", store_dir=store_dir)
        assert all(r.built for r in first)
        assert not any(r.built for r in again)
        forced = ingest_dir(ali_dir, fmt="alicloud", store_dir=store_dir, force=True)
        assert all(r.built for r in forced)

    def test_ingest_dir_workers_parity(self, msrc_dir, tmp_path):
        a = StoreConfig(dir=str(tmp_path / "a"))
        b = StoreConfig(dir=str(tmp_path / "b"))
        ingest_dir(msrc_dir, fmt="msrc", store_dir=a.dir, workers=1)
        ingest_dir(msrc_dir, fmt="msrc", store_dir=b.dir, workers=4)
        _assert_datasets_identical(
            read_dataset_dir_chunked(msrc_dir, fmt="msrc", store=a),
            read_dataset_dir_chunked(msrc_dir, fmt="msrc", store=b),
        )


def _built_entry(kind, ali_dir, tmp_path):
    """A fresh store entry: one AliCloud volume, several MSRC volumes in one
    file (volume codes and response times), or zero rows."""
    store = StoreConfig(dir=str(tmp_path / "store"))
    if kind == "alicloud":
        path, fmt = list_trace_files(ali_dir)[0], "alicloud"
    elif kind == "msrc-multi":
        path, fmt = str(tmp_path / "mixed.csv"), "msrc"
        write_msrc(make_msrc_fleet(n_volumes=3, seed=7, scale=SCALE), path)
    else:
        path, fmt = str(tmp_path / "empty.csv"), "alicloud"
        open(path, "w").close()
    ingest_file(path, fmt=fmt, store_dir=store.dir)
    status, entry = entry_status(path, store, fmt)
    assert status == ENTRY_FRESH
    return entry


class TestSegmentLoader:
    """``open_segment`` maps exactly what ``np.load(mmap_mode="r")`` maps."""

    @pytest.mark.parametrize("kind", ["alicloud", "msrc-multi", "empty"])
    def test_columns_equal_np_load(self, kind, ali_dir, tmp_path):
        entry = _built_entry(kind, ali_dir, tmp_path)
        names = segment_files(entry.manifest)
        if kind == "msrc-multi":
            assert {"vol_codes.npy", "response_times.npy"} <= set(names)
        assert (entry.manifest.n_rows == 0) == (kind == "empty")
        for name in names:
            served = open_segment(entry.entry, name, entry.manifest.n_rows)
            loaded = np.load(os.path.join(entry.entry, name), mmap_mode="r")
            assert isinstance(served, np.memmap), name
            assert not served.flags.writeable, name
            assert served.dtype == loaded.dtype, name
            assert served.shape == loaded.shape, name
            assert served.tobytes() == loaded.tobytes(), name

    def test_other_header_layout_loads_through_np_load(self, ali_dir, tmp_path):
        entry = _built_entry("alicloud", ali_dir, tmp_path)
        path = os.path.join(entry.entry, "timestamps.npy")
        original = np.load(path)
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_2_0(fh, {
                "descr": np.lib.format.dtype_to_descr(original.dtype),
                "fortran_order": False,
                "shape": original.shape,
            })
            fh.write(original.tobytes())
        assert open(path, "rb").read(8) == b"\x93NUMPY\x02\x00"
        served = open_segment(entry.entry, "timestamps.npy", entry.manifest.n_rows)
        assert isinstance(served, np.memmap)
        assert not served.flags.writeable
        assert served.dtype == original.dtype
        assert served.tobytes() == original.tobytes()

    def test_damaged_segments_raise_by_name(self, ali_dir, tmp_path):
        entry = _built_entry("alicloud", ali_dir, tmp_path)
        n = entry.manifest.n_rows
        with open(os.path.join(entry.entry, "offsets.npy"), "r+b") as fh:
            fh.truncate(os.path.getsize(fh.name) - 8)
        sizes = np.load(os.path.join(entry.entry, "sizes.npy"))
        np.save(os.path.join(entry.entry, "sizes.npy"), sizes[: n // 2])
        np.save(os.path.join(entry.entry, "is_write.npy"), np.zeros(n, dtype=np.int8))
        os.remove(os.path.join(entry.entry, "timestamps.npy"))
        entry_with_empty_file = _built_entry("empty", ali_dir, tmp_path)
        open(os.path.join(entry_with_empty_file.entry, "sizes.npy"), "wb").close()
        with pytest.raises(SegmentMismatch, match="sizes.npy"):
            open_segment(entry_with_empty_file.entry, "sizes.npy", 0)
        expected = {
            "offsets.npy": "segment-size",
            "sizes.npy": "segment-shape",
            "is_write.npy": "segment-shape",
            "timestamps.npy": "segment-unreadable",
        }
        for name, kind in expected.items():
            with pytest.raises(SegmentMismatch, match=name) as caught:
                open_segment(entry.entry, name, n)
            assert caught.value.issue.kind == kind
            assert caught.value.issue.segment == name


class TestCLI:
    def test_ingest_then_analyze_store_parity(self, ali_dir, tmp_path, capsys):
        report = str(tmp_path / "ingest.json")
        rc = main(
            ["ingest", ali_dir, "--store-dir", str(tmp_path / "store"),
             "--output", report, "--workers", "2"]
        )
        assert rc == 0
        payload = json.loads(open(report).read())
        assert payload["files"] == 4
        assert payload["built"] == 4
        assert payload["dropped_lines"] == 0

        text_out = str(tmp_path / "text.json")
        store_out = str(tmp_path / "store.json")
        assert main(["analyze", ali_dir, "--output", text_out]) == 0
        assert main(
            ["analyze", ali_dir, "--store-dir", str(tmp_path / "store"),
             "--output", store_out]
        ) == 0
        assert open(text_out).read() == open(store_out).read()

    def test_validate_reports_store_stale(self, ali_dir, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["ingest", ali_dir, "--store-dir", store_dir, "--output", os.devnull]) == 0
        assert main(["validate", ali_dir, "--store-dir", store_dir]) == 0
        assert "OK" in capsys.readouterr().out

        victim = list_trace_files(ali_dir)[0]
        st = os.stat(victim)
        os.utime(victim, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        rc = main(["validate", ali_dir, "--store-dir", store_dir])
        out = capsys.readouterr().out
        assert rc == 1
        assert "store-stale" in out
        assert os.path.basename(victim) in out

    def test_no_store_flag_wins(self, ali_dir, tmp_path):
        from repro.cli import _engine_kwargs, build_parser

        def store_config(argv, build=True):
            return _engine_kwargs(build_parser().parse_args(argv), build=build)["store"]

        store_dir = str(tmp_path / "s")
        assert store_config(["analyze", ali_dir, "--no-store", "--store-dir", store_dir]) is None
        config = store_config(["analyze", ali_dir, "--store-dir", store_dir])
        assert config is not None and config.dir == store_dir
        config = store_config(["analyze", ali_dir, "--store"])
        assert config is not None and config.dir is None and config.build
        assert store_config(["analyze", ali_dir]) is None
        config = store_config(["analyze", ali_dir, "--verify-store"])
        assert config is not None and config.verify and config.dir is None
        assert store_config(["analyze", ali_dir, "--no-store", "--verify-store"]) is None
        config = store_config(["validate", ali_dir, "--store"], build=False)
        assert config is not None and not config.build

    def test_store_and_no_store_conflict(self, ali_dir):
        with pytest.raises(SystemExit):
            build = __import__("repro.cli", fromlist=["build_parser"]).build_parser()
            build.parse_args(["analyze", ali_dir, "--store", "--no-store"])


class TestZoneMaps:
    """Manifest zone maps + volume row ranges, and plan-aware serving."""

    def test_zones_and_volume_rows_persisted(self, ali_dir, tmp_path):
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        entry = ingest_file(path, fmt="alicloud", store_dir=store.dir,
                            chunk_size=64).entry
        manifest = Manifest.load(entry)
        zones = manifest.zones
        assert zones is not None and zones.zone_rows == 64
        n_zones = (manifest.n_rows + 63) // 64
        assert len(zones.min_ts) == n_zones
        assert sum(zones.n_rows) == manifest.n_rows
        # Zone stats really bound the columns they summarize.
        stats = zones.window(0, manifest.n_rows)
        assert stats.min_ts <= stats.max_ts
        assert stats.n_writes <= stats.n_rows == manifest.n_rows
        for vid, (first, last) in manifest.volume_rows.items():
            assert vid in manifest.volumes
            assert 0 <= first <= last < manifest.n_rows

    def test_v1_entry_rebuilds_with_zones(self, ali_dir, tmp_path, monkeypatch):
        # An entry written under the previous store format (no zone maps)
        # must read as stale and come back with zones after rebuild.
        store = StoreConfig(dir=str(tmp_path / "store"))
        path = list_trace_files(ali_dir)[0]
        entry = ingest_file(path, fmt="alicloud", store_dir=store.dir).entry
        manifest = Manifest.load(entry)
        manifest.zones = None
        manifest.volume_rows = {}
        manifest.store_format_version -= 1
        with open(os.path.join(entry, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json() + "\n")
        assert entry_status(path, store, "alicloud")[0] == ENTRY_STALE

        report = ingest_file(path, fmt="alicloud", store_dir=store.dir)
        assert report.built
        rebuilt = Manifest.load(entry)
        assert rebuilt.zones is not None
        assert rebuilt.volume_rows

    def test_zone_map_chunk_skip_counters(self, ali_dir, tmp_path):
        from repro.engine.plan import QueryPlan, RowPredicate

        store = StoreConfig(dir=str(tmp_path / "store"))
        ingest_dir(ali_dir, fmt="alicloud", store_dir=store.dir, chunk_size=64)
        path = list_trace_files(ali_dir)[0]
        manifest = Manifest.load(entry_dir(store.dir, path))
        # A window provably past the file's last timestamp: every chunk of
        # this file is skipped at the manifest, before any .npy is read.
        last_ts = manifest.zones.window(0, manifest.n_rows).max_ts
        plan = QueryPlan(predicate=RowPredicate(since=last_ts + 1.0))
        with collecting() as registry:
            chunks = list(iter_chunks(path, fmt="alicloud", chunk_size=64,
                                      store=store, plan=plan))
            assert chunks == []
            assert registry.counter("plan.files_skipped").value == 1
            assert registry.counter("plan.rows_pruned").value == manifest.n_rows
        # A window covering only the file's first rows: later chunks are
        # skipped zone by zone.
        first_ts = manifest.zones.min_ts[0]
        cutoff = manifest.zones.max_ts[0]
        plan = QueryPlan(
            predicate=RowPredicate(since=first_ts, until=cutoff + 1e-9)
        )
        with collecting() as registry:
            chunks = list(iter_chunks(path, fmt="alicloud", chunk_size=64,
                                      store=store, plan=plan))
            assert chunks
            assert registry.counter("plan.chunks_skipped").value > 0
            served = registry.counter("plan.rows_served").value
        assert served == sum(len(c.timestamps) for c in chunks)

    def test_column_pruned_serving(self, ali_dir, tmp_path):
        from repro.engine import ColumnPrunedError
        from repro.engine.plan import QueryPlan

        store = StoreConfig(dir=str(tmp_path / "store"))
        ingest_dir(ali_dir, fmt="alicloud", store_dir=store.dir)
        path = list_trace_files(ali_dir)[0]
        plan = QueryPlan(columns=("timestamps", "is_write"))
        with collecting() as registry:
            chunks = list(iter_chunks(path, fmt="alicloud", chunk_size=64,
                                      store=store, plan=plan))
            assert registry.counter("plan.columns_pruned").value > 0
        for chunk in chunks:
            assert chunk.has_column("timestamps")
            assert not chunk.has_column("offsets")
            with pytest.raises(ColumnPrunedError):
                chunk.offsets

    def test_pruned_serving_matches_text_filtering(self, ali_dir, tmp_path):
        from repro.engine.plan import QueryPlan, RowPredicate

        store = StoreConfig(dir=str(tmp_path / "store"))
        ingest_dir(ali_dir, fmt="alicloud", store_dir=store.dir)
        plan = QueryPlan(predicate=RowPredicate(since=10.0, until=40.0))
        for path in list_trace_files(ali_dir):
            # The cold reference: text chunks filtered after the fact.
            columns = {}
            for c in iter_chunks(path, fmt="alicloud", chunk_size=64):
                ts = c.timestamps
                mask = (ts >= 10.0) & (ts < 40.0)
                if not mask.any():
                    continue
                columns.setdefault(c.volume_id, []).append(
                    (ts[mask].tobytes(), c.offsets[mask].tobytes())
                )
            want = {
                vid: (b"".join(t for t, _ in parts), b"".join(o for _, o in parts))
                for vid, parts in columns.items()
            }
            got = {}
            for c in iter_chunks(path, fmt="alicloud", chunk_size=64,
                                 store=store, plan=plan):
                t, o = got.get(c.volume_id, (b"", b""))
                got[c.volume_id] = (t + c.timestamps.tobytes(),
                                    o + c.offsets.tobytes())
            assert got == want
