"""Tests for repro.engine.chunks: chunked readers vs the row readers.

The chunked fast path must be *semantically byte-identical* to the row
readers: same accepted syntax, same values, same errors with the same
messages and line numbers.
"""

import gzip
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.engine.chunks import (
    Chunk,
    chunks_from_trace,
    iter_chunks,
    list_trace_files,
    read_dataset_dir_chunked,
)
from repro.cli import main
from repro.obs import metrics
from repro.trace import write_dataset_dir
from repro.trace.blocks import expand_to_blocks
from repro.trace.reader import (
    TraceFormatError,
    iter_alicloud_requests,
    iter_msrc_requests,
)

from conftest import TEST_SCALE, make_trace


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def _concat_chunks(chunks):
    """Per-volume column arrays from a chunk stream (file order preserved)."""
    acc = {}
    for c in chunks:
        cols = acc.setdefault(c.volume_id, ([], [], [], [], []))
        cols[0].append(c.timestamps)
        cols[1].append(c.offsets)
        cols[2].append(c.sizes)
        cols[3].append(c.is_write)
        if c.response_times is not None:
            cols[4].append(c.response_times)
    return {
        vid: tuple(np.concatenate(part) if part else None for part in cols)
        for vid, cols in acc.items()
    }


def _rows_by_volume(requests):
    acc = {}
    for r in requests:
        acc.setdefault(r.volume, []).append(r)
    return acc


ALI_LINES = [
    "v1,R,0,4096,1000000",
    "v0,W,4096,8192,1500000",
    "v1,W,0,4096,2000000",
    "v0,R,12288,4096,2500000",
    "v1,R,8192,16384,3000000",
]

MSRC_LINES = [
    "128166372003061629,hostA,0,Read,0,4096,10000",
    "128166372012345678,hostA,1,Write,8192,8192,20000",
    "128166372023456789,hostA,0,Write,4096,4096,30000",
]


class TestChunkedReaderParity:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 100])
    def test_alicloud_values_identical(self, tmp_path, chunk_size):
        path = _write(tmp_path / "t.csv", ALI_LINES)
        rows = _rows_by_volume(iter_alicloud_requests(path))
        cols = _concat_chunks(iter_chunks(path, "alicloud", chunk_size=chunk_size))
        assert set(cols) == set(rows)
        for vid, reqs in rows.items():
            ts, off, sz, w, rt = cols[vid]
            assert ts.tolist() == [r.timestamp for r in reqs]
            assert off.tolist() == [r.offset for r in reqs]
            assert sz.tolist() == [r.size for r in reqs]
            assert w.tolist() == [r.is_write for r in reqs]
            assert rt is None

    @pytest.mark.parametrize("chunk_size", [1, 2, 100])
    def test_msrc_values_identical(self, tmp_path, chunk_size):
        path = _write(tmp_path / "t.csv", MSRC_LINES)
        rows = _rows_by_volume(iter_msrc_requests(path))
        cols = _concat_chunks(iter_chunks(path, "msrc", chunk_size=chunk_size))
        assert set(cols) == set(rows)  # volume ids like "hostA_0"
        for vid, reqs in rows.items():
            ts, off, sz, w, rt = cols[vid]
            assert ts.tolist() == [r.timestamp for r in reqs]
            assert off.tolist() == [r.offset for r in reqs]
            assert sz.tolist() == [r.size for r in reqs]
            assert w.tolist() == [r.is_write for r in reqs]
            assert rt.tolist() == [r.response_time for r in reqs]

    def test_header_and_blank_lines(self, tmp_path):
        lines = ["device,opcode,offset,length,timestamp", "", ALI_LINES[0], "", ALI_LINES[2]]
        path = _write(tmp_path / "t.csv", lines)
        rows = list(iter_alicloud_requests(path))
        cols = _concat_chunks(iter_chunks(path, "alicloud", chunk_size=2))
        assert len(rows) == 2
        assert cols["v1"][0].tolist() == [r.timestamp for r in rows]

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("".join(line + "\n" for line in ALI_LINES))
        rows = _rows_by_volume(iter_alicloud_requests(str(path)))
        cols = _concat_chunks(iter_chunks(str(path), "alicloud", chunk_size=2))
        assert set(cols) == set(rows)

    def test_valid_exotic_int_syntax_matches_row_reader(self, tmp_path):
        # Python int() accepts underscores; the fallback must parse, not fail.
        path = _write(tmp_path / "t.csv", ["v0,R,4_096,4096,1_000_000"])
        (row,) = list(iter_alicloud_requests(path))
        (chunk,) = list(iter_chunks(path, "alicloud"))
        assert chunk.offsets.tolist() == [row.offset] == [4096]
        assert chunk.timestamps.tolist() == [row.timestamp]

    def test_per_volume_order_preserved_in_mixed_batches(self, tmp_path):
        # Batch contains interleaved volumes; each volume keeps file order.
        path = _write(tmp_path / "t.csv", ALI_LINES)
        cols = _concat_chunks(iter_chunks(path, "alicloud", chunk_size=100))
        assert cols["v1"][0].tolist() == [1.0, 2.0, 3.0]
        assert cols["v0"][0].tolist() == [1.5, 2.5]


MALFORMED_ALI = [
    "v0,R,0,4096",  # wrong field count
    "v0,X,0,4096,100",  # bad opcode
    "v0,R,-1,4096,100",  # negative offset
    "v0,R,0,0,100",  # non-positive size
    "v0,R,12.0,4096,100",  # non-integer offset
    "v0,R,0,4096," + "9" * 320,  # timestamp past the float64 range
]


class TestChunkedReaderErrors:
    @pytest.mark.parametrize("bad", MALFORMED_ALI)
    @pytest.mark.parametrize("chunk_size", [1, 2, 100])
    def test_error_message_and_lineno_identical(self, tmp_path, bad, chunk_size):
        # The bad line sits mid-file so line numbers are non-trivial.
        path = _write(tmp_path / "t.csv", [ALI_LINES[0], ALI_LINES[1], bad, ALI_LINES[2]])
        with pytest.raises(TraceFormatError) as row_err:
            list(iter_alicloud_requests(path))
        with pytest.raises(TraceFormatError) as chunk_err:
            list(iter_chunks(path, "alicloud", chunk_size=chunk_size))
        assert str(chunk_err.value) == str(row_err.value)
        assert chunk_err.value.line_number == row_err.value.line_number == 3

    def test_msrc_error_identical(self, tmp_path):
        path = _write(tmp_path / "t.csv", [MSRC_LINES[0], "1,hostA,0,Flush,0,4096,1"])
        with pytest.raises(TraceFormatError) as row_err:
            list(iter_msrc_requests(path))
        with pytest.raises(TraceFormatError) as chunk_err:
            list(iter_chunks(path, "msrc", chunk_size=100))
        assert str(chunk_err.value) == str(row_err.value)

    def test_rejects_bad_chunk_size(self, tmp_path):
        path = _write(tmp_path / "t.csv", ALI_LINES)
        with pytest.raises(ValueError, match="chunk_size"):
            list(iter_chunks(path, "alicloud", chunk_size=0))

    def test_rejects_unknown_format(self, tmp_path):
        path = _write(tmp_path / "t.csv", ALI_LINES)
        with pytest.raises(ValueError, match="unknown trace format"):
            list(iter_chunks(path, "nope"))


#: Requests whose last byte lies past int64: the first offset does not fit
#: int64 at all, the second does, but offset + size - 1 does not.
PAST_INT64_ALI = [
    "v0,R,99999999999999999999,4096,100",
    "v0,R,9223372036854771712,8192,100",
]


class TestRequestsPastInt64:
    @pytest.mark.parametrize("bad", PAST_INT64_ALI)
    @pytest.mark.parametrize("chunk_size", [1, 100])
    def test_strict_error_names_the_line(self, tmp_path, bad, chunk_size):
        path = _write(tmp_path / "t.csv", [ALI_LINES[0], bad, ALI_LINES[1]])
        with pytest.raises(TraceFormatError) as row_err:
            list(iter_alicloud_requests(path))
        with pytest.raises(TraceFormatError) as chunk_err:
            list(iter_chunks(path, "alicloud", chunk_size=chunk_size))
        assert str(chunk_err.value) == str(row_err.value)
        assert chunk_err.value.line_number == 2
        assert "past int64" in str(chunk_err.value)

    @pytest.mark.parametrize("bad", PAST_INT64_ALI)
    @pytest.mark.parametrize(
        "policy, counter",
        [("skip", "engine.lines_skipped"), ("quarantine", "engine.lines_quarantined")],
    )
    def test_non_strict_drops_and_counts_the_line(self, tmp_path, bad, policy, counter):
        path = _write(tmp_path / "t.csv", [ALI_LINES[0], bad, ALI_LINES[1]])
        with metrics.collecting() as reg:
            cols = _concat_chunks(iter_chunks(path, "alicloud", on_error=policy))
        assert reg.counter(counter).value == 1
        assert sorted(cols) == ["v0", "v1"]
        assert sum(len(c[0]) for c in cols.values()) == 2

    def test_stream_analyze_skips_the_line(self, tmp_path, capsys):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        _write(fleet / "t.csv", ALI_LINES + PAST_INT64_ALI)
        rc = main(["stream-analyze", str(fleet), "--no-store", "--no-ledger",
                   "--on-error", "skip"])
        assert rc == 0
        profiles = json.loads(capsys.readouterr().out)["profiles"]
        assert sum(p["n_requests"] for p in profiles.values()) == len(ALI_LINES)


class TestHeaderNeedsFieldCount:
    def test_trailing_comma_on_line_one_is_data(self, tmp_path):
        # Its last field is empty, not an integer, but six fields are not
        # the format's header: the line is malformed data, not skipped.
        path = _write(tmp_path / "t.csv", ["v0,R,0,4096,100,", ALI_LINES[0]])
        with pytest.raises(TraceFormatError) as row_err:
            list(iter_alicloud_requests(path))
        with pytest.raises(TraceFormatError) as chunk_err:
            list(iter_chunks(path, "alicloud"))
        want = "line 1: expected 5 comma-separated fields, got 6"
        assert str(row_err.value) == str(chunk_err.value) == want

    def test_header_with_the_field_count_is_skipped(self, tmp_path):
        path = _write(tmp_path / "t.csv", ["device,opcode,offset,length,timestamp", ALI_LINES[0]])
        assert len(list(iter_alicloud_requests(path))) == 1
        assert sum(map(len, iter_chunks(path, "alicloud"))) == 1


class TestChunkObject:
    def test_block_expansion_matches_legacy(self):
        trace = make_trace(
            offsets=[0, 4000, 8192], sizes=[4096, 8192, 100], timestamps=[0.0, 1.0, 2.0]
        )
        chunk = Chunk.from_trace(trace)
        req_index, block_id = chunk.block_expansion(4096)
        legacy_req, legacy_block, _ = expand_to_blocks(trace.offsets, trace.sizes, 4096)
        assert req_index.tolist() == legacy_req.tolist()
        assert block_id.tolist() == legacy_block.tolist()

    def test_chunks_from_trace_cover_all_rows(self):
        trace = make_trace(timestamps=[0.0, 1.0, 2.0, 3.0, 4.0])
        chunks = list(chunks_from_trace(trace, chunk_size=2))
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert np.concatenate([c.timestamps for c in chunks]).tolist() == [
            0.0, 1.0, 2.0, 3.0, 4.0,
        ]


class TestReadDatasetDirChunked:
    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory):
        from repro.synth import make_alicloud_fleet

        fleet = make_alicloud_fleet(n_volumes=5, seed=11, scale=TEST_SCALE)
        out = tmp_path_factory.mktemp("fleet")
        write_dataset_dir(fleet, str(out), fmt="alicloud")
        return str(out)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_to_row_reader(self, fleet_dir, workers):
        # Expected: the row reader's requests, grouped by volume in order of
        # first appearance over the sorted files.
        rows = {}
        for path in list_trace_files(fleet_dir):
            for req in iter_alicloud_requests(path):
                rows.setdefault(req.volume, []).append(req)
        chunked = read_dataset_dir_chunked(
            fleet_dir, fmt="alicloud", chunk_size=97, workers=workers
        )
        assert chunked.name == os.path.basename(fleet_dir)
        assert chunked.volume_ids() == list(rows)
        for vid, reqs in rows.items():
            got = chunked[vid]
            assert got.timestamps.tolist() == [r.timestamp for r in reqs]
            assert got.offsets.tolist() == [r.offset for r in reqs]
            assert got.sizes.tolist() == [r.size for r in reqs]
            assert got.is_write.tolist() == [r.is_write for r in reqs]

    def test_volume_split_across_files(self, tmp_path):
        # Same volume in two files: sorted-path merge keeps time order.
        _write(tmp_path / "a.csv", ["v0,R,0,4096,1000000"])
        _write(tmp_path / "b.csv", ["v0,W,4096,4096,2000000"])
        dataset = read_dataset_dir_chunked(str(tmp_path), fmt="alicloud")
        trace = dataset["v0"]
        assert trace.timestamps.tolist() == [1.0, 2.0]
        assert trace.is_write.tolist() == [False, True]

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list_trace_files(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            read_dataset_dir_chunked(str(tmp_path))

    def test_peak_is_dataset_plus_one_volume(self, tmp_path):
        # Each volume's chunks are released once its arrays are built, so
        # the read peaks at the dataset, plus one volume being concatenated,
        # plus what parsing one file takes on its own.
        from repro.synth import Scale, make_alicloud_fleet

        fleet = make_alicloud_fleet(
            n_volumes=16, seed=3, scale=Scale(n_days=2, day_seconds=600.0)
        )
        write_dataset_dir(fleet, str(tmp_path), fmt="alicloud")
        chunk_size = 1024

        def traced_peak(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def read():
            return read_dataset_dir_chunked(str(tmp_path), chunk_size=chunk_size)

        read()  # warm-up: first-use allocations
        biggest = max(list_trace_files(str(tmp_path)), key=os.path.getsize)
        _, parse_peak = traced_peak(
            lambda: [len(c) for c in iter_chunks(biggest, "alicloud", chunk_size=chunk_size)]
        )
        dataset, peak = traced_peak(read)
        sizes = [
            sum(getattr(dataset[vid], c).nbytes for c in ("timestamps", "offsets", "sizes", "is_write"))
            for vid in dataset.volume_ids()
        ]
        assert len(sizes) == 16
        assert peak <= sum(sizes) + max(sizes) + parse_peak
