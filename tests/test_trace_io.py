"""Tests for repro.trace.reader and repro.trace.writer (round trips).

Whole files and directories read back through
:func:`repro.engine.read_dataset_dir_chunked`, the one text-to-dataset path.
"""

import gzip
import os

import numpy as np
import pytest

from repro.engine import read_dataset_dir_chunked
from repro.trace import (
    TraceDataset,
    TraceFormatError,
    iter_alicloud_requests,
    iter_msrc_requests,
    write_alicloud,
    write_dataset_dir,
    write_msrc,
)

from conftest import make_trace

ALICLOUD_LINES = "\n".join(
    [
        "1,W,4096,8192,1000000",
        "1,R,0,512,2000000",
        "2,W,8192,4096,1500000",
    ]
)

MSRC_LINES = "\n".join(
    [
        "128166372003061629,src1,0,Read,4096,512,1200",
        "128166372013061629,src1,0,Write,8192,4096,800",
        "128166372023061629,web2,1,Read,0,1024,500",
    ]
)


class TestAliCloudReader:
    def test_parses_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(ALICLOUD_LINES)
        reqs = list(iter_alicloud_requests(str(path)))
        assert len(reqs) == 3
        assert reqs[0].volume == "1"
        assert reqs[0].is_write
        assert reqs[0].offset == 4096
        assert reqs[0].size == 8192
        assert reqs[0].timestamp == pytest.approx(1.0)  # microseconds -> s

    def test_read_groups_by_volume(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(ALICLOUD_LINES)
        ds = read_dataset_dir_chunked(str(tmp_path), fmt="alicloud")
        assert ds.n_volumes == 2
        assert ds["1"].n_requests == 2
        assert ds["2"].n_requests == 1

    def test_skips_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("device_id,opcode,offset,length,timestamp\n" + ALICLOUD_LINES)
        assert len(list(iter_alicloud_requests(str(path)))) == 3

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(ALICLOUD_LINES + "\n\n")
        assert len(list(iter_alicloud_requests(str(path)))) == 3

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,W,4096,8192\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            list(iter_alicloud_requests(str(path)))

    def test_rejects_bad_opcode(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,Q,4096,8192,1000000\n")
        with pytest.raises(TraceFormatError):
            list(iter_alicloud_requests(str(path)))

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(ALICLOUD_LINES)
        assert len(list(iter_alicloud_requests(str(path)))) == 3


class TestMSRCReader:
    def test_parses_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(MSRC_LINES)
        reqs = list(iter_msrc_requests(str(path)))
        assert reqs[0].volume == "src1_0"
        assert not reqs[0].is_write
        assert reqs[0].response_time == pytest.approx(1200 / 1e7)

    def test_filetime_conversion(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(MSRC_LINES)
        reqs = list(iter_msrc_requests(str(path)))
        # Second request is 1e7 ticks = 1 second later.
        assert reqs[1].timestamp - reqs[0].timestamp == pytest.approx(1.0)

    def test_read_volume_ids(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(MSRC_LINES)
        ds = read_dataset_dir_chunked(str(tmp_path), fmt="msrc")
        assert sorted(ds.volume_ids()) == ["src1_0", "web2_1"]


class TestRoundTrips:
    def _dataset(self):
        ds = TraceDataset("rt")
        ds.add(
            make_trace(
                "7",
                timestamps=[0.5, 1.25, 2.0],
                offsets=[0, 8192, 4096],
                sizes=[4096, 512, 1024],
                is_write=[True, False, True],
            )
        )
        ds.add(make_trace("9", timestamps=[0.75], offsets=[512], sizes=[512], is_write=[False]))
        return ds

    def test_alicloud_round_trip(self, tmp_path):
        ds = self._dataset()
        path = str(tmp_path / "out.csv")
        write_alicloud(ds, path)
        back = read_dataset_dir_chunked(str(tmp_path), fmt="alicloud")
        assert back.n_volumes == 2
        for vid in ds.volume_ids():
            assert np.array_equal(back[vid].offsets, ds[vid].offsets)
            assert np.array_equal(back[vid].sizes, ds[vid].sizes)
            assert np.array_equal(back[vid].is_write, ds[vid].is_write)
            assert np.allclose(back[vid].timestamps, ds[vid].timestamps, atol=1e-6)

    def test_msrc_round_trip(self, tmp_path):
        ds = TraceDataset("rt")
        ds.add(
            make_trace(
                "srv_0",
                timestamps=[0.5, 1.25],
                offsets=[0, 8192],
                sizes=[4096, 512],
                is_write=[True, False],
            )
        )
        path = str(tmp_path / "out.csv")
        write_msrc(ds, path)
        back = read_dataset_dir_chunked(str(tmp_path), fmt="msrc")
        assert back.volume_ids() == ["srv_0"]
        assert np.array_equal(back["srv_0"].offsets, ds["srv_0"].offsets)

    def test_msrc_writer_rejects_bad_volume_id(self, tmp_path):
        ds = TraceDataset("rt")
        ds.add(make_trace("noformat"))
        with pytest.raises(ValueError, match="hostname_disk"):
            write_msrc(ds, str(tmp_path / "x.csv"))

    def test_writer_merges_in_time_order(self, tmp_path):
        ds = self._dataset()
        path = str(tmp_path / "out.csv")
        write_alicloud(ds, path)
        with open(path) as fh:
            timestamps = [int(line.split(",")[4]) for line in fh]
        assert timestamps == sorted(timestamps)

    def test_dataset_dir_round_trip(self, tmp_path):
        ds = self._dataset()
        d = str(tmp_path / "fleet")
        write_dataset_dir(ds, d, fmt="alicloud")
        assert sorted(os.listdir(d)) == ["7.csv", "9.csv"]
        back = read_dataset_dir_chunked(d, fmt="alicloud", name="rt")
        assert back.name == "rt"
        assert back.n_requests == ds.n_requests

    def test_dataset_dir_compressed(self, tmp_path):
        ds = self._dataset()
        d = str(tmp_path / "fleet")
        write_dataset_dir(ds, d, fmt="alicloud", compress=True)
        assert all(f.endswith(".csv.gz") for f in os.listdir(d))
        back = read_dataset_dir_chunked(d, fmt="alicloud")
        assert back.n_requests == ds.n_requests

    def test_dataset_dir_empty_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset_dir_chunked(str(tmp_path), fmt="alicloud")

    def test_dataset_dir_bad_format(self, tmp_path):
        (tmp_path / "a.csv").write_text("")
        with pytest.raises(ValueError, match="unknown trace format"):
            read_dataset_dir_chunked(str(tmp_path), fmt="nope")
