"""Observability integration: worker determinism, CLI metrics, progress.

The load-bearing guarantee: metric counter totals are *identical* at any
worker count, because each pool unit collects into its own registry and
snapshots merge in submission order (mirroring analyzer-state merges).
"""

import json

import pytest

from repro.cli import main
from repro.engine import (
    StreamingProfileAnalyzer,
    TemporalAnalyzer,
    read_dataset_dir_chunked,
    run,
)
from repro.obs import collecting
from repro.trace import write_dataset_dir


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory, tiny_ali):
    directory = tmp_path_factory.mktemp("obs_fleet")
    write_dataset_dir(tiny_ali, str(directory), fmt="alicloud")
    return str(directory)


class TestWorkerDeterminism:
    def test_engine_counters_match_across_worker_counts(self, fleet_dir, tiny_ali):
        analyzers = lambda: [  # noqa: E731 — fresh instances per run
            TemporalAnalyzer(),
            StreamingProfileAnalyzer(),
        ]
        with collecting() as r1:
            run(fleet_dir, analyzers(), chunk_size=256, workers=1)
        with collecting() as r4:
            run(fleet_dir, analyzers(), chunk_size=256, workers=4)
        c1 = r1.snapshot()["counters"]
        c4 = r4.snapshot()["counters"]
        assert c1 == c4
        assert c1["parse.lines"] == tiny_ali.n_requests
        assert c1["engine.requests"] == tiny_ali.n_requests
        assert c1["parse.chunks"] == c1["engine.chunks"]
        assert c1["parse.chunks"] > tiny_ali.n_volumes  # chunk_size forced splits

    def test_unit_timing_observed_per_file(self, fleet_dir, tiny_ali):
        with collecting() as reg:
            run(fleet_dir, [StreamingProfileAnalyzer()], chunk_size=256, workers=4)
        snap = reg.snapshot()
        # One trace file per volume; each unit contributes one timing.
        assert snap["histograms"]["engine.unit_seconds"]["count"] == tiny_ali.n_volumes
        assert 0.0 < snap["gauges"]["engine.utilization"] <= 1.0

    def test_chunked_reader_counters_match_across_worker_counts(self, fleet_dir):
        with collecting() as r1:
            d1 = read_dataset_dir_chunked(fleet_dir, chunk_size=512, workers=1)
        with collecting() as r4:
            d4 = read_dataset_dir_chunked(fleet_dir, chunk_size=512, workers=4)
        assert r1.snapshot()["counters"] == r4.snapshot()["counters"]
        assert r1.counter("parse.lines").value == d1.n_requests == d4.n_requests

    def test_progress_fires_per_unit_and_reaches_total(self, fleet_dir, tiny_ali):
        calls = []
        run(
            fleet_dir,
            [StreamingProfileAnalyzer()],
            workers=1,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(i + 1, tiny_ali.n_volumes) for i in range(tiny_ali.n_volumes)]


class TestCliMetrics:
    def _analyze_counters(self, fleet_dir, tmp_path, workers):
        mpath = tmp_path / f"m{workers}.json"
        rc = main(
            [
                "analyze", fleet_dir, "--workers", str(workers),
                "--chunk-size", "256", "--output", str(tmp_path / f"p{workers}.json"),
                "--metrics-out", str(mpath),
            ]
        )
        assert rc == 0
        return json.loads(mpath.read_text())

    def test_analyze_metrics_out_deterministic_across_workers(
        self, fleet_dir, tmp_path, tiny_ali
    ):
        m1 = self._analyze_counters(fleet_dir, tmp_path, 1)
        m4 = self._analyze_counters(fleet_dir, tmp_path, 4)
        assert m1["counters"] == m4["counters"]
        assert m1["counters"]["parse.lines"] == tiny_ali.n_requests
        assert m1["counters"]["analyze.requests"] == tiny_ali.n_requests
        # --metrics-out turns span tracing on: stage timings are present.
        assert "span.parse_batch.seconds" in m1["histograms"]

    def test_metrics_out_scoped_per_run(self, fleet_dir, tmp_path):
        first = self._analyze_counters(fleet_dir, tmp_path, 1)
        second = self._analyze_counters(fleet_dir, tmp_path, 1)
        assert first["counters"] == second["counters"]  # no cross-run bleed

    @pytest.mark.parametrize(
        "command, analyzer",
        [("stream-analyze", "streaming_profile"), ("analyze", "columns")],
        ids=["stream-analyze", "analyze"],
    )
    def test_stream_analyze_metrics_out(self, fleet_dir, tmp_path, command, analyzer):
        # Both commands fold through the same driver: a cold run counts
        # every parsed line as an engine request.
        mpath = tmp_path / "stream.json"
        rc = main(
            [
                command, fleet_dir, "--chunk-size", "256",
                "--output", str(tmp_path / "s.json"), "--metrics-out", str(mpath),
            ]
        )
        assert rc == 0
        report = json.loads(mpath.read_text())
        assert report["counters"]["engine.requests"] == report["counters"]["parse.lines"]
        assert f"span.consume.{analyzer}.seconds" in report["histograms"]
        assert "engine.merge_seconds" in report["gauges"]

    def test_progress_flag_logs_units(self, fleet_dir, tmp_path, capsys):
        rc = main(
            [
                "--log-json", "analyze", fleet_dir, "--progress",
                "--output", str(tmp_path / "p.json"),
            ]
        )
        assert rc == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        done = [e for e in events if e["event"] == "units_done"]
        assert done, "expected units_done progress events on stderr"
        stages = {e["stage"] for e in done}
        assert {"parse", "profile"} <= stages

    def test_log_json_covers_status_lines(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        rc = main(
            [
                "--log-json", "generate", out, "--volumes", "2",
                "--days", "1", "--day-seconds", "20",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # status is no longer on stdout
        events = [json.loads(line) for line in captured.err.splitlines()]
        written = [e for e in events if e["event"] == "fleet_written"]
        assert written and written[0]["volumes"] == 2
