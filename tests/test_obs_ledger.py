"""Tests for repro.obs.ledger: records, atomic appends, resolution."""

import json
import os
import threading

import pytest

from repro.obs import ledger
from repro.obs.metrics import MetricsRegistry


def make_registry():
    reg = MetricsRegistry()
    reg.counter("parse.lines").inc(100)
    reg.gauge("engine.utilization").set(0.75)
    reg.histogram("engine.unit_seconds").observe(0.5)
    reg.histogram("span.parse_batch.seconds").observe(0.01)
    reg.histogram("span.parse_batch.seconds").observe(0.03)
    return reg


class TestResolution:
    def test_explicit_beats_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ledger.ENV_VAR, "/from/env")
        assert ledger.resolve_ledger_dir("/explicit") == "/explicit"
        assert ledger.resolve_ledger_dir() == "/from/env"
        monkeypatch.delenv(ledger.ENV_VAR)
        assert ledger.resolve_ledger_dir() == ledger.DEFAULT_LEDGER_DIR

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(ledger.ENV_VAR, "")
        assert ledger.resolve_ledger_dir() == ledger.DEFAULT_LEDGER_DIR


class TestDigest:
    def test_key_order_never_matters(self):
        assert ledger.config_digest({"a": 1, "b": [2, 3]}) == ledger.config_digest(
            {"b": [2, 3], "a": 1}
        )

    def test_value_changes_change_the_digest(self):
        assert ledger.config_digest({"a": 1}) != ledger.config_digest({"a": 2})

    def test_non_json_values_are_stringified(self):
        digest = ledger.config_digest({"path": os})  # a module: repr()'d
        assert len(digest) == 12
        assert digest == ledger.config_digest({"path": os})


class TestBuildRecord:
    def test_registry_contributes_all_three_views(self):
        record = ledger.build_record(
            "cli.analyze",
            config={"workers": 4},
            dataset={"trace_dir": "/data"},
            registry=make_registry(),
            wall_seconds=1.5,
            cpu_seconds=4.0,
            exit_code=0,
        )
        assert record["schema_version"] == ledger.SCHEMA_VERSION
        assert record["run_id"].endswith(f"-{os.getpid()}-{record['run_id'].rsplit('-', 1)[1]}")
        assert record["config_digest"] == ledger.config_digest({"workers": 4})
        assert record["metrics"]["parse.lines"] == 100
        assert record["metrics"]["engine.utilization"] == 0.75
        assert record["metrics"]["engine.unit_seconds.count"] == 1
        assert record["metrics"]["run.wall_seconds"] == 1.5
        assert record["metrics_report"]["counters"]["parse.lines"] == 100
        assert record["spans"]["parse_batch"]["count"] == 2
        assert record["timings"] == {"wall_seconds": 1.5, "cpu_seconds": 4.0}
        assert record["host"]["python"]
        json.dumps(record)  # JSON-clean as built

    def test_startup_cpu_lands_in_timings_and_metrics(self):
        record = ledger.build_record("cli.analyze", wall_seconds=1.0, startup_cpu_seconds=0.25)
        assert record["timings"] == {"wall_seconds": 1.0, "startup_cpu_seconds": 0.25}
        assert record["metrics"]["run.startup_cpu_seconds"] == 0.25

    def test_explicit_metrics_override_registry(self):
        record = ledger.build_record(
            "bench", registry=make_registry(), metrics={"parse.lines": 7.0}
        )
        assert record["metrics"]["parse.lines"] == 7.0

    def test_run_ids_unique_within_a_burst(self):
        ids = {ledger.build_record("k")["run_id"] for _ in range(50)}
        assert len(ids) == 50

    def test_results_and_extra_attached(self):
        record = ledger.build_record(
            "bench", results=[{"name": "x"}], extra={"pruning": {"s": 2.0}}
        )
        assert record["results"] == [{"name": "x"}]
        assert record["pruning"] == {"s": 2.0}


class TestFlatten:
    def test_histogram_stats_expanded_and_none_dropped(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(2.0)
        reg.histogram("empty")
        flat = ledger.flatten_report(reg.report())
        assert flat["h.count"] == 1
        assert flat["h.p50"] == 2.0
        # Empty histograms keep their zero count but drop the null stats.
        assert flat["empty.count"] == 0
        assert "empty.mean" not in flat and "empty.p50" not in flat

    def test_span_stats_keyed_by_bare_name(self):
        stats = ledger.span_stats(make_registry().report())
        assert set(stats) == {"parse_batch"}
        assert stats["parse_batch"]["sum"] == pytest.approx(0.04)


class TestAppend:
    def test_round_trip(self, tmp_path):
        record = ledger.build_record("cli.analyze", config={"workers": 2})
        path = ledger.append_record(record, str(tmp_path))
        assert ledger.load_record(path) == json.loads(json.dumps(record, default=str))

    def test_no_temp_files_left_behind(self, tmp_path):
        ledger.append_record(ledger.build_record("k"), str(tmp_path))
        assert all(name.endswith(".json") for name in os.listdir(tmp_path))

    def test_concurrent_appends_all_land(self, tmp_path):
        records = [ledger.build_record("k", config={"i": i}) for i in range(8)]
        threads = [
            threading.Thread(target=ledger.append_record, args=(r, str(tmp_path)))
            for r in records
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        paths = ledger.list_records(str(tmp_path))
        assert len(paths) == 8
        assert {ledger.load_record(p)["run_id"] for p in paths} == {
            r["run_id"] for r in records
        }

    def test_list_records_sorted_and_filtered(self, tmp_path):
        for i in range(3):
            ledger.append_record(ledger.build_record("k", config={"i": i}), str(tmp_path))
        (tmp_path / "notes.txt").write_text("not a record")
        paths = ledger.list_records(str(tmp_path))
        assert len(paths) == 3
        assert paths == sorted(paths)

    def test_list_records_missing_dir_is_empty(self, tmp_path):
        assert ledger.list_records(str(tmp_path / "nope")) == []

    def test_env_var_steers_default_append(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ledger.ENV_VAR, str(tmp_path / "via-env"))
        path = ledger.append_record(ledger.build_record("k"))
        assert path.startswith(str(tmp_path / "via-env"))

    def test_future_schema_version_rejected(self, tmp_path):
        record = ledger.build_record("k")
        record["schema_version"] = ledger.SCHEMA_VERSION + 1
        path = ledger.append_record(record, str(tmp_path))
        with pytest.raises(ValueError, match="schema_version"):
            ledger.load_record(path)


class TestTryAppend:
    def test_success_returns_path(self, tmp_path):
        record = ledger.build_record("k")
        path = ledger.try_append_record(record, str(tmp_path))
        assert path is not None
        assert ledger.load_record(path)["run_id"] == record["run_id"]

    def test_unwritable_ledger_degrades_to_none(self, tmp_path):
        # A regular file where the ledger directory should be: every
        # os.makedirs/open underneath raises, and the caller gets None
        # instead of a crashed run.
        blocker = tmp_path / "ledger"
        blocker.write_text("not a directory")
        assert ledger.try_append_record(ledger.build_record("k"), str(blocker)) is None
