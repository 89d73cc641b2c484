"""Tests for `repro runs`: list/show/diff and the regression gate."""

import json

import pytest

from repro.cli import main
from repro.obs import ledger
from repro.obs.runs import check_metrics, diff_metrics


@pytest.fixture()
def ledger_dir(tmp_path):
    directory = tmp_path / "runs"
    for i, rps in enumerate((1000.0, 1200.0)):
        record = ledger.build_record(
            "bench_engine",
            config={"workers": 1, "i": i},
            metrics={"engine.requests_per_second": rps, "run.wall_seconds": 2.0 - i},
            wall_seconds=2.0 - i,
        )
        ledger.append_record(record, str(directory))
    return str(directory)


def baseline_file(tmp_path, baseline=1150.0, max_regression=0.2, direction="higher"):
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "records": {
            "bench_engine": {
                "metrics": {
                    "engine.requests_per_second": {
                        "baseline": baseline,
                        "direction": direction,
                        "max_regression": max_regression,
                    }
                }
            }
        },
    }))
    return str(path)


class TestList:
    def test_lists_oldest_first(self, ledger_dir, capsys):
        assert main(["runs", "list", "--ledger-dir", ledger_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all("bench_engine" in line for line in lines)
        assert lines == sorted(lines)

    def test_json_and_limit(self, ledger_dir, capsys):
        assert main(["runs", "list", "--ledger-dir", ledger_dir,
                     "--limit", "1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["kind"] == "bench_engine"
        assert rows[0]["wall_seconds"] == 1.0  # the newer record

    def test_kind_filter(self, ledger_dir, capsys):
        assert main(["runs", "list", "--ledger-dir", ledger_dir,
                     "--kind", "nope"]) == 0
        assert "(no records" in capsys.readouterr().out

    def test_empty_ledger(self, tmp_path, capsys):
        assert main(["runs", "list", "--ledger-dir", str(tmp_path / "none")]) == 0
        assert "(no records" in capsys.readouterr().out


class TestShow:
    def test_show_latest(self, ledger_dir, capsys):
        assert main(["runs", "show", "latest", "--ledger-dir", ledger_dir]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "bench_engine"
        assert record["metrics"]["engine.requests_per_second"] == 1200.0

    def test_show_reports_cli_startup_cpu(self, tmp_path, capsys):
        trace_dir, runs_dir = str(tmp_path / "fleet"), str(tmp_path / "runs")
        assert main(["generate", trace_dir, "--volumes", "2", "--days", "1",
                     "--day-seconds", "30"]) == 0
        assert main(["stream-analyze", trace_dir, "--workers", "1",
                     "--output", str(tmp_path / "out.json"),
                     "--ledger-dir", runs_dir]) == 0
        capsys.readouterr()
        assert main(["runs", "show", "latest", "--ledger-dir", runs_dir]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "cli.stream-analyze"
        startup = record["timings"]["startup_cpu_seconds"]
        assert startup > 0
        assert record["metrics"]["run.startup_cpu_seconds"] == startup

    def test_show_by_unique_prefix(self, ledger_dir, capsys):
        run_id = ledger.load_record(ledger.list_records(ledger_dir)[0])["run_id"]
        assert main(["runs", "show", run_id, "--ledger-dir", ledger_dir]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == run_id

    def test_show_by_path(self, ledger_dir, capsys):
        path = ledger.list_records(ledger_dir)[0]
        assert main(["runs", "show", path]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] in path

    def test_unknown_reference_raises(self, ledger_dir):
        with pytest.raises(FileNotFoundError):
            main(["runs", "show", "zzz-no-such", "--ledger-dir", ledger_dir])

    def test_ambiguous_prefix_raises(self, ledger_dir):
        # Both records share the date prefix of their run ids.
        prefix = ledger.load_record(ledger.list_records(ledger_dir)[0])["run_id"][:4]
        with pytest.raises(ValueError, match="ambiguous"):
            main(["runs", "show", prefix, "--ledger-dir", ledger_dir])


class TestDiff:
    def test_diff_rows(self):
        a = {"metrics": {"x": 10.0, "only_a": 1.0}}
        b = {"metrics": {"x": 12.0, "only_b": 2.0}}
        rows = diff_metrics(a, b)
        by_name = {r["metric"]: r for r in rows}
        assert by_name["x"]["delta"] == pytest.approx(2.0)
        assert by_name["x"]["ratio"] == pytest.approx(1.2)
        assert "delta" not in by_name["only_a"]
        assert by_name["only_b"]["a"] is None

    def test_diff_cli(self, ledger_dir, capsys):
        paths = ledger.list_records(ledger_dir)
        assert main(["runs", "diff", paths[0], paths[1], "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        row = next(r for r in out["metrics"]
                   if r["metric"] == "engine.requests_per_second")
        assert row["ratio"] == pytest.approx(1.2)

    def test_diff_prefix_filters(self, ledger_dir, capsys):
        paths = ledger.list_records(ledger_dir)
        assert main(["runs", "diff", paths[0], paths[1],
                     "--prefix", "run.", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {r["metric"] for r in out["metrics"]} == {"run.wall_seconds"}


class TestCheck:
    def test_pass_within_threshold(self, ledger_dir, tmp_path, capsys):
        baseline = baseline_file(tmp_path, baseline=1150.0, max_regression=0.2)
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", baseline])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_breach_exits_nonzero(self, ledger_dir, tmp_path, capsys):
        # Baseline 10x the observed throughput: an injected regression.
        baseline = baseline_file(tmp_path, baseline=12000.0, max_regression=0.5)
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", baseline])
        assert rc == 1
        out = capsys.readouterr().out
        assert "BREACH" in out and "FAIL" in out

    def test_lower_is_better_direction(self, ledger_dir, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema_version": 1, "records": {
            "bench_engine": {"metrics": {"run.wall_seconds": {
                "baseline": 0.1, "direction": "lower", "max_regression": 0.5}}}}}))
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", str(path)])
        assert rc == 1  # 1.0s against a 0.1s baseline: 9x slower

    def test_missing_metric_fails(self, ledger_dir, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema_version": 1, "records": {
            "bench_engine": {"metrics": {"not.recorded": {"baseline": 1.0}}}}}))
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", str(path)])
        assert rc == 1
        assert "MISSING" in capsys.readouterr().out

    def test_missing_kind_entry_fails(self, ledger_dir, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema_version": 1, "records": {}}))
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", str(path)])
        assert rc == 1
        assert "no baseline entry" in capsys.readouterr().out

    def test_check_json_output(self, ledger_dir, tmp_path, capsys):
        baseline = baseline_file(tmp_path)
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", baseline, "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["checks"][0]["status"] == "ok"

    def test_check_record_path_directly(self, ledger_dir, tmp_path, capsys):
        """A benchmark's --json output gates without touching the ledger."""
        baseline = baseline_file(tmp_path)
        path = ledger.list_records(ledger_dir)[-1]
        assert main(["runs", "check", path, "--baseline", baseline]) == 0

    def test_update_rewrites_values_keeps_thresholds(
        self, ledger_dir, tmp_path, capsys
    ):
        baseline = baseline_file(tmp_path, baseline=999.0, max_regression=0.2)
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", baseline, "--update"])
        assert rc == 0
        updated = json.loads(open(baseline).read())
        spec = updated["records"]["bench_engine"]["metrics"][
            "engine.requests_per_second"]
        assert spec["baseline"] == 1200.0  # value refreshed from the record
        assert spec["max_regression"] == 0.2  # threshold untouched

    def test_update_with_missing_metric_fails(self, ledger_dir, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema_version": 1, "records": {
            "bench_engine": {"metrics": {"not.recorded": {"baseline": 1.0}}}}}))
        rc = main(["runs", "check", "latest", "--ledger-dir", ledger_dir,
                   "--baseline", str(path), "--update"])
        assert rc == 1


class TestCliLedgerIntegration:
    @pytest.fixture()
    def fleet(self, tmp_path):
        out = str(tmp_path / "fleet")
        assert main(["generate", out, "--volumes", "2", "--days", "1",
                     "--day-seconds", "20"]) == 0
        return out

    def test_analyze_appends_record(self, fleet, tmp_path):
        runs_dir = str(tmp_path / "ledger")
        rc = main(["analyze", fleet, "--output", str(tmp_path / "p.json"),
                   "--ledger-dir", runs_dir, "--workers", "2"])
        assert rc == 0
        paths = ledger.list_records(runs_dir)
        assert len(paths) == 1
        record = ledger.load_record(paths[0])
        assert record["kind"] == "cli.analyze"
        assert record["exit_code"] == 0
        assert record["config"]["workers"] == 2
        assert record["dataset"]["trace_dir"].endswith("fleet")
        assert record["metrics"]["run.wall_seconds"] > 0
        assert record["metrics"]["parse.lines"] > 0
        assert "parse_batch" in record["spans"]

    def test_no_ledger_appends_nothing(self, fleet, tmp_path):
        runs_dir = str(tmp_path / "ledger")
        rc = main(["analyze", fleet, "--output", str(tmp_path / "p.json"),
                   "--ledger-dir", runs_dir, "--no-ledger"])
        assert rc == 0
        assert ledger.list_records(runs_dir) == []

    def test_generate_never_ledgers(self, tmp_path, monkeypatch):
        runs_dir = tmp_path / "ledger"
        monkeypatch.setenv(ledger.ENV_VAR, str(runs_dir))
        assert main(["generate", str(tmp_path / "f2"), "--volumes", "1",
                     "--days", "1", "--day-seconds", "20"]) == 0
        assert ledger.list_records(str(runs_dir)) == []

    def test_two_runs_then_diff_and_check(self, fleet, tmp_path, capsys):
        runs_dir = str(tmp_path / "ledger")
        for _ in range(2):
            assert main(["analyze", fleet, "--output", str(tmp_path / "p.json"),
                         "--ledger-dir", runs_dir]) == 0
        capsys.readouterr()
        a, b = ledger.list_records(runs_dir)
        assert main(["runs", "diff", a, b, "--prefix", "parse.", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["metrics"]
        row = next(r for r in rows if r["metric"] == "parse.lines")
        assert row["ratio"] == pytest.approx(1.0)  # same fleet, same counts
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"schema_version": 1, "records": {
            "cli.analyze": {"metrics": {"parse.lines": {
                "baseline": row["a"], "direction": "higher",
                "max_regression": 0.0}}}}}))
        assert main(["runs", "check", "latest", "--ledger-dir", runs_dir,
                     "--baseline", str(baseline)]) == 0


class TestCheckMetricsUnit:
    def test_regression_sign_conventions(self):
        entry = {"metrics": {
            "thr": {"baseline": 100.0, "direction": "higher", "max_regression": 0.1},
            "lat": {"baseline": 1.0, "direction": "lower", "max_regression": 0.1},
        }}
        ok, rows = check_metrics({"metrics": {"thr": 95.0, "lat": 1.05}}, entry)
        assert ok
        by = {r["metric"]: r for r in rows}
        assert by["thr"]["regression"] == pytest.approx(0.05)
        assert by["lat"]["regression"] == pytest.approx(0.05)

    def test_improvements_never_breach(self):
        entry = {"metrics": {
            "thr": {"baseline": 100.0, "direction": "higher", "max_regression": 0.0},
        }}
        ok, rows = check_metrics({"metrics": {"thr": 500.0}}, entry)
        assert ok and rows[0]["regression"] < 0

    def test_zero_baseline_never_divides(self):
        entry = {"metrics": {"x": {"baseline": 0.0}}}
        ok, _ = check_metrics({"metrics": {"x": 5.0}}, entry)
        assert ok
