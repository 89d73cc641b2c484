"""CLI fault-tolerance flags: the chaos drill the CI job also runs."""

import json
import os

import pytest

from repro import faults
from repro.cli import main
from repro.trace import TraceFormatError


@pytest.fixture(autouse=True)
def clean_faults():
    os.environ.pop(faults.ENV_VAR, None)
    faults._reset_for_tests()
    yield
    os.environ.pop(faults.ENV_VAR, None)
    faults._reset_for_tests()


@pytest.fixture()
def dirty_fleet(tmp_path):
    """A small generated fleet with two files made partially malformed."""
    fleet = tmp_path / "fleet"
    assert main([
        "generate", str(fleet), "--volumes", "4", "--days", "1", "--day-seconds", "20",
    ]) == 0
    files = sorted(fleet.iterdir())
    with open(files[0], "a", encoding="utf-8") as fh:
        fh.write("GARBAGE LINE\n")
    with open(files[1], "a", encoding="utf-8") as fh:
        fh.write("volx,W,not_an_int,4096,123\n")
    return fleet


class TestChaosDrill:
    def test_quarantine_run_with_crash_and_retries(self, dirty_fleet, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        faults.save_plan(faults.FaultPlan(crash_units=(0,), crash_attempts=1), str(plan))
        outputs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}.json"
            errors_path = tmp_path / f"errors{workers}.json"
            quarantine_path = tmp_path / f"quarantine{workers}.jsonl"
            rc = main([
                "stream-analyze", str(dirty_fleet),
                "--workers", workers,
                "--on-error", "quarantine",
                "--max-retries", "2",
                "--faults", str(plan),
                "--errors-out", str(errors_path),
                "--quarantine-out", str(quarantine_path),
                "--output", str(out),
            ])
            capsys.readouterr()
            assert rc == 0
            outputs[workers] = out.read_text()
            report = json.loads(errors_path.read_text())
            assert report["ok"] is False
            assert report["quarantined_lines"] == 2
            assert report["retries"] >= 1
            assert report["failed_units"] == []
            records = [
                json.loads(line) for line in quarantine_path.read_text().splitlines()
            ]
            assert len(records) == 2
            assert {"file", "lineno", "reason", "line"} <= set(records[0])
            # The injection plan must not leak into the next run.
            os.environ.pop(faults.ENV_VAR, None)
            faults._reset_for_tests()
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("command", ["stream-analyze", "analyze"])
    def test_strict_retry_lands_in_fault_ledger(self, tmp_path, capsys, command):
        # Both commands read through the same driver, so a retried unit is
        # accounted in the run's fault ledger under strict as well.
        fleet = tmp_path / "fleet"
        assert main([
            "generate", str(fleet), "--volumes", "2", "--days", "1", "--day-seconds", "20",
        ]) == 0
        plan = tmp_path / "plan.json"
        faults.save_plan(faults.FaultPlan(crash_units=(0,), crash_attempts=1), str(plan))
        errors_path = tmp_path / "errors.json"
        rc = main([
            command, str(fleet), "--max-retries", "1", "--faults", str(plan),
            "--errors-out", str(errors_path), "--output", str(tmp_path / "out.json"),
        ])
        capsys.readouterr()
        assert rc == 0
        report = json.loads(errors_path.read_text())
        assert report["policy"] == "strict"
        assert report["retries"] >= 1
        assert report["failed_units"] == []

    def test_strict_default_aborts_on_malformed(self, dirty_fleet, tmp_path):
        with pytest.raises(TraceFormatError):
            main([
                "stream-analyze", str(dirty_fleet),
                "--output", str(tmp_path / "out.json"),
            ])

    def test_analyze_quarantine(self, dirty_fleet, tmp_path, capsys):
        errors_path = tmp_path / "errors.json"
        rc = main([
            "analyze", str(dirty_fleet),
            "--on-error", "quarantine",
            "--errors-out", str(errors_path),
            "--output", str(tmp_path / "profiles.json"),
        ])
        capsys.readouterr()
        assert rc == 0
        report = json.loads(errors_path.read_text())
        assert report["quarantined_lines"] == 2
        profiles = json.loads((tmp_path / "profiles.json").read_text())
        assert len(profiles["profiles"]) == 4


class TestValidateSubcommand:
    def test_dirty_directory_reports_parse_findings(self, dirty_fleet, capsys):
        rc = main(["validate", str(dirty_fleet), "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "malformed-line" in out
        assert "issue(s) found" in out

    def test_clean_directory_ok(self, tmp_path, capsys):
        fleet = tmp_path / "fleet"
        main(["generate", str(fleet), "--volumes", "2", "--days", "1",
              "--day-seconds", "20"])
        capsys.readouterr()
        rc = main(["validate", str(fleet)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out
