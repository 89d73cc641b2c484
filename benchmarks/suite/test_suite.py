"""Smoke tests of the repository benchmark (tiny fleets, one timed run each).

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest
import run


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def smoke_passes():
    """The shortest end-to-end pass and a traced pass, keyed by ``traced``."""
    return {
        traced: run.run_pass(list(run.WORKLOADS), seed=0, scale=run.SMOKE, seconds=0,
                             traced=traced)
        for traced in (False, True)
    }


def test_spec_names_the_workloads_and_bounds(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_with_its_unit(smoke_passes, spec, traced):
    line = run.result_line(smoke_passes[traced], traced, spec)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    section = spec["per_layer" if traced else "end_to_end"]
    assert len(line["metrics"]) == len(section) * len(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for metric in section:
            got = line["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"])
            if not traced:
                assert got["value"] > 0


def test_times_are_scaled_by_the_reference_beside_them():
    fleet = run.Fleet("d", "alicloud", 1.0, blocks=1000, n_files=1, expected={})
    r = run.Run(run.WORKLOADS["stream-cold"], [fleet], setup_s=[3.0, 6.0, 9.0],
                pass_reference_s=2.0 * run.REFERENCE_S)
    for wall, ref in ((2.0, 1.0), (3.0, 2.0), (8.0, 2.0)):
        r.timed.append(run.Invocation(wall, 100.0, 0, False, b"", b""))
        r.reference_s.append(ref * run.REFERENCE_S)
    values = run.e2e_metrics(r)
    assert values["wall_s"] == 2.0  # median of 2, 1.5 and 4
    assert values["blocks_per_s"] == 500.0
    assert values["setup_s"] == 3.0
    assert values["raw_wall_s"] == 3.0


def test_traced_layers_cover_the_workers1_runs(smoke_passes):
    for name in run.WORKLOADS:
        assert 0.85 <= smoke_passes[True][name].layers["cli.covered_share"] <= 1.15


def test_a_corrupted_output_is_counted_as_failed(monkeypatch, spec):
    real_spawn, cold_calls = run.spawn, []

    def corrupting(argv, work, timeout=run.TIMEOUT_S):
        inv = real_spawn(argv, work, timeout)
        if "stream-analyze" in argv and "--no-store" in argv:
            cold_calls.append(argv)
            if len(cold_calls) == 1:  # the first timed run
                inv.output = inv.output.replace(b'"n_requests": ', b'"n_requests": 1', 1)
        return inv

    monkeypatch.setattr(run, "spawn", corrupting)
    runs = run.run_pass(["stream-cold"], seed=0, scale=run.SMOKE, seconds=0, traced=False)
    line = run.result_line(runs, False, spec)
    assert not line["correct"]
    assert line["failed"] == 1
    assert "differs" in runs["stream-cold"].failures[0]


def _record(tmp_path, name, factor):
    base = {"wall_s": [2.0, 2.04, 1.97, 2.01, 1.99],
            "peak_rss_mb": [170.0, 170.2, 169.9], "setup_s": [1.4, 1.42, 1.41]}
    samples = {k: [v * factor for v in vals] for k, vals in base.items()}
    samples["blocks_per_s"] = [1_000_000 / w for w in samples["wall_s"]]
    samples["setup_s"] = base["setup_s"]
    path = tmp_path / name
    path.write_text(json.dumps({"samples": {"stream-cold": samples}}))
    return str(path)


def test_compare_passes_identical_records_and_flags_a_slowdown(tmp_path, capsys, spec):
    a = _record(tmp_path, "a.json", 1.0)
    rows, worse = run.compare(a, _record(tmp_path, "same.json", 1.0), spec)
    assert not worse and {r[-1] for r in rows[1:]} == {"ok"}
    # Every bound is at most 25 %; 40 % more time is 29 % less throughput.
    rows, worse = run.compare(a, _record(tmp_path, "slow.json", 1.4), spec)
    verdicts = {r[1].split()[0]: r[-1] for r in rows[1:]}
    assert worse and verdicts["wall_s"] == "worse" and verdicts["blocks_per_s"] == "worse"
    assert verdicts["setup_s"] == "ok"
    assert run.main(["compare", a, str(tmp_path / "slow.json")]) == 1
    assert "worse" in capsys.readouterr().out


def test_compare_reports_a_wide_spread_as_unresolved():
    assert run.verdict([1.0, 1.5, 1.0, 1.5], [1.6, 1.0, 1.6, 1.1], "lower", 0.1) == "unresolved"
    assert run.verdict([1.0, 1.01], [1.3, 1.31], "lower", 0.1) == "worse"
    assert run.verdict([1.3, 1.31], [1.0, 1.01], "lower", 0.1) == "better"
    assert run.verdict([1.0, 1.01], [1.05, 1.06], "lower", 0.1) == "ok"
    # Higher is better: overlapping samples with a 30 % lower median.
    assert run.verdict([100] * 4, [70, 70, 70, 150], "higher", 0.25) == "unresolved"
    assert run.verdict([100, 101], [70, 71], "higher", 0.25) == "worse"
    assert run.verdict([70, 71], [100, 101], "higher", 0.25) == "better"
    assert run.verdict([100, 101], [95, 102], "higher", 0.25) == "ok"


def test_command_line_prints_one_result_object(spec):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "stream-cold",
         "--seed", "0", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, cwd=run.ROOT, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "suite")
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "stream-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
