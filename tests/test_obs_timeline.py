"""Tests for repro.obs.timeline: buffering, export, engine integration.

The load-bearing contracts: recording never changes analyzer output
(bit-identical with the flight recorder on or off, at any worker
count), merged event lists are deterministic in unit order, and the
Chrome export puts each OS process on its own named lane.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.engine import StreamingProfileAnalyzer, run
from repro.obs import timeline
from repro.trace import write_dataset_dir


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory, tiny_ali):
    directory = tmp_path_factory.mktemp("timeline_fleet")
    write_dataset_dir(tiny_ali, str(directory), fmt="alicloud")
    return str(directory)


@pytest.fixture()
def recording():
    with timeline.recording():
        yield


class TestBuffer:
    def test_disabled_by_default_records_nothing(self):
        with timeline.collecting() as buf:
            timeline.record("x", 0.0, 1.0)
        assert buf.events == []

    def test_record_stamps_pid_and_unit_context(self, recording):
        with timeline.collecting() as buf:
            timeline.record("a", 1.0, 2.0)
            with timeline.unit("vol7.csv", 7):
                timeline.record("b", 2.0, 3.0)
            timeline.record("c", 3.0, 4.0)
        assert buf.events == [
            ("a", 1.0, 2.0, os.getpid(), "", -1),
            ("b", 2.0, 3.0, os.getpid(), "vol7.csv", 7),
            ("c", 3.0, 4.0, os.getpid(), "", -1),
        ]

    def test_unit_context_nests_and_restores(self, recording):
        with timeline.collecting() as buf:
            with timeline.unit("outer", 0):
                with timeline.unit("inner", 1):
                    timeline.record("x", 0.0, 1.0)
                timeline.record("y", 1.0, 2.0)
        assert [(e[4], e[5]) for e in buf.events] == [("inner", 1), ("outer", 0)]

    def test_collecting_redirects_and_restores(self, recording):
        default = timeline.get_timeline()
        before = len(default)
        with timeline.collecting() as buf:
            assert timeline.get_timeline() is buf
            timeline.record("x", 0.0, 1.0)
        assert timeline.get_timeline() is default
        assert len(default) == before
        assert len(buf) == 1

    def test_extend_preserves_given_order(self):
        tl = timeline.Timeline()
        shipped = [("u", 0.0, 1.0, 99, "f", 0), ("u", 1.0, 2.0, 98, "g", 1)]
        tl.extend(shipped)
        tl.extend([("u", 2.0, 3.0, 99, "h", 2)])
        assert [e[4] for e in tl.events] == ["f", "g", "h"]

    def test_recording_scope_restores_prior_state(self):
        assert not timeline.enabled()
        with timeline.recording():
            assert timeline.enabled()
            assert os.environ[timeline.ENV_VAR] == "1"
            with timeline.recording(False):
                assert not timeline.enabled()
                assert timeline.ENV_VAR not in os.environ
            assert timeline.enabled()
        assert not timeline.enabled()
        assert timeline.ENV_VAR not in os.environ


class TestEnvHandoff:
    """The spawn-method gap: workers that don't inherit module globals
    read the environment variable at import time instead."""

    def _enabled_in_fresh_interpreter(self, module, env_value):
        env = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_TRACE", "REPRO_TIMELINE")}
        if env_value is not None:
            env[{"tracing": "REPRO_TRACE", "timeline": "REPRO_TIMELINE"}[module]] = env_value
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = src
        out = subprocess.run(
            [sys.executable, "-c",
             f"from repro.obs import {module}; print({module}.enabled())"],
            env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip() == "True"

    @pytest.mark.parametrize("module", ["tracing", "timeline"])
    def test_env_var_enables_at_import(self, module):
        assert self._enabled_in_fresh_interpreter(module, "1")
        assert not self._enabled_in_fresh_interpreter(module, None)
        assert not self._enabled_in_fresh_interpreter(module, "0")

    def test_enable_sets_env_for_future_spawns(self):
        timeline.enable()
        try:
            assert os.environ[timeline.ENV_VAR] == "1"
        finally:
            timeline.disable()
        assert timeline.ENV_VAR not in os.environ


class TestChromeTrace:
    def _events(self):
        me = os.getpid()
        return [
            ("unit", 10.0, 11.0, 7001, "a.csv", 0),
            ("unit", 10.5, 12.0, 7002, "b.csv", 1),
            ("merge", 12.0, 12.5, me, "", -1),
        ]

    def test_slices_normalized_to_earliest_event(self):
        doc = timeline.chrome_trace(self._events())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [s["ts"] for s in slices] == [0.0, 0.5e6, 2.0e6]
        assert [s["dur"] for s in slices] == [1.0e6, 1.5e6, 0.5e6]

    def test_one_lane_per_pid_with_names(self):
        doc = timeline.chrome_trace(self._events())
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {7001: "worker-1", 7002: "worker-2", os.getpid(): "parent"}

    def test_unit_args_attached(self):
        doc = timeline.chrome_trace(self._events())
        unit_slices = [e for e in doc["traceEvents"] if e.get("cat") == "unit"]
        assert unit_slices[0]["args"] == {"unit": "a.csv", "unit_index": 0}

    def test_empty_buffer_exports_valid_doc(self, tmp_path):
        path = str(tmp_path / "empty.json")
        timeline.write_chrome_trace(path, [])
        doc = json.loads(open(path).read())
        assert doc["traceEvents"][0]["name"] == "process_name"

    def test_write_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.json")
        timeline.write_chrome_trace(path, self._events())
        doc = json.loads(open(path).read())
        assert doc == timeline.chrome_trace(self._events())


class TestEngineIntegration:
    def _unit_events(self, fleet_dir, workers):
        with timeline.recording(), timeline.collecting() as buf:
            run(fleet_dir, [StreamingProfileAnalyzer()], workers=workers)
        return [e for e in buf.events if e[0] == "unit"]

    def test_one_unit_event_per_file_sequential(self, fleet_dir, tiny_ali):
        events = self._unit_events(fleet_dir, workers=1)
        assert len(events) == tiny_ali.n_volumes
        # Sequential path: everything on the parent pid, in unit order.
        assert {e[3] for e in events} == {os.getpid()}
        assert [e[5] for e in events] == list(range(tiny_ali.n_volumes))

    def test_parallel_events_merge_in_unit_order(self, fleet_dir, tiny_ali):
        events = self._unit_events(fleet_dir, workers=4)
        assert len(events) == tiny_ali.n_volumes
        # Submission-order merge: unit indices ascend regardless of
        # which worker finished first.
        assert [e[5] for e in events] == list(range(tiny_ali.n_volumes))
        assert all(e[4] for e in events)  # every event labeled with its file

    def test_parallel_run_uses_multiple_worker_lanes(self, fleet_dir, tiny_ali):
        assert tiny_ali.n_volumes >= 12  # enough units that 4 workers all run some
        events = self._unit_events(fleet_dir, workers=4)
        pids = {e[3] for e in events}
        assert len(pids) >= 2
        assert os.getpid() not in pids  # units ran in the pool, not the parent

    def test_results_unaffected_by_recording(self, fleet_dir):
        baseline = run(fleet_dir, [StreamingProfileAnalyzer()], workers=1)
        with timeline.recording(), timeline.collecting():
            recorded = run(fleet_dir, [StreamingProfileAnalyzer()], workers=1)
        assert recorded.per_volume == baseline.per_volume


class TestCliTraceOut:
    def _analyze(self, fleet_dir, tmp_path, tag, *extra):
        out = tmp_path / f"profiles-{tag}.json"
        rc = main(["analyze", fleet_dir, "--chunk-size", "256",
                   "--output", str(out), *extra])
        assert rc == 0
        return out.read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_output_bit_identical_with_and_without_flight_recorder(
        self, fleet_dir, tmp_path, workers
    ):
        w = str(workers)
        plain = self._analyze(
            fleet_dir, tmp_path, f"plain-{w}", "--workers", w, "--no-ledger"
        )
        instrumented = self._analyze(
            fleet_dir, tmp_path, f"inst-{w}", "--workers", w,
            "--trace-out", str(tmp_path / f"trace-{w}.json"),
            "--metrics-out", str(tmp_path / f"metrics-{w}.json"),
            "--ledger-dir", str(tmp_path / "ledger"),
        )
        assert instrumented == plain

    def test_trace_out_has_worker_lanes_and_valid_slices(self, fleet_dir, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(["analyze", fleet_dir, "--workers", "4", "--no-ledger",
                   "--output", str(tmp_path / "p.json"), "--trace-out", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        units = [e for e in slices if e["cat"] == "unit"]
        worker_lanes = {e["tid"] for e in units}
        assert len(worker_lanes) >= 2
        assert all(e["ts"] >= 0.0 and e["dur"] >= 0.0 for e in slices)
        # Spans from the parent (analyze stages) share the document.
        assert any(e["cat"] == "span" for e in slices)

    def test_trace_out_without_workers_still_valid(self, fleet_dir, tmp_path):
        trace = tmp_path / "seq.json"
        rc = main(["analyze", fleet_dir, "--workers", "1", "--no-ledger",
                   "--output", str(tmp_path / "p.json"), "--trace-out", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert any(e.get("cat") == "unit" for e in doc["traceEvents"])
