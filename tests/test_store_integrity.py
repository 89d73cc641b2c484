"""Store integrity: scrubbing, v2 upgrades, quarantine + self-heal, crash drills.

An mmap-served store bypasses the parser, so a flipped bit would flow
straight into results.  These tests pin the whole defense line: v3
manifests record per-segment sizes and sha256 at build time; a shallow
scrub catches truncation, only a deep scrub catches a size-preserving
flip; ``repro store verify`` exits 1 on corruption; serving with
``--verify-store`` quarantines the corrupt entry, rebuilds it from the
source text, and produces **bit-identical** output; and a crash between
the column writes and the manifest write (the builder's commit point)
leaves no partial entry behind.
"""

import io
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro import faults
from repro.cli import main
from repro.engine.chunks import read_dataset_dir_chunked
from repro.obs import collecting
from repro.resilience import ON_ERROR_SKIP, RunErrors
from repro.store import (
    Manifest,
    StoreConfig,
    entry_dir,
    file_sha256,
    ingest_dir,
    load_current_manifest,
    scrub_store,
    segment_files,
    verify_entry,
)
from repro.store.manifest import STORE_FORMAT_VERSION
from repro.synth import Scale, make_alicloud_fleet
from repro.trace import write_dataset_dir


@pytest.fixture(autouse=True)
def clean_faults():
    os.environ.pop(faults.ENV_VAR, None)
    faults._reset_for_tests()
    yield
    os.environ.pop(faults.ENV_VAR, None)
    faults._reset_for_tests()


@pytest.fixture()
def ali_dir(tmp_path):
    fleet = make_alicloud_fleet(n_volumes=4, seed=3, scale=Scale(n_days=2, day_seconds=30.0))
    directory = str(tmp_path / "ali")
    write_dataset_dir(fleet, directory, fmt="alicloud")
    return directory


@pytest.fixture()
def warm_store(ali_dir, tmp_path):
    store_dir = str(tmp_path / "store")
    reports = ingest_dir(ali_dir, fmt="alicloud", store_dir=store_dir)
    assert reports and all(r.built for r in reports)
    return store_dir


def _entries(store_dir):
    return sorted(
        os.path.join(store_dir, name)
        for name in os.listdir(store_dir)
        if os.path.isdir(os.path.join(store_dir, name))
    )


def _lose_last_bytes(path, n=8):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - n)


def _understate_rows(path):
    """Rewrite the header in place to claim half the rows the file holds."""
    array = np.load(path, mmap_mode="r")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(array.dtype),
        "fortran_order": False,
        "shape": (len(array) // 2,),
    })
    assert len(header.getvalue()) == array.offset
    with open(path, "r+b") as fh:
        fh.write(header.getvalue())


def _flip_byte(path, offset=200):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestManifestV3:
    def test_build_records_sizes_and_hashes(self, warm_store):
        for entry in _entries(warm_store):
            manifest = Manifest.load(entry)
            assert manifest.store_format_version == STORE_FORMAT_VERSION
            for name in segment_files(manifest):
                path = os.path.join(entry, name)
                assert manifest.column_bytes[name] == os.path.getsize(path)
                assert manifest.column_hashes[name] == file_sha256(path)
            assert verify_entry(entry, manifest, deep=True) == []

    def test_v2_entry_upgrades_in_place_on_load(self, ali_dir, warm_store):
        entry = _entries(warm_store)[0]
        manifest_path = os.path.join(entry, "manifest.json")
        payload = json.loads(open(manifest_path).read())
        source = payload["source"]["path"]
        payload["store_format_version"] = 2
        del payload["column_bytes"]
        del payload["column_hashes"]
        with open(manifest_path, "w") as fh:
            json.dump(payload, fh)
        with collecting() as registry:
            manifest = load_current_manifest(entry, source)
        assert manifest.store_format_version == STORE_FORMAT_VERSION
        assert manifest.column_hashes  # hashes computed from existing segments
        assert registry.report()["counters"]["store.entries_upgraded"] == 1
        # ... and the upgrade is durable, not just in memory.
        assert Manifest.load(entry).store_format_version == STORE_FORMAT_VERSION

    def test_unhashed_entry_is_not_silently_clean_under_deep(self, warm_store):
        entry = _entries(warm_store)[0]
        manifest = Manifest.load(entry)
        manifest.column_hashes.clear()
        issues = verify_entry(entry, manifest, deep=True)
        assert issues and all(i.kind == "segment-unhashed" for i in issues)
        assert verify_entry(entry, manifest, deep=False) == []


class TestVerifyEntry:
    def test_shallow_catches_truncation(self, warm_store):
        entry = _entries(warm_store)[0]
        manifest = Manifest.load(entry)
        segment = os.path.join(entry, "timestamps.npy")
        with open(segment, "r+b") as fh:
            fh.truncate(os.path.getsize(segment) - 8)
        issues = verify_entry(entry, manifest, deep=False)
        assert [i.kind for i in issues] == ["segment-size"]

    def test_shallow_catches_missing_segment(self, warm_store):
        entry = _entries(warm_store)[0]
        manifest = Manifest.load(entry)
        os.remove(os.path.join(entry, "offsets.npy"))
        issues = verify_entry(entry, manifest, deep=False)
        assert [i.kind for i in issues] == ["segment-missing"]

    def test_only_deep_catches_size_preserving_flip(self, warm_store):
        entry = _entries(warm_store)[0]
        manifest = Manifest.load(entry)
        _flip_byte(os.path.join(entry, "timestamps.npy"))
        assert verify_entry(entry, manifest, deep=False) == []
        issues = verify_entry(entry, manifest, deep=True)
        assert [i.kind for i in issues] == ["segment-hash"]


class TestScrubStore:
    def test_statuses(self, ali_dir, warm_store):
        entries = _entries(warm_store)
        _flip_byte(os.path.join(entries[0], "timestamps.npy"))
        manifest = Manifest.load(entries[1])
        with open(manifest.source.path, "a") as fh:
            fh.write("0,R,0,4096,999999\n")  # source changed: entry is stale
        os.remove(Manifest.load(entries[2]).source.path)
        os.makedirs(os.path.join(warm_store, "vol.csv-dead.tmp-99999"))

        report = scrub_store(warm_store, deep=True)
        statuses = {os.path.basename(e.entry): e.status for e in report.entries}
        assert statuses[os.path.basename(entries[0])] == "corrupt"
        assert statuses[os.path.basename(entries[1])] == "stale"
        assert statuses[os.path.basename(entries[2])] == "source-missing"
        assert statuses[os.path.basename(entries[3])] == "ok"
        assert not report.ok
        assert [os.path.basename(p) for p in report.tmp_dirs] == ["vol.csv-dead.tmp-99999"]
        counts = report.to_dict()["status_counts"]
        assert counts == {"corrupt": 1, "stale": 1, "source-missing": 1, "ok": 1}

    def test_missing_store_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scrub_store(str(tmp_path / "nope"))

    def test_cli_exit_codes(self, ali_dir, warm_store, tmp_path, capsys):
        assert main(["store", "verify", ali_dir, "--store-dir", warm_store, "--deep"]) == 0
        capsys.readouterr()
        _flip_byte(os.path.join(_entries(warm_store)[0], "timestamps.npy"))
        out = tmp_path / "scrub.json"
        rc = main([
            "store", "verify", ali_dir, "--store-dir", warm_store,
            "--deep", "--output", str(out),
        ])
        assert rc == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["status_counts"]["corrupt"] == 1
        # The default (shallow) pass cannot see a size-preserving flip.
        assert main(["store", "verify", ali_dir, "--store-dir", warm_store]) == 0
        capsys.readouterr()

    def test_cli_default_store_dir(self, ali_dir, capsys):
        assert main(["ingest", ali_dir, "--output", os.devnull]) == 0
        assert main(["store", "verify", ali_dir, "--deep"]) == 0
        capsys.readouterr()


class TestQuarantineAndSelfHeal:
    def test_serving_heals_corruption_bit_identically(self, ali_dir, warm_store, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["stream-analyze", ali_dir, "--output", str(baseline)]) == 0
        corrupted = os.path.join(_entries(warm_store)[0], "timestamps.npy")
        _flip_byte(corrupted)

        healed = tmp_path / "healed.json"
        metrics_out = tmp_path / "metrics.json"
        errors_out = tmp_path / "errors.json"
        rc = main([
            "stream-analyze", ali_dir,
            "--store-dir", warm_store, "--verify-store",
            "--metrics-out", str(metrics_out),
            "--errors-out", str(errors_out),
            "--output", str(healed),
        ])
        capsys.readouterr()
        assert rc == 0
        assert healed.read_text() == baseline.read_text()

        counters = json.loads(metrics_out.read_text())["counters"]
        assert counters["store.self_healed"] == 1
        assert counters["store.corrupt_entries"] == 1
        assert counters["store.entries_verified"] == 3  # the clean ones

        events = json.loads(errors_out.read_text())["store_corruptions"]
        assert len(events) == 1
        assert events[0]["healed"] is True
        assert events[0]["quarantined_to"] is not None
        assert os.path.isdir(events[0]["quarantined_to"])
        assert ".corrupt-" in os.path.basename(events[0]["quarantined_to"])

        # The rebuilt entry is genuinely clean: a deep scrub agrees.
        report = scrub_store(warm_store, deep=True)
        assert report.ok
        assert len(report.quarantined) == 1

    def test_verify_without_build_falls_back_to_text(self, ali_dir, warm_store):
        entry = _entries(warm_store)[0]
        _flip_byte(os.path.join(entry, "timestamps.npy"))
        errors = RunErrors(policy=ON_ERROR_SKIP)
        store = StoreConfig(dir=warm_store, build=False, verify=True)
        dataset = read_dataset_dir_chunked(
            ali_dir, fmt="alicloud", errors=errors,
            store=store, on_error=ON_ERROR_SKIP,
        )
        # Results are still complete (text fallback), but the corruption is
        # on the record, unhealed, and the entry is gone from the store.
        assert dataset.n_volumes == 4
        assert len(errors.store_corruptions) == 1
        assert errors.store_corruptions[0].healed is False
        assert not errors.ok
        assert not os.path.isdir(entry)

    def test_clean_store_verify_serves_identically(self, ali_dir, warm_store, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        verified = tmp_path / "verified.json"
        assert main([
            "stream-analyze", ali_dir, "--store-dir", warm_store,
            "--output", str(plain),
        ]) == 0
        assert main([
            "stream-analyze", ali_dir, "--store-dir", warm_store,
            "--verify-store", "--workers", "2",
            "--output", str(verified),
        ]) == 0
        capsys.readouterr()
        assert verified.read_text() == plain.read_text()


class TestServeTimeSegmentChecks:
    """Without ``--verify-store``, serving still checks each column's header
    and size before trusting its mmap; a damaged column heals like a
    corrupt entry instead of failing inside numpy."""

    @pytest.mark.parametrize(
        "segment, damage",
        [("offsets.npy", _lose_last_bytes), ("sizes.npy", _understate_rows)],
        ids=["offsets-lost-8-bytes", "sizes-header-understates-rows"],
    )
    def test_damaged_column_heals_bit_identically(
        self, ali_dir, warm_store, tmp_path, capsys, segment, damage
    ):
        text = tmp_path / "text.json"
        assert main(["stream-analyze", ali_dir, "--no-store", "--output", str(text)]) == 0
        damage(os.path.join(_entries(warm_store)[0], segment))

        healed = tmp_path / "healed.json"
        metrics_out = tmp_path / "metrics.json"
        errors_out = tmp_path / "errors.json"
        rc = main([
            "stream-analyze", ali_dir, "--store-dir", warm_store,
            "--metrics-out", str(metrics_out), "--errors-out", str(errors_out),
            "--output", str(healed),
        ])
        capsys.readouterr()
        assert rc == 0
        assert healed.read_text() == text.read_text()
        counters = json.loads(metrics_out.read_text())["counters"]
        assert counters["store.corrupt_entries"] == 1
        assert counters["store.self_healed"] == 1
        events = json.loads(errors_out.read_text())["store_corruptions"]
        assert len(events) == 1 and events[0]["healed"] is True
        assert segment in events[0]["issues"][0]
        assert scrub_store(warm_store, deep=True).ok

    def test_damaged_column_without_build_falls_back_to_text(self, ali_dir, warm_store):
        entry = _entries(warm_store)[0]
        _lose_last_bytes(os.path.join(entry, "offsets.npy"))
        text = read_dataset_dir_chunked(ali_dir, fmt="alicloud")
        errors = RunErrors(policy=ON_ERROR_SKIP)
        served = read_dataset_dir_chunked(
            ali_dir, fmt="alicloud", errors=errors, on_error=ON_ERROR_SKIP,
            store=StoreConfig(dir=warm_store, build=False),
        )
        assert served.volume_ids() == text.volume_ids()
        for vid in text.volume_ids():
            for col in ("timestamps", "offsets", "sizes", "is_write"):
                assert np.array_equal(getattr(text[vid], col), getattr(served[vid], col))
        assert len(errors.store_corruptions) == 1
        assert errors.store_corruptions[0].healed is False
        assert not os.path.isdir(entry)

    def test_findings_over_damaged_store_matches_text(self, ali_dir, warm_store, capsys):
        rc_text = main(["findings", "--verbose", "--ali-dir", ali_dir, "--no-store"])
        text = capsys.readouterr().out
        _understate_rows(os.path.join(_entries(warm_store)[1], "sizes.npy"))
        rc_store = main([
            "findings", "--verbose", "--ali-dir", ali_dir, "--store-dir", warm_store,
        ])
        assert capsys.readouterr().out == text
        assert rc_store == rc_text


class TestIngestCrashDrill:
    def test_ingest_lists_store_dir_once(self, tmp_path, monkeypatch):
        # The stale-temp sweep runs once per store directory, not per entry.
        source = tmp_path / "many"
        source.mkdir()
        for i in range(20):
            (source / f"f{i:02d}.csv").write_text(f"v{i},R,0,4096,1000000\n")
        store_dir = str(tmp_path / "store")
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        dead = os.path.join(store_dir, f"gone.csv-0123456789ab.tmp-{finished.pid}")
        os.makedirs(dead)
        listed = []
        real_listdir = os.listdir

        def counting_listdir(path="."):
            if os.path.abspath(path) == store_dir:
                listed.append(path)
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        reports = ingest_dir(str(source), fmt="alicloud", store_dir=store_dir, workers=1)
        assert len(reports) == 20 and all(r.built for r in reports)
        assert len(listed) == 1
        assert not os.path.exists(dead)  # the dead-pid rule still sweeps

    def test_raise_kind_leaves_no_partial_entry(self, ali_dir, tmp_path):
        store_dir = str(tmp_path / "store")
        victim = sorted(os.listdir(ali_dir))[0]
        faults.activate(faults.FaultPlan(
            ingest_crash_files=(victim,), ingest_crash_kind="raise",
        ))
        with pytest.raises(faults.InjectedFault):
            ingest_dir(ali_dir, fmt="alicloud", store_dir=store_dir)
        entry = entry_dir(store_dir, os.path.join(ali_dir, victim))
        assert Manifest.load(entry) is None  # the commit record never landed
        faults.deactivate()
        reports = ingest_dir(ali_dir, fmt="alicloud", store_dir=store_dir)
        assert all(r.built for r in reports)  # nothing half-written blocked it
        assert scrub_store(store_dir, deep=True).ok

    def test_sigkill_mid_ingest_then_rebuild(self, ali_dir, tmp_path):
        store_dir = str(tmp_path / "store")
        victim = sorted(os.listdir(ali_dir))[0]
        plan = tmp_path / "plan.json"
        faults.save_plan(faults.FaultPlan(ingest_crash_files=(victim,)), str(plan))
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_LEDGER_DIR"] = str(tmp_path / "ledger")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "ingest", ali_dir,
             "--store-dir", store_dir, "--faults", str(plan),
             "--output", os.devnull],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
        entry = entry_dir(store_dir, os.path.join(ali_dir, victim))
        # Columns were on disk when the process died, but only inside the
        # temp build directory: no committed entry is visible.
        assert Manifest.load(entry) is None
        leftovers = [n for n in os.listdir(store_dir) if ".tmp-" in n]
        assert leftovers  # the abandoned build directory, pid-stamped

        reports = ingest_dir(ali_dir, fmt="alicloud", store_dir=store_dir)
        assert all(r.built for r in reports)
        # The rebuild swept the dead process's temp directory.
        assert [n for n in os.listdir(store_dir) if ".tmp-" in n] == []
        report = scrub_store(store_dir, deep=True)
        assert report.ok and not report.tmp_dirs
