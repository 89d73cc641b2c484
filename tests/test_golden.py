"""Golden outputs: the headline commands, byte-for-byte, on committed fixtures.

``tests/golden/ali`` and ``tests/golden/msrc`` hold two small trace files
each (a few hundred rows).  Every file interleaves two volumes, and a
volume first appears in the second file, so the commands' volume order
(first appearance in canonical file order) differs from sorted order.

``tests/golden/expected`` holds the commands' stdout as recorded before
the dataset reader moved onto the engine's fold driver, plus the
``findings`` exit code.  Each command reruns on a fresh copy of the
fixtures, as text (``--no-store``) and from the trace store (``--store``,
which builds the entries on first use), and must reproduce them exactly.
``experiments`` generates its fleets in memory, so it runs once, on a
small seeded pair recorded before its block metrics shared one pass.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

COMMANDS = {
    "analyze-ali.json": ["analyze", "ali"],
    "analyze-msrc.json": ["analyze", "msrc", "--format", "msrc"],
    "report-ali.txt": ["report", "ali"],
    "report-msrc.txt": ["report", "msrc", "--format", "msrc"],
    "stream-analyze-ali.json": ["stream-analyze", "ali"],
    "stream-analyze-msrc.json": ["stream-analyze", "msrc", "--format", "msrc"],
    "findings.txt": ["findings", "--verbose", "--ali-dir", "ali", "--msrc-dir", "msrc"],
}


def _expected(name: str) -> bytes:
    with open(os.path.join(GOLDEN, "expected", name), "rb") as fh:
        return fh.read()


@pytest.fixture()
def fixture_dirs(tmp_path, monkeypatch):
    """A private copy of the fixtures (``--store`` writes next to them)."""
    for fleet in ("ali", "msrc"):
        shutil.copytree(os.path.join(GOLDEN, fleet), tmp_path / fleet)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("store_flag", ["--no-store", "--store"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, store_flag, fixture_dirs, capsysbinary):
    rc = main([*COMMANDS[name], store_flag, "--no-ledger"])
    out = capsysbinary.readouterr().out
    assert out == _expected(name)
    want_rc = int(_expected("findings.exit")) if name == "findings.txt" else 0
    assert rc == want_rc


def test_golden_experiments(capsysbinary):
    rc = main(["experiments", "--volumes", "8", "--day-seconds", "2", "--seed", "0"])
    assert rc == 0
    assert capsysbinary.readouterr().out == _expected("experiments.txt")


def _comparison_text() -> str:
    """``compare_datasets`` on the fixtures: the table, the cloud-like side,
    and both summaries at full ``repr`` precision."""
    from repro.core import compare_datasets
    from repro.engine import read_dataset_dir_chunked

    comparison = compare_datasets(
        read_dataset_dir_chunked(os.path.join(GOLDEN, "ali"), fmt="alicloud"),
        read_dataset_dir_chunked(os.path.join(GOLDEN, "msrc"), fmt="msrc"),
    )
    return "\n".join([
        comparison.to_table(),
        f"cloud_like: {comparison.cloud_like()}",
        repr(comparison.left),
        repr(comparison.right),
        "",
    ])


def test_golden_compare_datasets():
    assert _comparison_text().encode() == _expected("compare-datasets.txt")
