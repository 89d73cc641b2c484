"""Start-up import guard: no ``repro`` command pays for what it does not run.

The subpackage ``__init__``s re-export eagerly, so a module-level import
of a heavy optional dependency anywhere under ``repro`` is paid by every
command.  Each case below runs in a fresh interpreter and fails if scipy
or the lint driver got loaded on the way.

The same harness enforces the layering in DESIGN.md ("Layers"): the
package root, the engine, the store and ``stream-analyze`` load nothing
from the metric, simulator, generator or lint layers above them.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.stats
import repro.trace
from repro.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Module-name prefixes no start-up path may load.
FORBIDDEN = ("scipy", "repro.checks.driver")

#: Packages above the engine and store; nothing below them may load one.
UPPER_LAYERS = ("repro.core", "repro.cache", "repro.synth", "repro.cluster", "repro.checks")

STATS_ALL = [
    "EmpiricalCDF", "BoxplotStats", "PAPER_PERCENTILES", "percentile_table",
    "percentile_groups", "Histogram", "linear_histogram", "log_histogram",
    "duration_group_fractions", "bucket_counts", "bucket_edges",
    "interval_activity", "max_interval_count", "StreamingMoments",
    "StreamingMinMax", "ReservoirSampler", "CANDIDATES", "DistributionFit",
    "fit_distributions", "best_fit", "HyperLogLog",
]

TRACE_ALL = [
    "DEFAULT_BLOCK_SIZE", "SECTOR_SIZE", "IORequest", "OpType", "TraceDataset",
    "VolumeTrace", "TraceFormatError", "iter_alicloud_requests",
    "iter_msrc_requests", "write_alicloud", "write_msrc", "write_dataset_dir", "filter_volumes",
    "filter_time_range", "reads_only", "writes_only", "rebase_timestamps",
    "split_days", "top_traffic_volume_ids", "ValidationIssue",
    "ValidationReport", "validate_volume", "validate_dataset",
    "validate_trace_dir", "SampledTrace", "interval_features",
    "select_representatives", "BlockEvents", "block_events", "block_range",
    "block_traffic", "expand_to_blocks", "unique_blocks", "working_set_size",
]


def _loaded_after(code: str, forbidden=FORBIDDEN) -> list:
    """Forbidden modules in ``sys.modules`` after ``code`` runs in a fresh process."""
    script = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps(sorted(
            m for m in sys.modules if m.startswith({tuple(forbidden)!r})
        )))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fleets(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    ali, msrc = str(root / "ali"), str(root / "msrc")
    small = ["--volumes", "3", "--days", "2", "--day-seconds", "30"]
    assert main(["generate", ali, *small]) == 0
    assert main(["generate", msrc, "--fleet", "msrc", *small]) == 0
    return ali, msrc, str(root)


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.cli",
        "import repro.cli; repro.cli.build_parser()",
    ],
    ids=["import-repro", "import-cli", "build-parser"],
)
def test_import_paths_skip_heavy_modules(code):
    assert _loaded_after(code) == []


def test_stream_analyze_skips_heavy_modules(fleets):
    ali, _, root = fleets
    argv = ["stream-analyze", ali, "--no-store", "--workers", "1", "--no-ledger",
            "--output", os.path.join(root, "stream.json")]
    assert _loaded_after(f"import repro.cli; repro.cli.main({argv!r})") == []


@pytest.mark.parametrize(
    "code",
    ["import repro", "import repro.engine", "import repro.store"],
    ids=["import-repro", "import-engine", "import-store"],
)
def test_lower_layers_load_no_upper_layer(code):
    assert _loaded_after(code, UPPER_LAYERS) == []


def test_stream_analyze_loads_no_upper_layer(fleets):
    ali, _, root = fleets
    argv = ["stream-analyze", ali, "--no-store", "--workers", "1", "--no-ledger",
            "--output", os.path.join(root, "stream-layers.json")]
    assert _loaded_after(f"import repro.cli; repro.cli.main({argv!r})", UPPER_LAYERS) == []


def test_package_root_exports_only_its_version():
    assert repro.__all__ == ["__version__"]


def test_findings_skips_heavy_modules(fleets):
    ali, msrc, _ = fleets
    argv = ["findings", "--ali-dir", ali, "--msrc-dir", msrc, "--store",
            "--workers", "1", "--no-ledger"]
    # findings exits 1 when a finding does not hold on this tiny fleet;
    # only the imports matter here.
    assert _loaded_after(f"import repro.cli; repro.cli.main({argv!r})") == []


def test_lazy_scipy_modules_keep_their_exports():
    assert repro.stats.__all__ == STATS_ALL
    assert repro.trace.__all__ == TRACE_ALL
    for module in (repro.stats, repro.trace):
        for name in module.__all__:
            assert getattr(module, name) is not None, name
    assert callable(repro.stats.fit_distributions)
    assert callable(repro.trace.select_representatives)
    assert list(repro.stats.CANDIDATES) == [
        "exponential", "lognormal", "weibull", "pareto", "gamma",
    ]
