"""Start-up import guard: no ``repro`` command pays for what it does not run.

The subpackage roots re-export lazily (PEP 562, see ``repro._lazy``):
importing a root loads none of its modules, and the first access of a
name loads only the module that defines it.  A module-level import of a
heavy dependency is still paid by every command whose path reaches that
module.  Each case below runs in a fresh interpreter and fails if scipy,
the lint driver, or a module the command never uses got loaded on the
way.

The same harness enforces the layering in DESIGN.md ("Layers"): the
package root, the engine, the store and ``stream-analyze`` load nothing
from the metric, simulator, generator or lint layers above them.  The
lazy tables themselves are checked against each root's ``if
TYPE_CHECKING:`` block (the static import path) and ``__all__``.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.stats
import repro.trace
from repro._lazy import _absolute
from repro.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Module-name prefixes no start-up path may load.
FORBIDDEN = ("scipy", "repro.checks.driver")

#: Packages above the engine and store; nothing below them may load one.
UPPER_LAYERS = ("repro.core", "repro.cache", "repro.synth", "repro.cluster", "repro.checks")

#: Package roots that resolve their ``__all__`` on first access.
LAZY_ROOTS = (
    "repro.trace", "repro.stats", "repro.store", "repro.resilience", "repro.obs",
    "repro.engine", "repro.core", "repro.cache", "repro.synth",
)

#: Modules ``stream-analyze --no-store --workers 1`` has no use for: it
#: builds no store entry, validates, samples and writes no trace, fits
#: nothing, checkpoints nothing and starts no process pool.
STREAM_UNUSED = (
    "repro.store.builder", "repro.store.scrub", "repro.trace.validation",
    "repro.trace.sampling", "repro.trace.writer", "repro.stats.fitting",
    "repro.resilience.checkpoint", "multiprocessing", "concurrent.futures.process",
)

STATS_ALL = [
    "EmpiricalCDF", "BoxplotStats", "PAPER_PERCENTILES", "percentile_table",
    "percentile_groups", "Histogram", "linear_histogram", "log_histogram",
    "duration_group_fractions", "bucket_counts", "bucket_edges",
    "interval_activity", "max_interval_count", "ReservoirSampler",
    "CANDIDATES", "DistributionFit",
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
    "select_representatives", "BlockView", "block_view", "block_range",
    "expand_to_blocks",
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


def test_stream_analyze_loads_only_what_it_uses(fleets):
    ali, _, root = fleets
    argv = ["stream-analyze", ali, "--no-store", "--workers", "1", "--no-ledger",
            "--output", os.path.join(root, "stream-unused.json")]
    assert _loaded_after(f"import repro.cli; repro.cli.main({argv!r})", STREAM_UNUSED) == []


@pytest.mark.parametrize("root", LAZY_ROOTS)
def test_lazy_root_loads_no_module_until_a_name_is_touched(root):
    assert _loaded_after(f"import {root}", (f"{root}.",)) == []


def test_touching_a_name_loads_only_its_module():
    loaded = _loaded_after(
        "import repro.trace; repro.trace.VolumeTrace", ("repro.trace.",)
    )
    assert loaded == ["repro.trace.dataset", "repro.trace.record"]


def _type_checking_exports(module):
    """``{public name: (absolute module, attribute)}`` of the root's
    ``if TYPE_CHECKING:`` block, an empty attribute naming a submodule."""
    tree = ast.parse(inspect.getsource(module))
    blocks = [
        stmt for stmt in tree.body
        if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name)
        and stmt.test.id == "TYPE_CHECKING"
    ]
    assert len(blocks) == 1
    exports = {}
    for stmt in blocks[0].body:
        assert isinstance(stmt, ast.ImportFrom) and stmt.level >= 1
        base = _absolute("." * stmt.level + (stmt.module or ""), module.__name__)
        for alias in stmt.names:
            public = alias.asname or alias.name
            assert public not in exports, public
            if stmt.module:
                exports[public] = (base, alias.name)
            else:
                exports[public] = (f"{base}.{alias.name}", "")
    return exports


@pytest.mark.parametrize("root", LAZY_ROOTS)
def test_lazy_table_mirrors_type_checking_block_and_all(root):
    module = importlib.import_module(root)
    table = module.__getattr__.exports
    assert table == _type_checking_exports(module)
    assert sorted(table) == sorted(module.__all__)
    assert len(set(module.__all__)) == len(module.__all__)
    listed = dir(module)
    for name, (owner, attr) in table.items():
        defining = importlib.import_module(owner)
        expected = getattr(defining, attr) if attr else defining
        assert getattr(module, name) is expected, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        module.not_exported


def test_package_root_exports_only_its_version():
    assert repro.__all__ == ["__version__"]


def test_findings_skips_heavy_modules(fleets):
    """Both fleets read from disk: no trace generator either."""
    ali, msrc, _ = fleets
    argv = ["findings", "--ali-dir", ali, "--msrc-dir", msrc, "--store",
            "--workers", "1", "--no-ledger"]
    # findings exits 1 when a finding does not hold on this tiny fleet;
    # only the imports matter here.
    forbidden = FORBIDDEN + ("repro.synth.fleet", "numpy.random")
    assert _loaded_after(f"import repro.cli; repro.cli.main({argv!r})", forbidden) == []


#: Modules a one-worker run never needs: the process pool's futures and
#: the socket layer (the ledger names the host with ``platform.node()``).
POOL_AND_SOCKET = ("concurrent.futures", "socket")


def test_warm_findings_loads_no_pool_socket_or_builder(fleets):
    """The run ledger stays on: it is what every default run pays for."""
    ali, msrc, root = fleets
    argv = ["findings", "--ali-dir", ali, "--msrc-dir", msrc, "--store", "--workers", "1",
            "--ledger-dir", os.path.join(root, "ledger")]
    main(argv)  # builds the store entries; the run below finds them warm
    forbidden = POOL_AND_SOCKET + ("repro.store.builder",)
    assert _loaded_after(f"import repro.cli; repro.cli.main({argv!r})", forbidden) == []


def test_one_worker_stream_analyze_loads_no_pool_or_socket(fleets):
    ali, _, root = fleets
    argv = ["stream-analyze", ali, "--no-store", "--workers", "1",
            "--ledger-dir", os.path.join(root, "ledger"),
            "--output", os.path.join(root, "stream-w1.json")]
    assert _loaded_after(f"import repro.cli; repro.cli.main({argv!r})", POOL_AND_SOCKET) == []


def test_two_workers_still_pool(fleets):
    ali, _, root = fleets
    argv = ["stream-analyze", ali, "--no-store", "--workers", "2", "--no-ledger",
            "--output", os.path.join(root, "stream-w2.json")]
    loaded = _loaded_after(
        f"import repro.cli; repro.cli.main({argv!r})", ("concurrent.futures.process",)
    )
    assert loaded == ["concurrent.futures.process"]


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
