"""Fixture-package tests for the whole-program rules RC007-RC010."""

import os
import shutil
import textwrap

import pytest

from repro.checks import CheckConfig, RuleConfig, collect_files, lint_files


def write(path, source=""):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint_tree(root, select, config=None):
    config = config if config is not None else CheckConfig()
    return lint_files(collect_files([str(root)], config), config=config, select=select)


class TestRC007Columns:
    @pytest.fixture
    def pkg(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "chunks.py",
            """\
            class Chunk:
                def block_expansion(self):
                    return self.offsets + self.sizes
            """,
        )
        return root

    def test_direct_undeclared_read_is_an_error(self, pkg):
        write(
            pkg / "direct.py",
            """\
            class DirectAnalyzer:
                required_columns = ("sizes",)

                def consume(self, state, chunk):
                    return chunk.sizes + chunk.offsets
            """,
        )
        (finding,) = lint_tree(pkg, ["RC007"])
        assert finding.severity == "error"
        assert "'offsets'" in finding.message
        assert "DirectAnalyzer.consume" in finding.message
        assert finding.path.endswith("direct.py")
        assert finding.line == 5

    def test_read_through_module_helper_is_found(self, pkg):
        write(
            pkg / "helpered.py",
            """\
            def _tally(chunk):
                return chunk.timestamps

            class HelperAnalyzer:
                required_columns = ("sizes",)

                def consume(self, state, chunk):
                    x = chunk.sizes
                    return _tally(chunk)
            """,
        )
        (finding,) = lint_tree(pkg, ["RC007"])
        assert "'timestamps'" in finding.message
        assert "via _tally()" in finding.message
        # anchored at the forwarding call site inside consume
        assert finding.line == 9

    def test_read_through_chunk_method_crosses_modules(self, pkg):
        write(
            pkg / "methodical.py",
            """\
            from .chunks import Chunk

            class MethodAnalyzer:
                def __init__(self):
                    self.required_columns = ("offsets",)

                def consume(self, state, chunk: Chunk):
                    return chunk.block_expansion()
            """,
        )
        (finding,) = lint_tree(pkg, ["RC007"])
        assert "'sizes'" in finding.message
        assert "via Chunk.block_expansion()" in finding.message

    def test_optional_column_and_unread_declaration_are_warnings(self, pkg):
        write(
            pkg / "warny.py",
            """\
            class WarnAnalyzer:
                required_columns = ("sizes", "is_write")

                def consume(self, state, chunk):
                    return chunk.sizes + chunk.response_times
            """,
        )
        findings = lint_tree(pkg, ["RC007"])
        assert [f.severity for f in findings] == ["warning", "warning"]
        messages = " / ".join(f.message for f in findings)
        assert "optional column 'response_times'" in messages
        assert "declares 'is_write' but consume never reads it" in messages

    def test_honest_declaration_is_clean(self, pkg):
        write(
            pkg / "good.py",
            """\
            from .chunks import Chunk

            class GoodAnalyzer:
                required_columns = ("offsets", "sizes")

                def consume(self, state, chunk: Chunk):
                    return chunk.block_expansion()
            """,
        )
        assert lint_tree(pkg, ["RC007"]) == []

    def test_noqa_on_the_access_site_suppresses(self, pkg):
        write(
            pkg / "quiet.py",
            """\
            class QuietAnalyzer:
                required_columns = ("sizes",)

                def consume(self, state, chunk):
                    x = chunk.offsets  # repro: noqa[RC007]
                    return chunk.sizes
            """,
        )
        assert lint_tree(pkg, ["RC007"]) == []

    def test_undeclared_classes_are_out_of_scope(self, pkg):
        write(
            pkg / "freeform.py",
            """\
            class NotAnAnalyzer:
                def consume(self, state, chunk):
                    return chunk.offsets
            """,
        )
        assert lint_tree(pkg, ["RC007"]) == []


class TestRC007Drill:
    def test_deleting_a_spatial_column_fails_the_lint(self, tmp_path):
        """The acceptance drill: drop 'offsets' from TemporalAnalyzer's
        declaration and RC007 must name the column and the access site
        (``consume`` reaches it through ``Chunk.block_expansion``)."""
        import repro

        src = os.path.dirname(repro.__file__)
        copy = tmp_path / "repro"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        analyzers = copy / "engine" / "analyzers.py"
        text = analyzers.read_text()
        wanted = 'self.required_columns = ("timestamps", "offsets", "sizes", "is_write")'
        start = text.index("class TemporalAnalyzer:")
        at = text.index(wanted, start)
        assert at < text.index("\nclass ", start + 1), (
            "TemporalAnalyzer declaration moved; update the drill"
        )
        analyzers.write_text(
            text[:at]
            + 'self.required_columns = ("timestamps", "sizes", "is_write")'
            + text[at + len(wanted):]
        )
        findings = lint_tree(copy, ["RC007"])
        temporal = [f for f in findings if "TemporalAnalyzer" in f.message]
        assert temporal, findings
        assert any(
            "'offsets'" in f.message and f.severity == "error" for f in temporal
        ), temporal
        assert all(f.path.endswith("analyzers.py") for f in temporal)

    def test_unmodified_tree_is_clean(self, tmp_path):
        import repro

        src = os.path.dirname(repro.__file__)
        assert lint_tree(src, ["RC007"]) == []


class TestRC008EnvHandoff:
    def test_read_only_knob_is_an_error_at_the_read_site(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "orphan.py",
            """\
            import os

            def load():
                return os.environ.get("REPRO_ORPHAN")
            """,
        )
        (finding,) = lint_tree(root, ["RC008"])
        assert "'REPRO_ORPHAN'" in finding.message
        assert finding.path.endswith("orphan.py")
        assert finding.line == 4

    def test_write_anywhere_in_the_project_satisfies_the_read(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "reader.py",
            """\
            import os

            def load():
                return os.environ.get("REPRO_SHARED")
            """,
        )
        write(
            root / "writer.py",
            """\
            import os

            def enable():
                os.environ["REPRO_SHARED"] = "1"
            """,
        )
        assert lint_tree(root, ["RC008"]) == []

    def test_constant_reference_write_resolves_across_modules(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "knobs.py",
            """\
            import os

            ENV_VAR = "REPRO_XMOD"

            def load():
                return os.environ.get(ENV_VAR)
            """,
        )
        write(
            root / "activate.py",
            """\
            import os

            from . import knobs

            def enable(path):
                os.environ[knobs.ENV_VAR] = path
            """,
        )
        assert lint_tree(root, ["RC008"]) == []

    def test_unprefixed_vars_are_ignored(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "path.py",
            "import os\n\n\ndef load():\n    return os.environ.get(\"PATH\")\n",
        )
        assert lint_tree(root, ["RC008"]) == []

    def test_noqa_with_reason_suppresses(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "parent_only.py",
            """\
            import os

            def load():
                # parent-process-only knob, never handed to workers
                return os.environ.get("REPRO_PARENT")  # repro: noqa[RC008]
            """,
        )
        assert lint_tree(root, ["RC008"]) == []


class TestRC009Metrics:
    def _config(self, tmp_path, **options):
        options.setdefault("baselines", ["baselines.json"])
        options.setdefault("producers", ["producers"])
        return CheckConfig(
            rules={"RC009": RuleConfig(options=options)}, root=str(tmp_path)
        )

    def _baseline(self, tmp_path, names):
        import json

        write(
            tmp_path / "baselines.json",
            json.dumps(
                {"records": {"bench": {"metrics": {n: 1.0 for n in names}}}},
                indent=2,
            ),
        )

    def test_registry_call_sites_cover_baseline_names(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "m.py",
            """\
            def run(registry):
                registry.counter("chunks.read")
                registry.histogram("merge.latency")
            """,
        )
        self._baseline(tmp_path, ["chunks.read", "merge.latency.p99"])
        assert lint_tree(root, ["RC009"], self._config(tmp_path)) == []

    def test_producer_atoms_cover_timing_names(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(root / "m.py", "x = 1\n")
        write(
            tmp_path / "producers" / "bench_x.py",
            'LABEL = "bench.put"\n',
        )
        self._baseline(tmp_path, ["bench.put.seconds"])
        assert lint_tree(root, ["RC009"], self._config(tmp_path)) == []

    def test_unproduced_name_is_flagged_at_its_line(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(root / "m.py", 'def run(r):\n    r.counter("real.name")\n')
        self._baseline(tmp_path, ["real.name", "ghost.metric"])
        (finding,) = lint_tree(root, ["RC009"], self._config(tmp_path))
        assert "'ghost.metric'" in finding.message
        assert finding.path.endswith("baselines.json")
        baseline_text = (tmp_path / "baselines.json").read_text()
        assert '"ghost.metric"' in baseline_text.splitlines()[finding.line - 1]

    def test_fstring_sites_match_as_wildcards_but_not_everything(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "m.py",
            """\
            def run(registry, workers, anything):
                registry.counter(f"engine workers={workers}.ops")
                registry.counter(f"{anything}")
            """,
        )
        self._baseline(tmp_path, ["engine workers=8.ops", "unrelated.name"])
        (finding,) = lint_tree(root, ["RC009"], self._config(tmp_path))
        # the parametrized label matches; the all-dynamic f-string must NOT
        # have turned the rule vacuous for 'unrelated.name'
        assert "'unrelated.name'" in finding.message

    def test_extra_names_option(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(root / "m.py", "x = 1\n")
        self._baseline(tmp_path, ["run.wall_seconds"])
        config = self._config(tmp_path, extra_names=["run.wall_seconds"])
        assert lint_tree(root, ["RC009"], config) == []

    def test_unparseable_baseline_is_one_error(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(root / "m.py", "x = 1\n")
        write(tmp_path / "baselines.json", "{not json")
        (finding,) = lint_tree(root, ["RC009"], self._config(tmp_path))
        assert finding.line == 1
        assert "cannot be read as JSON" in finding.message

    def test_missing_baseline_file_is_skipped(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(root / "m.py", "x = 1\n")
        assert lint_tree(root, ["RC009"], self._config(tmp_path)) == []


class TestRC010CrossModulePicklability:
    @pytest.fixture
    def pkg(self, tmp_path):
        root = tmp_path / "pkg"
        write(root / "__init__.py")
        write(
            root / "factories.py",
            """\
            import threading

            def make_cb():
                return lambda x: x

            def make_data():
                return {"count": 0}

            def outer():
                return make_cb()

            class LockBox:
                def __init__(self):
                    self.guard = threading.Lock()
            """,
        )
        return root

    def test_factory_returning_lambda_is_flagged(self, pkg):
        write(
            pkg / "state.py",
            """\
            from .factories import make_cb

            def init_state(state):
                state.cb = make_cb()
            """,
        )
        (finding,) = lint_tree(pkg, ["RC010"])
        assert "init_state stores 'cb' from make_cb()" in finding.message
        assert "lambda" in finding.message
        assert finding.path.endswith("state.py")

    def test_factory_chain_is_followed(self, pkg):
        write(
            pkg / "state.py",
            """\
            from .factories import outer

            def init_state(state):
                state.cb = outer()
            """,
        )
        (finding,) = lint_tree(pkg, ["RC010"])
        assert "outer()" in finding.message
        assert "make_cb()" in finding.message

    def test_class_storing_a_lock_is_flagged(self, pkg):
        write(
            pkg / "state.py",
            """\
            from .factories import LockBox

            def init_state(state):
                state.box = LockBox()
            """,
        )
        (finding,) = lint_tree(pkg, ["RC010"])
        assert "constructs LockBox" in finding.message
        assert "'guard'" in finding.message

    def test_plain_data_factory_and_unresolved_callees_are_clean(self, pkg):
        write(
            pkg / "state.py",
            """\
            import numpy as np

            from .factories import make_data

            def init_state(state):
                state.data = make_data()
                state.buf = np.zeros(4)
            """,
        )
        assert lint_tree(pkg, ["RC010"]) == []

    def test_state_class_methods_are_in_scope(self, pkg):
        write(
            pkg / "state.py",
            """\
            from .factories import make_cb

            class RunState:
                def setup(self):
                    self.cb = make_cb()
            """,
        )
        (finding,) = lint_tree(pkg, ["RC010"])
        assert "RunState.setup stores 'cb'" in finding.message

    def test_non_state_scopes_are_ignored(self, pkg):
        write(
            pkg / "state.py",
            """\
            from .factories import make_cb

            def configure(app):
                app.cb = make_cb()
            """,
        )
        assert lint_tree(pkg, ["RC010"]) == []

    def test_noqa_suppresses(self, pkg):
        write(
            pkg / "state.py",
            """\
            from .factories import make_cb

            def init_state(state):
                state.cb = make_cb()  # repro: noqa[RC010]
            """,
        )
        assert lint_tree(pkg, ["RC010"]) == []
