"""Fixture-package tests for the whole-program rules RC008 and RC009."""

import textwrap

from repro.checks import CheckConfig, RuleConfig, collect_files, lint_files


def write(path, source=""):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint_tree(root, select, config=None):
    config = config if config is not None else CheckConfig()
    return lint_files(collect_files([str(root)], config), config=config, select=select)


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
