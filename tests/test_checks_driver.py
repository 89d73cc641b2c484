"""Driver-level tests: config scoping, file collection, determinism, and
the repo-wide self-lint gate."""

import os
import textwrap

from repro.checks import (
    CheckConfig,
    RuleConfig,
    collect_files,
    lint_paths,
    lint_source,
    load_config,
    rule_ids,
)

VIOLATION = textwrap.dedent(
    """\
    import numpy as np
    __all__ = []
    rng = np.random.default_rng()
    """
)


class TestConfig:
    def test_defaults(self):
        config = CheckConfig()
        assert config.paths == ["src/repro"]
        assert not config.rules

    def test_load_from_pyproject(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """\
                [tool.repro.checks]
                paths = ["lib"]
                exclude = ["lib/vendored/*"]

                [tool.repro.checks.rules.RC001]
                enabled = false

                [tool.repro.checks.rules.RC005]
                severity = "warning"
                exclude = ["lib/legacy/*"]
                """
            )
        )
        config = load_config(str(pyproject))
        assert config.paths == ["lib"]
        # Patterns are anchored at the config's directory, not the cwd.
        assert config.file_excluded(str(tmp_path / "lib" / "vendored" / "x.py"))
        assert not config.file_excluded("lib/vendored/x.py")
        assert not config.rule_config("RC001").enabled
        assert config.rule_config("RC005").severity == "warning"

    def test_missing_table_gives_defaults(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[project]\nname = "x"\n')
        config = load_config(str(pyproject))
        assert config.paths == ["src/repro"]

    def test_disabled_rule_produces_no_findings(self):
        config = CheckConfig(rules={"RC001": RuleConfig(enabled=False)})
        findings = lint_source(VIOLATION, path="pkg/mod.py", config=config)
        assert "RC001" not in {f.rule for f in findings}

    def test_path_scoped_exclude(self):
        config = CheckConfig(rules={"RC001": RuleConfig(exclude=["*/entropy/*"])})
        scoped = lint_source(
            VIOLATION, path="pkg/entropy/mod.py", config=config, select=["RC001"]
        )
        unscoped = lint_source(
            VIOLATION, path="pkg/mod.py", config=config, select=["RC001"]
        )
        assert scoped == []
        assert [f.rule for f in unscoped] == ["RC001"]

    def test_severity_override_applies_to_findings(self):
        config = CheckConfig(rules={"RC001": RuleConfig(severity="warning")})
        findings = lint_source(
            VIOLATION, path="pkg/mod.py", config=config, select=["RC001"]
        )
        assert [f.severity for f in findings] == ["warning"]

    def test_config_patterns_extend_rule_defaults(self):
        # RC002's built-in obs allowlist must survive a config that adds
        # another exclusion.
        config = CheckConfig(rules={"RC002": RuleConfig(exclude=["*/cli.py"])})
        source = "import time\nx = time.time()\n"
        assert lint_source(source, path="a/obs/m.py", config=config, select=["RC002"]) == []
        assert lint_source(source, path="a/cli.py", config=config, select=["RC002"]) == []
        assert lint_source(source, path="a/core/m.py", config=config, select=["RC002"]) != []


class TestDriver:
    def test_collect_files_is_sorted_and_filtered(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "skip.txt").write_text("not python\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "c.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path / "pkg")], CheckConfig())
        names = [os.path.basename(f) for f in files]
        assert names == ["a.py", "b.py"]

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(VIOLATION)
        (pkg / "good.py").write_text('__all__ = []\nx = 1\n')
        findings = lint_paths([str(pkg)], config=CheckConfig())
        assert [f.rule for f in findings] == ["RC001"]
        assert findings[0].path.endswith("bad.py")

    def test_output_is_deterministic(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "m1.py").write_text(VIOLATION)
        (pkg / "m2.py").write_text(VIOLATION)
        first = lint_paths([str(pkg)], config=CheckConfig())
        second = lint_paths([str(pkg)], config=CheckConfig())
        assert first == second
        assert first == sorted(first)

    def test_rule_ids_cover_the_documented_pack(self):
        assert rule_ids() == [
            "RC001", "RC002", "RC003", "RC005", "RC006", "RC008", "RC009",
        ]

    def test_rule_scopes_partition_the_pack(self):
        from repro.checks import all_rules

        scopes = {rule.id: rule.scope for rule in all_rules()}
        assert {r for r, s in scopes.items() if s == "project"} == {"RC008", "RC009"}
        assert all(s == "file" for r, s in scopes.items() if r <= "RC006")


class TestSelfLint:
    """The gate the CI lint job enforces, run as a tier-1 test: the repo's
    own source must satisfy its own invariants."""

    ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))

    def _config(self):
        try:
            return load_config(os.path.join(self.ROOT, "pyproject.toml"))
        except RuntimeError:  # no tomllib on this interpreter
            return CheckConfig(root=self.ROOT)

    def test_repo_source_is_clean(self):
        src = os.path.join(self.ROOT, "src", "repro")
        findings = lint_paths([src], config=self._config())
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_config_paths_resolve_from_a_subdirectory(self, monkeypatch):
        # The config's own paths are relative to pyproject.toml, not to
        # the working directory the lint runs from.
        monkeypatch.chdir(os.path.join(self.ROOT, "tests"))
        config = self._config()
        roots = config.lint_roots()
        assert roots == [os.path.join(os.pardir, "src", "repro")]
        assert collect_files(roots, config)
        findings = lint_paths(config=config)
        assert findings == [], "\n".join(str(f) for f in findings)
