"""CLI integration tests for ``repro lint`` and ``python -m repro.checks``."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.checks.cli import main as lint_main
from repro.checks.sarif import validate_sarif

CLEAN = '__all__ = []\nx = 1\n'
DIRTY = textwrap.dedent(
    """\
    import numpy as np
    __all__ = []
    rng = np.random.default_rng()
    """
)


def _subprocess_env():
    """Environment for ``-m repro.checks`` subprocesses run from any cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return env


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "dirty.py").write_text(DIRTY)
    return pkg


class TestLintMain:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert lint_main(["--no-config", str(tree / "clean.py")]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_findings_exit_nonzero(self, tree, capsys):
        assert lint_main(["--no-config", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "RC001" in out
        assert "dirty.py" in out

    def test_json_format_matches_schema(self, tree, capsys):
        lint_main(["--no-config", "--format", "json", str(tree)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 3
        assert sorted(doc) == ["counts", "findings", "version"]
        assert doc["counts"]["total"] == 1
        assert doc["counts"]["error"] == 1
        assert doc["counts"]["by_rule"] == {"RC001": 1}
        (finding,) = doc["findings"]
        assert finding["rule"] == "RC001"
        assert finding["path"].endswith("dirty.py")
        assert finding["line"] == 3
        assert finding["severity"] == "error"
        assert finding["message"]
        assert finding["hint"]

    def test_output_writes_artifact(self, tree, tmp_path, capsys):
        artifact = tmp_path / "lint.json"
        lint_main(
            ["--no-config", "--format", "json",
             "--output", str(artifact), str(tree)]
        )
        on_disk = json.loads(artifact.read_text())
        printed = json.loads(capsys.readouterr().out)
        assert on_disk == printed

    def test_sarif_flag_writes_valid_log(self, tree, tmp_path, capsys):
        sarif_path = tmp_path / "lint.sarif"
        code = lint_main(
            ["--no-config", "--sarif", str(sarif_path), str(tree)]
        )
        assert code == 1
        # stdout stays in the chosen format (text) ...
        assert "RC001" in capsys.readouterr().out
        # ... while the SARIF artifact is written alongside, and validates.
        doc = json.loads(sarif_path.read_text())
        validate_sarif(doc)
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["RC001"]

    def test_sarif_format_prints_valid_log(self, tree, capsys):
        code = lint_main(
            ["--no-config", "--format", "sarif", str(tree)]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        validate_sarif(doc)

    @pytest.mark.parametrize("flag", [["--no-cache"], ["--cache-dir", "x"]])
    def test_removed_cache_flags_are_usage_errors(self, tree, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--no-config", *flag, str(tree)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert lint_main(["--no-config", str(missing)]) == 2
        assert "no-such-dir" in capsys.readouterr().out

    def test_default_run_writes_nothing_under_the_config_root(self, tmp_path, capsys):
        root = tmp_path / "proj"
        (root / "src" / "pkg").mkdir(parents=True)
        (root / "src" / "pkg" / "clean.py").write_text(CLEAN)
        pyproject = root / "pyproject.toml"
        pyproject.write_text('[tool.repro.checks]\npaths = ["src/pkg"]\n')
        before = sorted(p.relative_to(root) for p in root.rglob("*"))
        try:
            code = lint_main(["--config", str(pyproject)])
        except RuntimeError:
            pytest.skip("no TOML reader on this interpreter")
        assert code == 0, capsys.readouterr().out
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == before

    def test_select_restricts_rules(self, tree, capsys):
        assert lint_main(
            ["--no-config", "--select", "RC006", str(tree)]
        ) == 0
        assert "no findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == ["RC001", "RC002", "RC003", "RC005", "RC006", "RC008", "RC009"]

    @pytest.mark.parametrize("rule_id", ["RC999", "RC007"])
    def test_unknown_select_id_is_usage_error(self, tree, rule_id, capsys):
        assert lint_main(["--no-config", "--select", f"RC001,{rule_id}", str(tree)]) == 2
        out = capsys.readouterr().out
        assert rule_id in out and "--select" in out

    def test_unknown_rule_table_is_usage_error(self, tree, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro.checks.rules.RC999]\nenabled = true\n")
        try:
            code = lint_main(["--config", str(pyproject), str(tree)])
        except RuntimeError:
            pytest.skip("no TOML reader on this interpreter")
        assert code == 2
        assert "RC999" in capsys.readouterr().out

    def test_exclude_patterns_hold_from_a_subdirectory(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "proj"
        (root / "lib" / "vendored").mkdir(parents=True)
        (root / "lib" / "clean.py").write_text(CLEAN)
        (root / "lib" / "vendored" / "x.py").write_text(DIRTY)
        (root / "docs").mkdir()
        (root / "pyproject.toml").write_text(
            '[tool.repro.checks]\npaths = ["lib"]\nexclude = ["lib/vendored/*"]\n'
        )
        for cwd in (root, root / "docs", root / "lib" / "vendored"):
            monkeypatch.chdir(cwd)
            try:
                code = lint_main([])
            except RuntimeError:
                pytest.skip("no TOML reader on this interpreter")
            out = capsys.readouterr().out
            assert code == 0, (cwd, out)
            assert "no findings" in out

    def test_explicit_config_scopes_rules(self, tree, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.checks.rules.RC001]\nenabled = false\n"
        )
        try:
            code = lint_main(
                ["--config", str(pyproject), str(tree)]
            )
        except RuntimeError:
            pytest.skip("no TOML reader on this interpreter")
        capsys.readouterr()
        assert code == 0


class TestChangedScoping:
    def _git(self, cwd, *args):
        return subprocess.run(
            ["git", "-c", "user.email=t@example.com", "-c", "user.name=t", *args],
            cwd=cwd, capture_output=True, text=True,
        )

    @pytest.fixture
    def repo(self, tmp_path):
        if self._git(tmp_path, "init").returncode != 0:
            pytest.skip("git unavailable")
        (tmp_path / "committed_bad.py").write_text(DIRTY)
        (tmp_path / "clean.py").write_text(CLEAN)
        self._git(tmp_path, "add", "-A")
        if self._git(tmp_path, "commit", "-m", "seed").returncode != 0:
            pytest.skip("git commit unavailable")
        return tmp_path

    def _lint(self, repo, *extra, cwd=None, path=None):
        return subprocess.run(
            [sys.executable, "-m", "repro.checks", "--no-config",
             "--format", "json", *extra, str(path or repo)],
            cwd=cwd or repo, capture_output=True, text=True, env=_subprocess_env(),
        )

    def test_changed_reports_only_touched_files(self, repo):
        (repo / "untracked_bad.py").write_text(DIRTY)
        proc = self._lint(repo, "--changed", "HEAD")
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        paths = {f["path"] for f in doc["findings"]}
        assert paths and all(p.endswith("untracked_bad.py") for p in paths), paths
        # the committed violation still exists — an unscoped run reports it
        full = json.loads(self._lint(repo).stdout)
        assert any(f["path"].endswith("committed_bad.py") for f in full["findings"])

    def test_changed_from_a_subdirectory(self, repo):
        # git prints diff paths from the top level and untracked paths from
        # the working directory; both must still match the linted files.
        sub = repo / "sub"
        sub.mkdir()
        (sub / "tracked.py").write_text(CLEAN)
        (sub / "committed_bad.py").write_text(DIRTY)
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-m", "sub")
        (sub / "tracked.py").write_text(DIRTY)
        (repo / "untracked_bad.py").write_text(DIRTY)
        proc = self._lint(repo, "--changed", "HEAD", cwd=sub, path="..")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        paths = sorted(f["path"] for f in json.loads(proc.stdout)["findings"])
        assert paths == ["../sub/tracked.py", "../untracked_bad.py"], paths

    def test_changed_clean_when_nothing_touched(self, repo):
        proc = self._lint(repo, "--changed", "HEAD")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["findings"] == []

    def test_changed_against_bad_ref_is_usage_error(self, repo):
        proc = self._lint(repo, "--changed", "no-such-ref")
        assert proc.returncode == 2
        assert "--changed" in proc.stdout


class TestReproCliIntegration:
    def test_repro_lint_subcommand(self, tree, capsys):
        from repro.cli import main as repro_main

        code = repro_main(["lint", "--no-config", str(tree)])
        assert code == 1
        assert "RC001" in capsys.readouterr().out

    def test_module_entry_point(self, tree):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.checks", "--no-config",
             "--format", "json", str(tree)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["counts"]["total"] == 1
