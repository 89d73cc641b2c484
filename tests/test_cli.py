"""Tests for the command-line interface."""

import argparse
import json
import os

import numpy as np
import pytest

from repro import __version__
from repro.cli import _json_safe, build_parser, main
from repro.engine import DEFAULT_CHUNK_SIZE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "outdir"])
        assert args.fleet == "alicloud"
        assert args.seed == 0

    def test_findings_defaults(self):
        args = build_parser().parse_args(["findings"])
        assert args.volumes == 60
        assert args.workers == 1
        assert args.chunk_size == DEFAULT_CHUNK_SIZE

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_argument_role_sets_name_real_arguments(self):
        # The ledger config and the checkpoint digest both leave arguments
        # out by name; a stale name there silently stops guarding anything.
        from repro.cli import _CHECKPOINT_IRRELEVANT_ARGS, _NON_CONFIG_ARGS

        dests = set()
        parsers = [build_parser()]
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                dests.add(action.dest)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert not _NON_CONFIG_ARGS & _CHECKPOINT_IRRELEVANT_ARGS
        assert _NON_CONFIG_ARGS <= dests, sorted(_NON_CONFIG_ARGS - dests)
        assert _CHECKPOINT_IRRELEVANT_ARGS <= dests, sorted(
            _CHECKPOINT_IRRELEVANT_ARGS - dests
        )

    @pytest.mark.parametrize("command", ["analyze", "report", "stream-analyze"])
    def test_engine_flags_accepted(self, command):
        args = build_parser().parse_args([command, "dir", "--workers", "4", "--chunk-size", "1024"])
        assert args.workers == 4
        assert args.chunk_size == 1024

    @pytest.mark.parametrize("command", ["analyze", "report", "stream-analyze"])
    @pytest.mark.parametrize("size", ["0", "-4096", "4k"])
    def test_block_size_must_be_positive(self, command, size, capsys):
        # A zero block size used to divide every metric by zero and exit 0.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "dir", "--block-size", size])
        assert exc.value.code == 2
        assert "--block-size" in capsys.readouterr().err

    def test_lint_help_is_one_description(self):
        from repro.lint_parser import LINT_DESCRIPTION, build_lint_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert sub.choices["lint"].description == LINT_DESCRIPTION
        assert [a.help for a in sub._choices_actions if a.dest == "lint"] == [LINT_DESCRIPTION]
        assert build_lint_parser().description == LINT_DESCRIPTION
        assert "picklability" not in LINT_DESCRIPTION


class TestJsonSafe:
    def test_non_finite_floats_become_null(self):
        assert _json_safe(float("nan")) is None
        assert _json_safe(float("inf")) is None
        assert _json_safe({"a": float("-inf"), "b": 1.5}) == {"a": None, "b": 1.5}

    def test_numpy_scalars_and_arrays(self):
        value = {
            "arr": np.array([1.0, np.nan, 3.0]),
            "int": np.int64(7),
            "float": np.float64("inf"),
            "nested": [np.float32(2.0), (np.int32(1),)],
        }
        safe = _json_safe(value)
        assert safe == {
            "arr": [1.0, None, 3.0], "int": 7, "float": None, "nested": [2.0, [1]],
        }
        json.dumps(safe)  # round-trips cleanly


class TestCommands:
    def test_generate_then_report(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        rc = main(
            [
                "generate", out, "--fleet", "alicloud", "--volumes", "4",
                "--days", "2", "--day-seconds", "30", "--seed", "11",
            ]
        )
        assert rc == 0
        assert len(os.listdir(out)) == 4
        rc = main(["report", out])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "Number of volumes" in captured
        assert "Write traffic" in captured

    def test_generate_msrc_format(self, tmp_path, capsys):
        out = str(tmp_path / "msrc")
        rc = main(
            [
                "generate", out, "--fleet", "msrc", "--volumes", "3",
                "--days", "2", "--day-seconds", "30",
            ]
        )
        assert rc == 0
        # MSRC volume ids parse as hostname_disk in the written files.
        files = os.listdir(out)
        assert len(files) == 3
        rc = main(["report", out, "--format", "msrc"])
        assert rc == 0

    def test_analyze_json(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        main(
            [
                "generate", out, "--volumes", "2", "--days", "2",
                "--day-seconds", "30",
            ]
        )
        capsys.readouterr()  # drop the generate message
        rc = main(["analyze", out])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["profiles"]) == 2
        assert "write_read_ratio" in payload["profiles"][0]

    def test_analyze_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        main(["generate", out, "--volumes", "2", "--days", "2", "--day-seconds", "30"])
        dest = str(tmp_path / "profiles.json")
        rc = main(["analyze", out, "--output", dest])
        assert rc == 0
        with open(dest) as fh:
            payload = json.load(fh)
        assert payload["dataset"] == "fleet"

    def test_stream_analyze(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        main(["generate", out, "--volumes", "3", "--days", "2", "--day-seconds", "30"])
        capsys.readouterr()
        rc = main(["stream-analyze", out])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["profiles"]) == 3
        profile = next(iter(payload["profiles"].values()))
        assert profile["n_requests"] > 0
        assert profile["wss_total_bytes"] > 0

    def test_experiments_filtered(self, capsys):
        rc = main(
            ["experiments", "--volumes", "6", "--day-seconds", "30", "--only", "Table I"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Fig18" not in out

    def test_experiments_selector_matching_nothing_exits_2(self, capsys):
        # "Figure 15" is inside the id "Figures 14-15 + Table V / ...".
        assert main(["experiments", "--only", "Table I", "Figure 15"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'Figure 15'" in captured.err
        assert "Figures 14-15 + Table V" in captured.err
        assert "'Table I'" not in captured.err

    def test_validate_clean(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        main(["generate", out, "--volumes", "2", "--days", "1", "--day-seconds", "30"])
        capsys.readouterr()
        rc = main(["validate", out])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_reports_issues(self, tmp_path, capsys):
        d = tmp_path / "bad"
        d.mkdir()
        # Size 0 rows are rejected at parse time, so craft a subtler issue:
        # unaligned offsets flagged by --check-alignment.
        (d / "v.csv").write_text("1,W,100,512,1000000\n")
        rc = main(["validate", str(d), "--check-alignment"])
        assert rc == 1
        assert "unaligned" in capsys.readouterr().out

    def test_stream_analyze_parallel_matches_sequential(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        main(["generate", out, "--volumes", "3", "--days", "2", "--day-seconds", "30"])
        capsys.readouterr()
        assert main(["stream-analyze", out, "--workers", "1", "--chunk-size", "64"]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert main(["stream-analyze", out, "--workers", "4", "--chunk-size", "64"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert sequential == parallel

    def test_report_parallel_matches_sequential(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        main(["generate", out, "--volumes", "3", "--days", "2", "--day-seconds", "30"])
        capsys.readouterr()
        assert main(["report", out, "--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(["report", out, "--workers", "4"]) == 0
        assert capsys.readouterr().out == sequential

    def test_findings_from_trace_dirs(self, tmp_path, capsys):
        ali = str(tmp_path / "ali")
        msrc = str(tmp_path / "msrc")
        main(["generate", ali, "--volumes", "4", "--days", "2", "--day-seconds", "30"])
        main(["generate", msrc, "--fleet", "msrc", "--volumes", "3", "--days", "2",
              "--day-seconds", "30"])
        capsys.readouterr()
        rc = main(["findings", "--ali-dir", ali, "--msrc-dir", msrc,
                   "--day-seconds", "30", "--workers", "2"])
        out = capsys.readouterr().out
        assert rc in (0, 1)  # tiny fleets need not satisfy all 15 findings
        assert "of 15 findings hold" in out

    def test_generate_compressed(self, tmp_path):
        out = str(tmp_path / "gz")
        main(
            [
                "generate", out, "--volumes", "2", "--days", "1",
                "--day-seconds", "30", "--compress",
            ]
        )
        assert all(f.endswith(".csv.gz") for f in os.listdir(out))
