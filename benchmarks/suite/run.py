#!/usr/bin/env python3
"""The repository benchmark: two ``repro`` CLI workloads, end to end and per layer.

Each workload is a real ``python -m repro.cli`` subprocess on seeded
synthetic fleets (see ``inputs.py``), run closed-loop by this single
process: the next invocation starts only after the previous one exits,
and no command gets more than two workers.  Every invocation's output is
checked (per-volume counts against the generator, byte equality across
repeats and between the cold and warm stream paths, findings verdicts
against an in-process ``evaluate_findings``, warm runs truly warm); a
failed check, an unexpected exit code or a timeout counts as a failure.

End-to-end metrics come from untraced runs timed with ``os.wait4``, each
between two runs of a fixed reference program that measure how fast the
shared machine is at that moment; times are scaled to a machine on which
the reference takes ``REFERENCE_S``.  The traced pass (``--trace 1``, see
``layers.py``) runs once per workload in a fresh process and reports the
per-layer metrics named in ``BENCHMARK.json``.

Usage, from the repository root::

    python3 benchmarks/suite/run.py                       # all workloads, seed 0
    python3 benchmarks/suite/run.py --seed 1 --trace 0
    python3 benchmarks/suite/run.py --workload findings-warm --seed 3 --seconds 10 --trace 1
    python3 benchmarks/suite/run.py compare A.json B.json

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  With more than one
workload each metric name is prefixed by its workload.  Records (ledger
schema) and ``trace.json`` files land in ``.benchsuite/results/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCH_ROOT = os.path.join(ROOT, ".benchsuite")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

sys.path[:0] = [HERE, os.path.dirname(HERE), SRC]

from inputs import COUNT_KEYS, Fleet, inputs_dir, load_inputs  # noqa: E402
from spans import chrome_trace  # noqa: E402

#: A command taking longer than this is killed and counted as failed.
TIMEOUT_S = 120.0
#: Set-ups (``repro ingest --force``) per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rounds of (import, path alone, command) behind the ``cli.*`` medians.
#: One round's covered share reads 0.8 to 1.3 on a busy host.
COVERAGE_ROUNDS = 5

#: The reference program, timed before and after every timed command.  It
#: does the kinds of work the commands do (start an interpreter, import
#: numpy and scipy, sort with numpy, count in a dict) in code that no
#: change to this repository touches.  Other machines on the shared host
#: slow all of these by up to 1.5x for seconds to minutes at a time; a
#: command's time over the mean of its two neighbours' cancels most of it.
REFERENCE = """
import numpy as np, scipy.stats
a = np.random.default_rng(0).integers(0, 1 << 40, 500_000)
np.unique(a, return_counts=True)
d = {}
for i in range(200_000):
    k = (i * 2654435761) & 65535
    d[k] = d.get(k, 0) + 1
"""
#: Times are reported in seconds of a machine on which REFERENCE takes this
#: long (it takes 0.85 to 2.1 s on the 2-core machine the README describes).
REFERENCE_S = 1.0


@dataclass(frozen=True)
class Scale:
    ali_blocks: int  # 4 KiB block accesses each fleet is fitted to
    msrc_blocks: int
    min_runs: int  # timed invocations per workload, whatever --seconds says


FULL = Scale(ali_blocks=1_000_000, msrc_blocks=600_000, min_runs=4)
SMOKE = Scale(ali_blocks=100_000, msrc_blocks=90_000, min_runs=1)


class SetupError(RuntimeError):
    """The benchmark could not prepare a run; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    fleets: Tuple[str, ...]  # trace formats it reads: "alicloud", "msrc"
    warm: bool
    args: Callable[[Fleet, Fleet], List[str]]  # ``repro`` arguments


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stream-cold", ("alicloud",), False,
            lambda ali, msrc: ["stream-analyze", ali.directory, "--no-store", "--workers", "1"],
        ),
        Workload(
            "findings-warm", ("alicloud", "msrc"), True,
            lambda ali, msrc: [
                "findings", "--ali-dir", ali.directory, "--msrc-dir", msrc.directory,
                "--day-seconds", f"{ali.day_seconds:g}", "--store", "--workers", "1",
            ],
        ),
    )
}

#: ``stream-cold`` output must equal, byte for byte, that of the same
#: command reading the store at 2 workers; that command runs once per run,
#: untimed, and is checked like a workload.
STREAM_WARM = Workload(
    "stream-warm", ("alicloud",), True,
    lambda ali, msrc: ["stream-analyze", ali.directory, "--store", "--workers", "2"],
)

_FINDING_LINE = re.compile(rb"^Finding\s+(\d+) \[(HOLDS|DIFFERS)\]", re.MULTILINE)


# -- subprocesses --------------------------------------------------------------


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float  # largest RSS of any process in the tree
    exit_code: int
    timed_out: bool
    output: bytes
    stderr: bytes


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pgid: int) -> None:
    """SIGKILL a command and every process it started (pool workers too)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: Sequence[str], work: str, timeout: float = TIMEOUT_S) -> Invocation:
    """Run ``argv`` to completion; time it and read its rusage via ``wait4``.

    ``wait4`` reports the child's own usage plus that of every descendant
    it waited for (the pool workers), so peak RSS covers the tree.
    This process imports nothing heavy: a child's ``ru_maxrss`` starts at
    the RSS of its parent at spawn time.  The command leads its own
    process group, so a timeout or an interrupt kills the whole tree.
    """
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=_env(), cwd=ROOT,
                                start_new_session=True)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            timer.cancel()
            _kill_group(proc.pid)
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    with open(out_path, "rb") as fh:
        output = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Invocation(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        timed_out=killed.is_set(),
        output=output,
        stderr=stderr,
    )


def python(*args: str) -> List[str]:
    return [sys.executable, *args]


def repro(args: Sequence[str], ledger_dir: str) -> List[str]:
    return python("-m", "repro.cli", *args, "--ledger-dir", ledger_dir)


def ledger_metrics(ledger_dir: str) -> Dict[str, float]:
    """Flat metrics of the one run record the CLI wrote to ``ledger_dir``."""
    paths = glob.glob(os.path.join(ledger_dir, "*.json"))
    if len(paths) != 1:
        return {}
    with open(paths[0], encoding="utf-8") as fh:
        return json.load(fh).get("metrics", {})


# -- output checks -------------------------------------------------------------


def output_counts(output: bytes) -> Dict[str, Dict[str, int]]:
    """Per-volume ``COUNT_KEYS`` of ``stream-analyze``'s JSON output."""
    profiles = json.loads(output)["profiles"]
    return {vid: {key: p[key] for key in COUNT_KEYS} for vid, p in profiles.items()}


def output_verdicts(output: bytes) -> List[bool]:
    """``findings`` verdicts in finding order."""
    found = sorted((int(n), status == b"HOLDS") for n, status in _FINDING_LINE.findall(output))
    return [holds for _, holds in found]


@dataclass
class Run:
    """Everything one workload measures and checks within a pass."""

    workload: Workload
    fleets: List[Fleet]
    setup_s: List[float] = field(default_factory=list)  # raw ingest times
    timed: List[Invocation] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)  # REFERENCE beside each timed
    pass_reference_s: float = REFERENCE_S  # median REFERENCE time of the whole pass
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    first_output: Optional[bytes] = None
    twin_output: Optional[bytes] = None  # STREAM_WARM's output
    verdicts: Optional[List[bool]] = None  # evaluate_findings on the same data
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(f.rows for f in self.fleets)

    @property
    def blocks(self) -> int:
        return sum(f.blocks for f in self.fleets)

    def problem(self, inv: Invocation, ledger: Dict[str, float]) -> Optional[str]:
        """Why ``inv`` is not a correct run of this workload, or None."""
        w = self.workload
        if inv.timed_out:
            return f"timed out after {TIMEOUT_S:g} s"
        expected_rc = 0
        if self.verdicts is not None and not all(self.verdicts):
            expected_rc = 1  # ``repro findings`` exits 1 when a finding differs
        if inv.exit_code != expected_rc:
            tail = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {inv.exit_code}, expected {expected_rc}: {tail}"
        if self.first_output is not None and inv.output != self.first_output:
            return "output differs from the first run"
        if self.twin_output is not None and inv.output != self.twin_output:
            return f"output differs from {STREAM_WARM.name}"
        try:
            if self.verdicts is not None:
                if output_verdicts(inv.output) != self.verdicts:
                    return "findings verdicts differ from evaluate_findings"
            elif output_counts(inv.output) != self.fleets[0].expected:
                return "per-volume counts differ from the generated fleet"
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        if w.warm:
            n_files = sum(f.n_files for f in self.fleets)
            if ledger.get("store.hits") != n_files or ledger.get("parse.lines", 0) != 0:
                return (
                    f"not warm: store.hits={ledger.get('store.hits')} (want {n_files}), "
                    f"parse.lines={ledger.get('parse.lines', 0)}"
                )
        return None


def invoke(run: Run, ali: Fleet, msrc: Fleet, work: str) -> Invocation:
    """One checked invocation of the run's workload."""
    ledger_dir = tempfile.mkdtemp(prefix="ledger-", dir=work)
    inv = spawn(repro(run.workload.args(ali, msrc), ledger_dir), work)
    run.attempted += 1
    problem = run.problem(inv, ledger_metrics(ledger_dir))
    if problem is not None:
        run.failures.append(problem)
    if run.first_output is None:
        run.first_output = inv.output
    return inv


# -- one pass ------------------------------------------------------------------


def _must(inv: Invocation, what: str) -> Invocation:
    if inv.exit_code != 0:
        detail = inv.stderr.decode(errors="replace").strip()[-2000:]
        raise SetupError(f"{what} failed with exit code {inv.exit_code}:\n{detail}")
    return inv


def ensure_inputs(seed: int, scale: Scale, work: str) -> Tuple[Fleet, Fleet, List[bool]]:
    cache = os.path.join(BENCH_ROOT, "inputs")
    directory = inputs_dir(cache, seed, scale.ali_blocks, scale.msrc_blocks)
    if not os.path.isfile(os.path.join(directory, "meta.json")):
        os.makedirs(cache, exist_ok=True)
        argv = python(os.path.join(HERE, "inputs.py"), directory, str(seed),
                      str(scale.ali_blocks), str(scale.msrc_blocks))
        _must(spawn(argv, work, timeout=600.0), "input generation")
    return load_inputs(directory)


def set_up(runs: Sequence[Run], work: str) -> None:
    """Rebuild the store entries the runs read (``repro ingest --force``), timed.

    Each fleet is ingested ``SETUP_REPEATS`` times.  A workload's i-th
    ``setup_s`` sample is the i-th ingest time summed over its fleets;
    ``stream-cold`` reads no store, but its check against ``stream-warm``
    needs the ``ALI`` entries.
    """
    fleets = {f.fmt: f for run in runs for f in run.fleets}
    times: Dict[str, List[float]] = {fmt: [] for fmt in fleets}
    for _ in range(SETUP_REPEATS):
        for fmt, fleet in fleets.items():
            args = ["ingest", fleet.directory, "--format", fmt, "--force", "--workers", "2"]
            inv = spawn(repro(args, os.path.join(work, "ledger-setup")), work)
            times[fmt].append(_must(inv, "repro ingest").wall_s)
    for run in runs:
        run.setup_s = [sum(t) for t in zip(*(times[f.fmt] for f in run.fleets))]


def prepare(run: Run, ali: Fleet, msrc: Fleet, work: str) -> None:
    """Run ``STREAM_WARM`` once for ``stream-cold``'s check to compare with.

    It also leaves the page cache and the bytecode caches warm for the
    timed runs, as the set-up ingests do for the other workloads.
    """
    if run.workload.name == "stream-cold":
        twin = Run(STREAM_WARM, run.fleets)
        run.twin_output = invoke(twin, ali, msrc, work).output
        run.attempted += twin.attempted
        run.failures += [f"{twin.workload.name}: {p}" for p in twin.failures]


def reference(work: str) -> float:
    """Wall time of one run of ``REFERENCE``."""
    return _must(spawn(python("-c", REFERENCE), work), "reference program").wall_s


def trace(run: Run, ali: Fleet, msrc: Fleet, work: str) -> None:
    """The traced pass of one workload, then the ``cli.*`` coverage rounds.

    The traced pass ingests the workload's fleets itself, so the checked
    commands after it find the store warm.  Each round times ``import
    repro.cli``, the workload's path alone (``layers.py path``) and one
    more checked command, back to back, so that a burst of load on the
    machine hits all three alike; ``cli.*`` are medians over the rounds.
    """
    layers = os.path.join(HERE, "layers.py")
    fleet_args = [ali.directory, msrc.directory, f"{ali.day_seconds:g}"]
    out = os.path.join(work, f"layers-{run.workload.name}.json")
    argv = python(layers, "trace", run.workload.name, *fleet_args, out)
    _must(spawn(argv, work), "traced pass")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    prepare(run, ali, msrc, work)
    if run.verdicts is not None and result["verdicts"] != run.verdicts:
        run.failures.append("evaluate_findings verdicts on the store-loaded fleets differ")
    rounds = []
    for _ in range(COVERAGE_ROUNDS):
        imp = _must(spawn(python("-c", "import repro.cli"), work), "import repro.cli").wall_s
        path = _must(spawn(python(layers, "path", run.workload.name, *fleet_args), work),
                     "path replay")
        rounds.append((imp, float(path.output), invoke(run, ali, msrc, work).wall_s))
    run.layers = dict(result["metrics"])
    run.layers["cli.import_s"] = statistics.median(imp for imp, _, _ in rounds)
    run.layers["cli.remainder_s"] = statistics.median(w - i - p for i, p, w in rounds)
    run.layers["cli.covered_share"] = statistics.median((i + p) / w for i, p, w in rounds)
    run.spans = result["spans"]


def run_pass(
    names: Sequence[str], seed: int, scale: Scale, seconds: float, traced: bool
) -> Dict[str, Run]:
    """Measure ``names`` on one seed's inputs: end to end, or traced."""
    os.makedirs(BENCH_ROOT, exist_ok=True)
    work = os.path.join(BENCH_ROOT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ali, msrc, verdicts = ensure_inputs(seed, scale, work)
        by_format = {"alicloud": ali, "msrc": msrc}
        runs = {
            name: Run(WORKLOADS[name], [by_format[f] for f in WORKLOADS[name].fleets],
                      verdicts=verdicts if name == "findings-warm" else None)
            for name in names
        }
        if traced:
            for run in runs.values():
                trace(run, ali, msrc, work)
            return runs
        set_up(list(runs.values()), work)
        for run in runs.values():
            prepare(run, ali, msrc, work)
        # Closed loop, one client, rounds across the workloads so that
        # drift in machine load hits every workload alike.  REFERENCE runs
        # before the first command and after each one.  A workload stops
        # when one more command would end further from ``seconds``.
        refs = [reference(work)]
        pending = list(runs.values())
        while pending:
            for run in list(pending):
                run.timed.append(invoke(run, ali, msrc, work))
                refs.append(reference(work))
                run.reference_s.append((refs[-2] + refs[-1]) / 2)
                spent = sum(i.wall_s for i in run.timed) + sum(run.reference_s)
                if (spent * (1 + 0.5 / len(run.timed)) >= seconds
                        and len(run.timed) >= scale.min_runs):
                    pending.remove(run)
        for run in runs.values():
            run.pass_reference_s = statistics.median(refs)
        return runs
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- metrics, records, comparison ----------------------------------------------


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def samples(run: Run) -> Dict[str, List[float]]:
    """Every end-to-end sample of a run, by metric name, plus the raw times.

    A timed command's wall time is scaled by ``REFERENCE_S`` over the mean
    time of the reference runs before and after it; the set-up ingests,
    which run back to back, by ``REFERENCE_S`` over the pass's median
    reference time.
    """
    walls = [i.wall_s * REFERENCE_S / r for i, r in zip(run.timed, run.reference_s)]
    return {
        "wall_s": walls,
        "blocks_per_s": [run.blocks / w for w in walls],
        "peak_rss_mb": [i.peak_rss_mb for i in run.timed],
        "setup_s": [t * REFERENCE_S / run.pass_reference_s for t in run.setup_s],
        "raw_wall_s": [i.wall_s for i in run.timed],
        "raw_setup_s": list(run.setup_s),
        "reference_s": list(run.reference_s),
    }


def e2e_metrics(run: Run) -> Dict[str, float]:
    """The run's values of the end-to-end metrics: medians of its samples,
    and block accesses over the median wall time."""
    values = {name: statistics.median(v) for name, v in samples(run).items()}
    values["blocks_per_s"] = run.blocks / values["wall_s"]
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def result_line(runs: Dict[str, Run], traced: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    """The benchmark's last output line."""
    section = spec["per_layer"] if traced else spec["end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, run in runs.items():
        values = run.layers if traced else e2e_metrics(run)
        prefix = "" if len(runs) == 1 else f"{name}."
        for metric in section:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
    failed = sum(len(r.failures) for r in runs.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs.values()),
        "failed": failed,
        "metrics": metrics,
    }


def write_record(runs: Dict[str, Run], params: Dict[str, Any], path: str) -> None:
    """The pass as a ledger-schema run record (``repro runs diff`` reads it)."""
    from _record import timing_record, write_run_record

    records, headline = [], {}
    for name, run in runs.items():
        values = e2e_metrics(run) if run.timed else {}
        if run.timed:
            records.append(timing_record(name, run.rows, values["wall_s"]))
        values["fail_ratio"] = len(run.failures) / max(run.attempted, 1)
        values.update(run.layers)
        headline.update({f"{name}.{k}": v for k, v in values.items()})
    extra = {
        "samples": {name: samples(run) for name, run in runs.items() if run.timed},
        "failures": {name: run.failures for name, run in runs.items()},
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_run_record("bench.suite", params, records, headline, path, no_ledger=True,
                     extra=extra)


def write_trace(runs: Dict[str, Run], path: str) -> None:
    spans: List[Dict[str, Any]] = []
    for run in runs.values():
        offset = len(spans)
        spans.extend(
            dict(s, parent=None if s["parent"] is None else s["parent"] + offset)
            for s in run.spans
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans), fh, indent=1)
        fh.write("\n")


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """``ok``, ``better``, ``worse`` or ``unresolved`` for samples ``a`` -> ``b``."""
    sign = 1.0 if better == "lower" else -1.0
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
    worsening = sign * (mb - ma) / ma
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    # Signed so that smaller is better: every B sample beats every A sample, or
    # every one loses, whatever the spread.
    sa, sb = [sign * x for x in a], [sign * x for x in b]
    if max(sb) < min(sa):
        return "better" if worsening < -bound else "ok"
    if min(sb) > max(sa):
        return "worse" if worsening > bound else "ok"
    if spread > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "ok"


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> Tuple[List[List[str]], bool]:
    """Rows of the comparison table, and whether any metric got worse."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["samples"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["samples"]
    rows = [["workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict"]]
    worse = False
    for name in [w for w in a if w in b]:
        for metric in spec["end_to_end"]:
            m = metric["name"]
            qa, qb = quartiles(a[name][m]), quartiles(b[name][m])
            v = verdict(a[name][m], b[name][m], metric["better"], metric["bound"])
            worse |= v == "worse"
            rows.append([
                name, f"{m} ({metric['unit']})",
                f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]",
                f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]",
                f"{(qb[1] - qa[1]) / qa[1]:+.1%}", v,
            ])
    return rows, worse


def table(rows: List[List[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def summary(runs: Dict[str, Run], spec: Dict[str, Any]) -> str:
    rows = [["workload", "metric", "median", "max", "n"]]
    for name, run in runs.items():
        if run.timed:
            values, raw = e2e_metrics(run), samples(run)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            units.update(raw_wall_s="s", raw_setup_s="s", reference_s="s")
            for m, unit in units.items():
                rows.append([name, f"{m} ({unit})", f"{values[m]:.4g}", f"{max(raw[m]):.4g}",
                             str(len(raw[m]))])
        rows.append([name, "fail_ratio", f"{len(run.failures)}/{run.attempted}", "", ""])
        for metric in spec["per_layer"] if run.layers else ():
            m = metric["name"]
            rows.append([name, f"{m} ({metric['unit']})", f"{run.layers[m]:.4g}", "", "1"])
    return table(rows)


# -- command line --------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        rows, worse = compare(args.a, args.b, spec)
        print(table(rows))
        return 1 if worse else 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="the one workload to run (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="timed seconds per workload "
                        f"(and at least {FULL.min_runs} runs each)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: time the commands (end-to-end metrics); "
                        "1: run the traced pass instead (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleets and a single timed run per workload")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = SMOKE if args.smoke else FULL
    try:
        runs = run_pass(names, args.seed, scale, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    stem = os.path.join(
        BENCH_ROOT, "results", f"{args.workload or 'all'}-seed{args.seed}-trace{args.trace}"
    )
    params = {"workloads": names, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": vars(scale)}
    write_record(runs, params, stem + ".json")
    if args.trace:
        write_trace(runs, stem + ".trace.json")
    for name, run in runs.items():
        for problem in run.failures:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
    print(summary(runs, spec))
    print(json.dumps(result_line(runs, bool(args.trace), spec)))
    return 0


if __name__ == "__main__":
    # A terminated benchmark still kills its current command and cleans up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
