"""The engine's streaming profile on a synthetic AliCloud fleet.

Standalone benchmark (not pytest): generates a fleet, writes it to trace
files once, then times ``repro.engine`` profiling every volume from
those files — chunked columnar parsing folded through
:class:`~repro.engine.analyzers.StreamingProfileAnalyzer` — at each
requested worker count.

A final ``scheduling`` section drills the straggler problem on a skewed
fleet (one big file, many tiny ones): the same analysis runs with
whole-file units vs ``split_rows`` sub-units under a deterministic
injected-latency straggler, asserting bit-identical materialized columns
first and reporting ``split_speedup_w4`` / ``split_utilization_w4`` for
the CI regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py             # full (~1M requests)
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke     # CI-sized
    PYTHONPATH=src python benchmarks/bench_engine.py --json out.json

``--json PATH`` additionally writes the run in the ledger run-record
schema (see :mod:`repro.obs.ledger` and ``benchmarks/_record.py``):
per-configuration timing records under ``results``, every number also
in the flat ``metrics`` map that ``repro runs diff`` compares and
``repro runs check --baseline benchmarks/baselines.json`` gates in CI.
Runs are appended to the persistent run ledger too, so the perf
trajectory accumulates; ``--no-ledger`` opts out.
"""

import argparse
import os
import sys
import tempfile
import time

import numpy as np

from _record import timing_record, write_run_record


def _generate(directory: str, n_volumes: int, day_seconds: float, n_days: int) -> int:
    from repro.synth import Scale, make_alicloud_fleet
    from repro.trace import write_dataset_dir

    scale = Scale(n_days=n_days, day_seconds=day_seconds)
    fleet = make_alicloud_fleet(n_volumes=n_volumes, seed=0, scale=scale)
    write_dataset_dir(fleet, directory, fmt="alicloud")
    return fleet.n_requests


def _bench_engine(directory: str, workers: int, chunk_size: int):
    from repro.engine import StreamingProfileAnalyzer, run

    return run(
        directory,
        [StreamingProfileAnalyzer()],
        fmt="alicloud",
        chunk_size=chunk_size,
        workers=workers,
    )


#: Skewed-fleet shape for the scheduling drill: one straggler file, a
#: tail of tiny ones, split into 4 sub-units at SPLIT_ROWS.
SKEW_BIG_ROWS = 40_000
SKEW_SPLIT_ROWS = 10_000
SKEW_SMALL_FILES = 8
SKEW_SMALL_ROWS = 500
#: Injected straggler latency (seconds): the whole-file unit carries all
#: of it unsplit; each of the 4 sub-units carries a quarter when split.
SKEW_SLOW_SECONDS = 3.2


def _write_skewed_fleet(directory: str) -> int:
    """One big file plus a tail of tiny ones (AliCloud row format)."""
    os.makedirs(directory)
    with open(os.path.join(directory, "aaa_big.csv"), "w") as fh:
        for i in range(SKEW_BIG_ROWS):
            op = "W" if i % 4 == 0 else "R"
            fh.write(f"0,{op},{(i * 4096) % (1 << 30)},4096,{1_000_000 + i * 50}\n")
    for j in range(SKEW_SMALL_FILES):
        with open(os.path.join(directory, f"small{j:02d}.csv"), "w") as fh:
            for i in range(SKEW_SMALL_ROWS):
                fh.write(f"{j + 1},R,{i * 4096},4096,{2_000_000 + i * 50}\n")
    return SKEW_BIG_ROWS + SKEW_SMALL_FILES * SKEW_SMALL_ROWS


def _skew_dataset(directory: str, split_rows: int, workers: int):
    from repro.engine import read_dataset_dir_chunked

    return read_dataset_dir_chunked(
        directory, fmt="alicloud", workers=workers, split_rows=split_rows
    )


def _assert_split_identical(directory: str, workers: int) -> None:
    """Materialized columns must be byte-identical split vs unsplit."""
    base = dict(_skew_dataset(directory, 0, 1).items())
    split = dict(_skew_dataset(directory, SKEW_SPLIT_ROWS, workers).items())
    assert sorted(base) == sorted(split), (sorted(base), sorted(split))
    for vid, trace in base.items():
        other = split[vid]
        for column in ("timestamps", "offsets", "sizes", "is_write"):
            a, b = getattr(trace, column), getattr(other, column)
            assert np.array_equal(a, b), f"{vid}.{column} differs split vs unsplit"


def _timed_skew_run(directory: str, split_rows: int, workers: int, plan_path: str):
    """One timed skew-drill configuration; returns (seconds, gauges, counters)."""
    from repro import faults
    from repro.engine import StreamingProfileAnalyzer, run_files
    from repro.engine.chunks import list_trace_files
    from repro.obs import metrics

    files = list_trace_files(directory)
    faults.activate(faults.load_plan(plan_path))
    os.environ[faults.ENV_VAR] = plan_path
    try:
        with metrics.collecting() as reg:
            start = time.perf_counter()
            run_files(
                files,
                [StreamingProfileAnalyzer()],
                fmt="alicloud",
                workers=workers,
                split_rows=split_rows,
            )
            elapsed = time.perf_counter() - start
    finally:
        faults.deactivate()
        os.environ.pop(faults.ENV_VAR, None)
    snap = reg.snapshot()
    return elapsed, snap["gauges"], snap["counters"]


def _bench_scheduling(tmp: str, workers: int) -> dict:
    """Straggler drill: unit splitting + LPT dispatch vs whole-file units.

    The straggler's extra weight is modeled as deterministic injected
    latency (:mod:`repro.faults` ``slow_units``) rather than raw row
    volume, so the drill measures *scheduling* — sleeps overlap across
    pool workers even on a single-core CI machine, where a purely
    CPU-bound skew fixture would show no speedup at all.  The unsplit run
    concentrates the full latency on the big file's one unit; the split
    run spreads the same total latency over its four sub-units.
    Bit-identity of the materialized columns is asserted *before* any
    timing, with no faults active.
    """
    import json as _json

    directory = os.path.join(tmp, "skewed")
    n_requests = _write_skewed_fleet(directory)
    _assert_split_identical(directory, workers)

    n_subs = SKEW_BIG_ROWS // SKEW_SPLIT_ROWS
    plans = {
        "unsplit": {"slow_units": [0], "slow_seconds": SKEW_SLOW_SECONDS},
        "split": {
            "slow_units": list(range(n_subs)),
            "slow_seconds": SKEW_SLOW_SECONDS / n_subs,
        },
    }
    for name, plan in plans.items():
        with open(os.path.join(tmp, f"faults_{name}.json"), "w") as fh:
            _json.dump(plan, fh)

    unsplit_s, _, _ = _timed_skew_run(
        directory, 0, workers, os.path.join(tmp, "faults_unsplit.json")
    )
    print(f"  scheduling unsplit w={workers}  {unsplit_s:8.3f} s")
    split_s, gauges, counters = _timed_skew_run(
        directory, SKEW_SPLIT_ROWS, workers, os.path.join(tmp, "faults_split.json")
    )
    print(f"  scheduling split   w={workers}  {split_s:8.3f} s")
    utilization = gauges.get("engine.utilization", 0.0)
    units_split = counters.get("engine.units_split", 0)
    assert units_split >= n_subs - 1, f"expected a split big file, got {units_split}"
    speedup = unsplit_s / split_s if split_s > 0 else 0.0
    print(
        f"  split speedup {speedup:5.2f}x, utilization "
        f"{utilization:5.3f}, units_split {units_split}"
    )
    return {
        "n_requests": n_requests,
        "unsplit_seconds": unsplit_s,
        "split_seconds": split_s,
        "split_speedup": round(speedup, 3),
        "split_utilization": round(utilization, 4),
        "units_split": units_split,
    }


def _timed(label: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    print(f"  {label:<24} {elapsed:8.3f} s")
    return label, elapsed, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument("--volumes", type=int, default=None)
    parser.add_argument("--days", type=int, default=None)
    parser.add_argument("--day-seconds", type=float, default=None)
    parser.add_argument("--chunk-size", type=int, default=65536)
    parser.add_argument("--workers", type=int, nargs="*", default=[1, 4])
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write this run's ledger-schema record to PATH",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run's record to the run ledger",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        n_volumes, n_days, day_seconds = 6, 2, 60.0
    else:
        # ~1M+ requests: the acceptance-criteria scale.
        n_volumes, n_days, day_seconds = 60, 31, 240.0
    n_volumes = args.volumes or n_volumes
    n_days = args.days or n_days
    day_seconds = args.day_seconds or day_seconds

    with tempfile.TemporaryDirectory(prefix="bench_engine_") as tmp:
        directory = os.path.join(tmp, "fleet")
        os.mkdir(directory)
        print(f"generating fleet: {n_volumes} volumes x {n_days} days ...")
        n_requests = _generate(directory, n_volumes, day_seconds, n_days)
        print(f"fleet: {n_requests} requests in {len(os.listdir(directory))} files\n")

        records = []
        print("timings:")
        for workers in args.workers:
            label = f"engine workers={workers}"
            _, elapsed, result = _timed(
                label, _bench_engine, directory, workers, args.chunk_size
            )
            records.append(timing_record(label, n_requests, elapsed))
            assert result.n_volumes == n_volumes

        print("\nscheduling (skew drill, workers=4):")
        sched = _bench_scheduling(tmp, 4)
        records.append(
            timing_record(
                "scheduling unsplit workers=4",
                sched["n_requests"], sched["unsplit_seconds"],
            )
        )
        records.append(
            timing_record(
                "scheduling split workers=4",
                sched["n_requests"], sched["split_seconds"],
            )
        )
        headline = {
            "split_speedup_w4": sched["split_speedup"],
            "split_utilization_w4": sched["split_utilization"],
        }

        write_run_record(
            "bench_engine",
            params={
                "n_volumes": n_volumes,
                "n_days": n_days,
                "day_seconds": day_seconds,
                "chunk_size": args.chunk_size,
                "n_requests": n_requests,
            },
            records=records,
            headline=headline,
            json_path=args.json,
            no_ledger=args.no_ledger,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
