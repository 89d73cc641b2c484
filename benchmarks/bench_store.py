"""Trace store (mmap columnar cache) vs text parsing on a synthetic fleet.

Standalone benchmark (not pytest): generates an AliCloud-format fleet,
writes it to trace files once, then times the two ways the engine can
get columns out of those files:

* ``text`` — the chunked text path: decode lines, split fields, cast
  ints, on every run.
* ``store`` — :mod:`repro.store`: ``ingest`` parses once into ``.npy``
  segments; warm runs serve ``Chunk`` views straight off read-only
  ``np.memmap`` views with zero text parsing.

Both paths are timed through :func:`repro.engine.read_dataset_dir_chunked`
at each requested worker count, and the resulting datasets are checked
for bit-identity (every column of every volume) before any number is
reported — a speedup that changed the answer would not count.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py             # full (~1M requests)
    PYTHONPATH=src python benchmarks/bench_store.py --smoke     # CI-sized
    PYTHONPATH=src python benchmarks/bench_store.py --json out.json

``--json PATH`` additionally writes the run in the ledger run-record
schema (see :mod:`repro.obs.ledger` and ``benchmarks/_record.py``):
timing records under ``results``, headline ratios such as
``speedup_warm_vs_text`` (acceptance bar >= 5x at workers=1) in the
flat ``metrics`` map that ``repro runs check`` gates in CI.  Runs are
appended to the persistent run ledger too; ``--no-ledger`` opts out.

The ``pruning`` section then times the query planner on the warm store
(see :mod:`repro.engine.plan`): a full streaming-profile scan with no
column declarations, a scan by a narrow counting fold that never loads
``offsets``, and a time-windowed single-volume streaming-profile scan
that skips whole files and zone-mapped chunks.  Each windowed result is asserted bit-identical to the unpruned
run post-filtered — at every worker count — before any timing is
reported; the headline ``speedup_window_vs_full`` bar is >= 3x at
workers=1.
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


def _read(directory: str, workers: int, chunk_size: int, store=None):
    from repro.engine import read_dataset_dir_chunked

    return read_dataset_dir_chunked(
        directory, fmt="alicloud", chunk_size=chunk_size,
        workers=workers, store=store,
    )


def _ingest(directory: str, store_dir: str, workers: int, chunk_size: int):
    from repro.store import ingest_dir

    return ingest_dir(
        directory, fmt="alicloud", store_dir=store_dir,
        chunk_size=chunk_size, workers=workers,
    )


def _assert_identical(text_ds, store_ds, label: str) -> None:
    assert sorted(text_ds.volume_ids()) == sorted(store_ds.volume_ids()), label
    for vid in text_ds.volume_ids():
        a, b = text_ds[vid], store_ds[vid]
        for column in ("timestamps", "offsets", "sizes", "is_write"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), (
                f"{label}: {vid}.{column} differs"
            )
        ra, rb = a.response_times, b.response_times
        assert (ra is None) == (rb is None), f"{label}: {vid}.response_times presence"
        if ra is not None:
            assert np.array_equal(ra, rb, equal_nan=True), (
                f"{label}: {vid}.response_times differs"
            )


class _NarrowCounts:
    """Request and byte counts per op: a fold that never loads ``offsets``."""

    name = "narrow_counts"
    required_columns = ("timestamps", "sizes", "is_write")

    def init_state(self, volume_id):
        return [0, 0, 0, 0]  # reads, writes, read bytes, write bytes

    def consume(self, state, chunk):
        w = chunk.is_write
        n_writes, write_bytes = int(w.sum()), int(chunk.sizes[w].sum())
        return [
            state[0] + len(chunk) - n_writes, state[1] + n_writes,
            state[2] + int(chunk.sizes.sum()) - write_bytes, state[3] + write_bytes,
        ]

    def merge(self, earlier, later):
        return [a + b for a, b in zip(earlier, later)]

    def finalize(self, state):
        return tuple(state)


def _bench_pruning(directory, store, text_ds, chunk_size, workers_list, records):
    """Warm full-scan vs column-pruned vs zone-map-skipped timings.

    Returns the JSON ``pruning`` section.  Bit-identity of the pruned
    windowed run against the unpruned-then-filtered reference is asserted
    at every worker count before any timing is reported.
    """
    from dataclasses import asdict

    from repro.engine import RowPredicate, StreamingProfileAnalyzer, run
    from repro.engine.runner import run_dataset
    from repro.obs import collecting, metrics_report
    from repro.trace.filters import filter_time_range

    # The densest volume, and the middle tenth of its time span: a query
    # shaped like "one volume, one window" — the planner's home turf.
    vid = max(text_ds.volume_ids(), key=lambda v: len(text_ds[v]))
    ts = text_ds[vid].timestamps
    t0, t1 = float(ts.min()), float(ts.max())
    since = t0 + 0.45 * (t1 - t0)
    until = t0 + 0.55 * (t1 - t0)
    predicate = RowPredicate(since=since, until=until, volumes=(vid,))

    def _analyzer():
        return StreamingProfileAnalyzer()

    def _undeclared_analyzer():
        analyzer = _analyzer()
        analyzer.required_columns = None  # opt out of column pruning
        return analyzer

    # Reference: unpruned parse, filtered after the fact.
    ref_ds = filter_time_range(text_ds, since, until).subset([vid])
    ref = {
        v: asdict(r)
        for v, r in run_dataset(
            ref_ds, [_analyzer()], chunk_size=chunk_size
        ).analyzer("streaming_profile").items()
    }

    section = {
        "volume": vid,
        "since": round(since, 3),
        "until": round(until, 3),
        "window_rows": int(len(ref_ds[vid])) if vid in ref_ds.volume_ids() else 0,
        "workers": {},
    }
    print("\nquery planning on the warm store:")
    for workers in workers_list:
        n_rows = sum(len(text_ds[v]) for v in text_ds.volume_ids())
        full_t, _ = _timed(
            f"full scan (all cols) workers={workers}",
            run, directory, [_undeclared_analyzer()],
            chunk_size=chunk_size, workers=workers, store=store,
        )
        col_t, _ = _timed(
            f"column-pruned workers={workers}",
            run, directory, [_NarrowCounts()],
            chunk_size=chunk_size, workers=workers, store=store,
        )
        with collecting() as registry:
            win_t, win_res = _timed(
                f"windowed volume workers={workers}",
                run, directory, [_analyzer()],
                chunk_size=chunk_size, workers=workers, store=store,
                predicate=predicate,
            )
        counters = {
            name: value
            for name, value in metrics_report(registry)["counters"].items()
            if name.startswith("plan.")
        }
        got = {
            v: asdict(r)
            for v, r in win_res.analyzer("streaming_profile").items()
        }
        assert got == ref, (
            f"windowed run workers={workers} differs from "
            "unpruned-then-filtered reference"
        )
        records.append(timing_record(f"plan full scan workers={workers}", n_rows, full_t))
        records.append(timing_record(f"plan column-pruned workers={workers}", n_rows, col_t))
        records.append(timing_record(f"plan windowed workers={workers}", n_rows, win_t))
        section["workers"][str(workers)] = {
            "full_scan_seconds": round(full_t, 6),
            "column_pruned_seconds": round(col_t, 6),
            "windowed_seconds": round(win_t, 6),
            "speedup_window_vs_full": round(full_t / win_t, 3) if win_t > 0 else None,
            "plan_counters": counters,
        }
    print("  bit-identity: windowed == unpruned-then-filtered at every worker count")
    headline = section["workers"][str(workers_list[0])]["speedup_window_vs_full"]
    section["speedup_window_vs_full"] = headline
    print(f"  windowed vs full-scan speedup (workers={workers_list[0]}): {headline:.2f}x")
    return section


def _timed(label: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    print(f"  {label:<28} {elapsed:8.3f} s")
    return elapsed, result


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

    from repro.store import StoreConfig

    with tempfile.TemporaryDirectory(prefix="bench_store_") as tmp:
        directory = os.path.join(tmp, "fleet")
        os.mkdir(directory)
        print(f"generating fleet: {n_volumes} volumes x {n_days} days ...")
        n_requests = _generate(directory, n_volumes, day_seconds, n_days)
        print(f"fleet: {n_requests} requests in {len(os.listdir(directory))} files\n")
        store = StoreConfig(dir=os.path.join(tmp, "store"))

        records = []
        text_times = {}
        warm_times = {}
        print("timings:")
        for workers in args.workers:
            label = f"text parse workers={workers}"
            elapsed, _ = _timed(label, _read, directory, workers, args.chunk_size)
            text_times[workers] = elapsed
            records.append(timing_record(label, n_requests, elapsed))

        ingest_workers = max(args.workers)
        elapsed, reports = _timed(
            f"ingest (parse once) workers={ingest_workers}",
            _ingest, directory, store.dir, ingest_workers, args.chunk_size,
        )
        assert all(r.built for r in reports)
        records.append(timing_record(f"ingest workers={ingest_workers}", n_requests, elapsed))
        store_bytes = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(store.dir)
            for f in files
        )
        print(f"  store size: {store_bytes / 1e6:.1f} MB on disk")

        text_ds = _read(directory, 1, args.chunk_size)
        for workers in args.workers:
            label = f"store warm workers={workers}"
            elapsed, store_ds = _timed(
                label, _read, directory, workers, args.chunk_size, store=store
            )
            warm_times[workers] = elapsed
            records.append(timing_record(label, n_requests, elapsed))
            _assert_identical(text_ds, store_ds, label)
        print("  bit-identity: text vs store verified at every worker count")

        print("\nwarm store speedup vs text parse:")
        for workers in args.workers:
            ratio = text_times[workers] / warm_times[workers]
            print(f"  workers={workers}: {ratio:5.2f}x")
        headline = text_times[args.workers[0]] / warm_times[args.workers[0]]

        pruning = _bench_pruning(
            directory, store, text_ds, args.chunk_size, args.workers, records
        )

        write_run_record(
            "bench_store",
            params={
                "n_volumes": n_volumes,
                "n_days": n_days,
                "day_seconds": day_seconds,
                "chunk_size": args.chunk_size,
                "n_requests": n_requests,
                "store_bytes": store_bytes,
            },
            records=records,
            headline={
                "speedup_warm_vs_text": round(headline, 3),
                "speedup_window_vs_full": pruning["speedup_window_vs_full"],
            },
            json_path=args.json,
            no_ledger=args.no_ledger,
            extra={"pruning": pruning},
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
