"""The traced pass: time the public functions of each layer, one span per call.

Runs in a fresh process (``run.py`` starts it once per traced workload)
so that the end-to-end runs never pay for tracing.  Every probe is a
span kept in memory — name, start, end, parent, workload — and a span's
self time is its duration minus its children's.  The per-layer metrics
are sums of self times by span name, plus a few ratios and counts.

The data-path probes (ingest, manifest, planning, parse, serve, fold,
engine runs, materialization) run over the workload's fleets; the
``core`` probes run over the AliCloud volumes, and the findings probes
over both fleets, exactly as ``repro findings`` calls them.  ``path``
runs only the workload's path (the spans in ``PATHS``) and prints their
summed self time, which ``run.py`` sets beside a timed command.

Usage (``run.py`` passes these; ``PYTHONPATH`` must hold ``src``)::

    python benchmarks/suite/layers.py trace WORKLOAD ALI_DIR MSRC_DIR DAY_S OUT.json
    python benchmarks/suite/layers.py path WORKLOAD ALI_DIR MSRC_DIR DAY_S

``inputs.py`` imports ``verdicts`` to record the findings verdicts of each
generated seed.
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from typing import Any, Dict, List, Optional

from spans import Tracer

from repro.core.cache_analysis import dataset_miss_ratios, volume_miss_ratios
from repro.core.findings import evaluate_findings
from repro.core.load_intensity import active_volume_timeseries
from repro.core.spatial import (
    dataset_mostly_traffic,
    mostly_traffic,
    topk_block_traffic_fraction,
    update_coverage,
    working_sets,
)
from repro.core.temporal import (
    adjacent_access_times,
    dataset_adjacent_access_times,
    dataset_update_intervals,
    update_intervals,
)
from repro.core.volume_profile import compute_profile
from repro.engine import (
    DEFAULT_CHUNK_SIZE,
    StreamingProfileAnalyzer,
    iter_chunks,
    list_trace_files,
    plan_units,
    read_dataset_dir_chunked,
    run_files,
)
from repro.obs import collecting
from repro.store import StoreConfig, entry_status, ingest_dir, serve_chunks
from repro.synth import alicloud_scale
from repro.trace.blocks import expand_to_blocks

BLOCK_SIZE = 4096
CACHE_FRACTIONS = (0.01, 0.10)

#: Span names whose self times make up each workload's command, in the
#: order the command runs them (``cli.import_s`` is added on top).
PATHS = {
    "stream-cold": (
        "engine.chunks.parse",
        "engine.analyzers.streaming_profile.consume",
        "engine.analyzers.streaming_profile.merge",
        "engine.analyzers.streaming_profile.finalize",
    ),
    "findings-warm": ("engine.chunks.materialize", "core.findings.evaluate_findings"),
}


def lpt_order(costs: List[float]) -> List[int]:
    """Largest cost first (ties by index): the order in which the commands
    dispatch files and volumes, even at one worker."""
    return sorted(range(len(costs)), key=lambda i: (-costs[i], i))


def load_dataset(directory: str, fmt: str):
    return read_dataset_dir_chunked(directory, fmt=fmt, store=StoreConfig())


def verdicts(ali, msrc, day_seconds: float) -> List[bool]:
    scale = alicloud_scale(day_seconds=day_seconds)
    findings = evaluate_findings(
        ali, msrc, peak_interval=scale.peak_interval,
        activity_interval=scale.activity_interval,
    )
    return [bool(f.holds) for f in findings]


def _drain_columns(chunks) -> int:
    """Read every column of every chunk, so lazy mmap views are paged in."""
    rows = 0
    for chunk in chunks:
        rows += len(chunk)
        chunk.timestamps.sum()
        chunk.offsets.sum()
        chunk.sizes.sum()
        chunk.is_write.sum()
    return rows


def _fold_text(tr: Tracer, files: List[str], costs: List[float], fmt: str) -> int:
    """Parse each file and fold it into profiles, as ``stream-analyze
    --no-store --workers 1`` does; returns the rows parsed."""
    analyzer = StreamingProfileAnalyzer(block_size=BLOCK_SIZE)
    partials, rows = [], 0
    for i in lpt_order(costs):
        with tr.span("engine.chunks.parse"):
            chunks = list(iter_chunks(files[i], fmt=fmt))
        with tr.span("engine.analyzers.streaming_profile.consume"):
            states: Dict[str, Any] = {}
            for chunk in chunks:
                vid = chunk.volume_id
                if vid not in states:
                    states[vid] = analyzer.init_state(vid)
                states[vid] = analyzer.consume(states[vid], chunk)
        rows += sum(len(c) for c in chunks)
        partials.append(states)
    with tr.span("engine.analyzers.streaming_profile.merge"):
        merged: Dict[str, Any] = {}
        for states in partials:
            for vid, state in states.items():
                prior = merged.get(vid)
                merged[vid] = state if prior is None else analyzer.merge(prior, state)
    with tr.span("engine.analyzers.streaming_profile.finalize"):
        for vid in sorted(merged):
            analyzer.finalize(merged[vid])
    return rows


def _probe_fleet(tr: Tracer, directory: str, fmt: str, out: Dict[str, Any]) -> None:
    """Data-path probes over one fleet; counts accumulate into ``out``."""
    store = StoreConfig()
    files = list_trace_files(directory)
    with tr.span("store.builder.ingest"), collecting() as reg:
        ingest_dir(directory, fmt=fmt, force=True)
    out["bytes_written"] += reg.counter("store.bytes_written").value
    with tr.span("store.reader.manifest"):
        entries = [entry_status(path, store, fmt)[1] for path in files]
    with tr.span("engine.units.plan"):
        _, costs = plan_units(files, fmt=fmt, store=store)
    out["max_unit_share"] = max(out["max_unit_share"], max(costs) / sum(costs))

    for entry in entries:
        with tr.span("store.reader.serve"):
            out["served_rows"] += _drain_columns(serve_chunks(entry, DEFAULT_CHUNK_SIZE))
    out["parsed_rows"] += _fold_text(tr, files, costs, fmt)

    analyzer = StreamingProfileAnalyzer(block_size=BLOCK_SIZE)
    with tr.span("engine.runner.run_files_w1"):
        run_files(files, [analyzer], fmt=fmt, store=store, workers=1)
    with tr.span("engine.backends.run_files_w2"), collecting() as reg:
        run_files(files, [analyzer], fmt=fmt, store=store, workers=2)
    out["utilization_w2"].append(reg.gauge("engine.utilization").value)

    with tr.span("engine.chunks.materialize"):
        load_dataset(directory, fmt)
    tracemalloc.start()
    load_dataset(directory, fmt)
    out["materialize_peak_mb"] += tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()


def _probe_volumes(tr: Tracer, ali) -> None:
    """``core.compute_profile`` and its public parts, on every volume."""
    volumes = ali.non_empty_volumes()
    for trace in (volumes[i] for i in lpt_order([len(v) for v in volumes])):
        with tr.span("core.volume"):
            with tr.span("core.compute_profile"):
                compute_profile(trace, block_size=BLOCK_SIZE)
            with tr.span("core.cache_analysis.volume_miss_ratios"):
                volume_miss_ratios(trace, CACHE_FRACTIONS, BLOCK_SIZE)
            with tr.span("core.spatial.topk_block_traffic_fraction"):
                for k in CACHE_FRACTIONS:
                    for op in ("read", "write"):
                        topk_block_traffic_fraction(trace, k, op, BLOCK_SIZE)
            with tr.span("core.spatial.working_sets"):
                working_sets(trace, BLOCK_SIZE)
            with tr.span("core.spatial.update_coverage"):
                update_coverage(trace, BLOCK_SIZE)
            with tr.span("core.spatial.mostly_traffic"):
                mostly_traffic(trace, block_size=BLOCK_SIZE)
            with tr.span("core.temporal.adjacent_access_times"):
                adjacent_access_times(trace, BLOCK_SIZE)
            with tr.span("core.temporal.update_intervals"):
                update_intervals(trace, BLOCK_SIZE)
            with tr.span("trace.blocks.expand_to_blocks"):
                expand_to_blocks(trace.offsets, trace.sizes, BLOCK_SIZE)


def _probe_findings(tr: Tracer, ali, msrc, day_seconds: float) -> List[bool]:
    """``evaluate_findings`` and the dataset-level parts it is built from."""
    with tr.span("core.findings.evaluate_findings"):
        held = verdicts(ali, msrc, day_seconds)
    interval = alicloud_scale(day_seconds=day_seconds).activity_interval
    for dataset in (ali, msrc):
        with tr.span("core.cache_analysis.dataset_miss_ratios"):
            dataset_miss_ratios(dataset, CACHE_FRACTIONS, BLOCK_SIZE)
        with tr.span("core.temporal.dataset_adjacent_access_times"):
            dataset_adjacent_access_times(dataset, BLOCK_SIZE)
        with tr.span("core.temporal.dataset_update_intervals"):
            dataset_update_intervals(dataset, BLOCK_SIZE)
        with tr.span("core.spatial.dataset_mostly_traffic"):
            dataset_mostly_traffic(dataset, block_size=BLOCK_SIZE)
        with tr.span("core.load_intensity.active_volume_timeseries"):
            active_volume_timeseries(dataset, interval)
    return held


def path_self_s(workload: str, ali_dir: str, msrc_dir: str, day_seconds: float) -> float:
    """Run the workload's path alone, as its command runs it after import;
    return the summed self times of its ``PATHS`` spans."""
    tr = Tracer(workload)
    if workload == "stream-cold":
        files = list_trace_files(ali_dir)
        _fold_text(tr, files, plan_units(files, fmt="alicloud")[1], "alicloud")
    else:
        with tr.span("engine.chunks.materialize"):
            ali = load_dataset(ali_dir, "alicloud")
            msrc = load_dataset(msrc_dir, "msrc")
        with tr.span("core.findings.evaluate_findings"):
            verdicts(ali, msrc, day_seconds)
    return sum(span["self_s"] for span in tr.finished() if span["name"] in PATHS[workload])


def traced_pass(
    workload: str, ali_dir: str, msrc_dir: str, day_seconds: float
) -> Dict[str, Any]:
    """Run every probe for ``workload``; return its layer metrics and spans."""
    fleets = [(ali_dir, "alicloud")]
    if workload == "findings-warm":
        fleets.append((msrc_dir, "msrc"))
    tr = Tracer(workload)
    counts: Dict[str, Any] = {"bytes_written": 0, "max_unit_share": 0.0, "served_rows": 0,
                              "parsed_rows": 0, "utilization_w2": [], "materialize_peak_mb": 0.0}
    with tr.span(workload):
        for directory, fmt in fleets:
            _probe_fleet(tr, directory, fmt, counts)
        ali = load_dataset(ali_dir, "alicloud")
        msrc = load_dataset(msrc_dir, "msrc")
        _probe_volumes(tr, ali)
        held = _probe_findings(tr, ali, msrc, day_seconds)

    spans = tr.finished()

    def s(name: str) -> float:
        return sum(span["self_s"] for span in spans if span["name"] == name)

    fold = sum(
        s(f"engine.analyzers.streaming_profile.{p}") for p in ("consume", "merge", "finalize")
    )
    metrics: Dict[str, float] = {
        f"{name}_s": s(name)
        for name in sorted({span["name"] for span in spans})
        if name not in (workload, "core.volume")
    }
    metrics.update({
        "engine.chunks.parse_rows_per_s": counts["parsed_rows"] / s("engine.chunks.parse"),
        "engine.chunks.materialize_peak_mb": counts["materialize_peak_mb"],
        "store.builder.bytes_written": counts["bytes_written"],
        "store.reader.serve_rows_per_s": counts["served_rows"] / s("store.reader.serve"),
        "engine.units.max_unit_share": counts["max_unit_share"],
        "engine.runner.overhead_s": s("engine.runner.run_files_w1")
        - s("store.reader.manifest") - s("store.reader.serve") - fold,
        "engine.backends.speedup_w2": s("engine.runner.run_files_w1")
        / s("engine.backends.run_files_w2"),
        "engine.backends.utilization_w2": sum(counts["utilization_w2"])
        / len(counts["utilization_w2"]),
    })
    return {
        "metrics": metrics,
        "verdicts": held,
        "spans": spans,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[0] == "path":
        workload, ali_dir, msrc_dir, day_seconds = argv[1:5]
        print(repr(path_self_s(workload, ali_dir, msrc_dir, float(day_seconds))))
        return 0
    workload, ali_dir, msrc_dir, day_seconds, out = argv[1:6]
    result = traced_pass(workload, ali_dir, msrc_dir, float(day_seconds))
    tmp = f"{out}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
