"""Trace file writers (round-trip counterparts of :mod:`repro.trace.reader`)."""

from __future__ import annotations

import gzip
import io
import os
from typing import TextIO

import numpy as np

from .dataset import TraceDataset
from .record import _FILETIME_TICKS_PER_SECOND, _MICROSECONDS_PER_SECOND

__all__ = ["write_alicloud", "write_msrc", "write_dataset_dir"]


def _open_for_write(path: str) -> TextIO:
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "wb"), encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _merged_rows(dataset: TraceDataset):
    """Yield (timestamp, volume_id, row_index, trace) across volumes in time order."""
    entries = []
    for trace in dataset.volumes():
        for i in range(len(trace)):
            entries.append((trace.timestamps[i], trace.volume_id, i, trace))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return entries


def write_alicloud(dataset: TraceDataset, path: str) -> None:
    """Write a dataset in the released AliCloud CSV format.

    Rows across all volumes are merged into global timestamp order, matching
    how the production collector emitted them.
    """
    with _open_for_write(path) as fh:
        for ts, vol, i, trace in _merged_rows(dataset):
            op = "W" if trace.is_write[i] else "R"
            fh.write(
                f"{vol},{op},{int(trace.offsets[i])},{int(trace.sizes[i])},"
                f"{int(round(ts * _MICROSECONDS_PER_SECOND))}\n"
            )


def write_msrc(dataset: TraceDataset, path: str) -> None:
    """Write a dataset in the MSRC (SNIA) CSV format.

    Volume ids must look like ``hostname_disk`` (e.g. ``src1_0``); missing
    response times are written as 0 ticks.
    """
    with _open_for_write(path) as fh:
        for ts, vol, i, trace in _merged_rows(dataset):
            host, sep, disk = vol.rpartition("_")
            if not sep or not disk.isdigit():
                raise ValueError(
                    f"MSRC volume ids must be 'hostname_disk', got {vol!r}"
                )
            op = "Write" if trace.is_write[i] else "Read"
            rt = 0.0
            if trace.response_times is not None and not np.isnan(trace.response_times[i]):
                rt = float(trace.response_times[i])
            fh.write(
                f"{int(round(ts * _FILETIME_TICKS_PER_SECOND))},{host},{int(disk)},{op},"
                f"{int(trace.offsets[i])},{int(trace.sizes[i])},"
                f"{int(round(rt * _FILETIME_TICKS_PER_SECOND))}\n"
            )


def write_dataset_dir(
    dataset: TraceDataset, directory: str, fmt: str = "alicloud", compress: bool = False
) -> None:
    """Write each volume to ``<directory>/<volume>.csv[.gz]`` in ``fmt``."""
    os.makedirs(directory, exist_ok=True)
    suffix = ".csv.gz" if compress else ".csv"
    for trace in dataset.volumes():
        single = TraceDataset(dataset.name, {trace.volume_id: trace})
        path = os.path.join(directory, f"{trace.volume_id}{suffix}")
        if fmt == "alicloud":
            write_alicloud(single, path)
        elif fmt == "msrc":
            write_msrc(single, path)
        else:
            raise ValueError(f"unknown trace format: {fmt!r}")
