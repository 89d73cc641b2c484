"""Trace file readers for the AliCloud and MSRC formats.

AliCloud format (as released at github.com/alibaba/block-traces)::

    device_id,opcode,offset,length,timestamp

with ``device_id`` an integer volume number, ``opcode`` in ``{R, W}``,
``offset``/``length`` in bytes, and ``timestamp`` in microseconds.

MSRC format (SNIA IOTTA release)::

    timestamp,hostname,disk_number,type,offset,size,response_time

with ``timestamp``/``response_time`` in Windows filetime ticks (100 ns) and
``type`` in ``{Read, Write}``.  The volume id is ``hostname_disknumber``
(e.g. ``src1_0``).

Files ending in ``.gz`` are transparently decompressed.  Readers stream
line-by-line and accumulate into columnar :class:`~repro.trace.dataset.VolumeTrace`
objects, so memory stays proportional to the trace, not to Python row objects.
"""

from __future__ import annotations

import gzip
import io
import os
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TextIO

import numpy as np

from .dataset import TraceDataset, VolumeTrace
from .record import IORequest, OpType

__all__ = [
    "open_trace_file",
    "iter_alicloud_requests",
    "iter_msrc_requests",
    "read_alicloud",
    "read_msrc",
    "read_dataset_dir",
    "TraceFormatError",
]

#: Windows filetime resolution used by MSRC timestamps.
_FILETIME_TICKS_PER_SECOND = 10_000_000
_MICROSECONDS_PER_SECOND = 1_000_000


class TraceFormatError(ValueError):
    """A trace line could not be parsed in the expected format."""

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


#: Read buffer in front of gzip decompression.  GzipFile hands out small
#: reads; a 1 MiB buffered reader between it and the text decoder keeps
#: ``.gz`` ingest from being bound by per-read call overhead.
_GZIP_BUFFER_BYTES = 1 << 20


def open_trace_file(path: str) -> TextIO:
    """Open a trace file for reading, decompressing ``.gz`` transparently."""
    if path.endswith(".gz"):
        raw = gzip.open(path, "rb")
        buffered = io.BufferedReader(raw, buffer_size=_GZIP_BUFFER_BYTES)  # type: ignore[arg-type]
        return io.TextIOWrapper(buffered, encoding="utf-8")
    return open(path, "r", encoding="utf-8", buffering=_GZIP_BUFFER_BYTES)


def _parse_alicloud_line(line: str, lineno: int) -> IORequest:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 5:
        raise TraceFormatError(
            f"expected 5 comma-separated fields, got {len(parts)}", lineno
        )
    device, opcode, offset, length, timestamp = parts
    try:
        return IORequest(
            volume=device.strip(),
            op=OpType.parse(opcode),
            offset=int(offset),
            size=int(length),
            timestamp=int(timestamp) / _MICROSECONDS_PER_SECOND,
        )
    except ValueError as exc:
        raise TraceFormatError(str(exc), lineno) from exc


def _parse_msrc_line(line: str, lineno: int) -> IORequest:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 7:
        raise TraceFormatError(
            f"expected 7 comma-separated fields, got {len(parts)}", lineno
        )
    timestamp, hostname, disk, optype, offset, size, response = parts
    try:
        return IORequest(
            volume=f"{hostname.strip()}_{int(disk)}",
            op=OpType.parse(optype),
            offset=int(offset),
            size=int(size),
            timestamp=int(timestamp) / _FILETIME_TICKS_PER_SECOND,
            response_time=int(response) / _FILETIME_TICKS_PER_SECOND,
        )
    except ValueError as exc:
        raise TraceFormatError(str(exc), lineno) from exc


def _iter_requests(
    path: str, parse: Callable[[str, int], IORequest], n_fields: int, skip_header: bool
) -> Iterator[IORequest]:
    with open_trace_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if lineno == 1 and skip_header and _looks_like_header(line, n_fields):
                continue
            yield parse(line, lineno)


def _looks_like_header(line: str, n_fields: int) -> bool:
    # A header has the format's field count, and data rows always end with
    # a numeric field (timestamp for AliCloud, response time for MSRC); a
    # column-name header does not.  The volume id field cannot be used —
    # device ids may be arbitrary strings.
    fields = line.rstrip("\n").split(",")
    if len(fields) != n_fields:
        return False
    try:
        int(fields[-1])
        return False
    except ValueError:
        return True


def iter_alicloud_requests(path: str, skip_header: bool = True) -> Iterator[IORequest]:
    """Stream :class:`IORequest` records from an AliCloud-format file."""
    return _iter_requests(path, _parse_alicloud_line, 5, skip_header)


def iter_msrc_requests(path: str, skip_header: bool = True) -> Iterator[IORequest]:
    """Stream :class:`IORequest` records from an MSRC-format file."""
    return _iter_requests(path, _parse_msrc_line, 7, skip_header)


class _ColumnAccumulator:
    """Grows per-volume column lists and finalizes them into VolumeTraces."""

    def __init__(self, with_response_times: bool) -> None:
        self.with_response_times = with_response_times
        self.timestamps: Dict[str, List[float]] = defaultdict(list)
        self.offsets: Dict[str, List[int]] = defaultdict(list)
        self.sizes: Dict[str, List[int]] = defaultdict(list)
        self.is_write: Dict[str, List[bool]] = defaultdict(list)
        self.response_times: Dict[str, List[float]] = defaultdict(list)

    def add(self, req: IORequest) -> None:
        v = req.volume
        self.timestamps[v].append(req.timestamp)
        self.offsets[v].append(req.offset)
        self.sizes[v].append(req.size)
        self.is_write[v].append(req.is_write)
        if self.with_response_times:
            self.response_times[v].append(
                req.response_time if req.response_time is not None else np.nan
            )

    def finalize(self, name: str) -> TraceDataset:
        dataset = TraceDataset(name)
        for v in self.timestamps:
            dataset.add(
                VolumeTrace(
                    v,
                    np.array(self.timestamps[v], dtype=np.float64),
                    np.array(self.offsets[v], dtype=np.int64),
                    np.array(self.sizes[v], dtype=np.int64),
                    np.array(self.is_write[v], dtype=bool),
                    np.array(self.response_times[v], dtype=np.float64)
                    if self.with_response_times
                    else None,
                )
            )
        return dataset


def _read_files(
    paths: Iterable[str],
    iter_fn: Callable[[str], Iterator[IORequest]],
    name: str,
    with_response_times: bool,
) -> TraceDataset:
    acc = _ColumnAccumulator(with_response_times)
    for path in paths:
        for req in iter_fn(path):
            acc.add(req)
    return acc.finalize(name)


def read_alicloud(paths, name: str = "AliCloud") -> TraceDataset:
    """Read one or more AliCloud-format files into a :class:`TraceDataset`."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    return _read_files([os.fspath(p) for p in paths], iter_alicloud_requests, name, False)


def read_msrc(paths, name: str = "MSRC") -> TraceDataset:
    """Read one or more MSRC-format files into a :class:`TraceDataset`."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    return _read_files([os.fspath(p) for p in paths], iter_msrc_requests, name, True)


def read_dataset_dir(directory: str, fmt: str = "alicloud", name: Optional[str] = None) -> TraceDataset:
    """Read every ``.csv``/``.csv.gz`` file in a directory as one dataset.

    Args:
        directory: directory containing trace files.
        fmt: ``"alicloud"`` or ``"msrc"``.
        name: dataset name; defaults to the directory basename.
    """
    files = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.endswith(".csv") or f.endswith(".csv.gz")
    )
    if not files:
        raise FileNotFoundError(f"no .csv or .csv.gz trace files in {directory!r}")
    dataset_name = name or os.path.basename(os.path.normpath(directory))
    if fmt == "alicloud":
        return read_alicloud(files, dataset_name)
    if fmt == "msrc":
        return read_msrc(files, dataset_name)
    raise ValueError(f"unknown trace format: {fmt!r} (expected 'alicloud' or 'msrc')")
