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

Files ending in ``.gz`` are transparently decompressed.  The readers
here stream one :class:`~repro.trace.record.IORequest` per line; they are
the reference the byte-level batch parser in :mod:`repro.engine.chunks`
is checked against, and its row-by-row fallback.  A directory becomes a
:class:`~repro.trace.dataset.TraceDataset` through
:func:`repro.engine.read_dataset_dir_chunked`.
"""

from __future__ import annotations

import gzip
import io
from typing import Callable, Iterator, Optional, TextIO

from .record import (
    _FILETIME_TICKS_PER_SECOND,
    _MICROSECONDS_PER_SECOND,
    IORequest,
    OpType,
    _ticks_to_seconds,
)

__all__ = [
    "open_trace_file",
    "iter_alicloud_requests",
    "iter_msrc_requests",
    "TraceFormatError",
]


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
            timestamp=_ticks_to_seconds(int(timestamp), _MICROSECONDS_PER_SECOND),
        )
    except (ValueError, OverflowError) as exc:
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
            timestamp=_ticks_to_seconds(int(timestamp), _FILETIME_TICKS_PER_SECOND),
            response_time=_ticks_to_seconds(int(response), _FILETIME_TICKS_PER_SECOND),
        )
    except (ValueError, OverflowError) as exc:
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
