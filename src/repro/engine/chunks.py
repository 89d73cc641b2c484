"""Columnar chunks and chunked trace readers.

The row readers in :mod:`repro.trace.reader` allocate one
:class:`~repro.trace.record.IORequest` per line — convenient, but the
allocation plus enum/dataclass machinery dominates parse time on
million-request traces.  The chunked readers here parse trace bytes
straight into NumPy arrays (:class:`Chunk`), in batches of
``chunk_size`` data lines, with no per-line Python work on the hot path:
one ``flatnonzero`` finds a read's newlines and one its commas, integer
fields are decoded from their digit bytes, and string fields (volume,
opcode, MSRC host) are decoded once per distinct value.

Semantics match the row readers exactly: text-mode universal newlines,
the same blank-line and header handling, and the row parsers' field
syntax and :class:`~repro.trace.reader.TraceFormatError` messages.  The
fast path accepts only what it can prove identical (plain 1-19 digit
integers within int64, fields the row parsers' own opcode and strip
logic accept); any other batch is re-parsed row by row with the original
parsers, so error messages and line numbers are byte-identical.

Within one file, each volume's requests appear in file (time) order; a
batch containing several volumes is split into one :class:`Chunk` per
volume, preserving per-volume order.
"""

from __future__ import annotations

import gzip
import os
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # runtime import is lazy: repro.store imports this module
    from ..store import StoreConfig

from .. import faults
from ..obs import metrics
from ..obs.tracing import span
from ..resilience import (
    ON_ERROR_QUARANTINE,
    ON_ERROR_STRICT,
    ParseErrors,
    RetryPolicy,
    RunErrors,
    validate_on_error,
)
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.reader import (
    TraceFormatError,
    _looks_like_header,
    _parse_alicloud_line,
    _parse_msrc_line,
)
from ..trace.record import (
    _FILETIME_TICKS_PER_SECOND,
    _INT64_MAX,
    _MICROSECONDS_PER_SECOND,
    IORequest,
    OpType,
    _request_blocks,
    _ticks_to_seconds,
)
from .plan import ALL_COLUMNS, QueryPlan, RowPredicate

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Chunk",
    "ColumnPrunedError",
    "apply_plan",
    "iter_chunks",
    "chunks_from_trace",
    "read_dataset_dir_chunked",
    "list_trace_files",
]

#: Lines parsed per batch; large enough to amortize NumPy call overhead,
#: small enough that a batch of column arrays stays cache-friendly.
DEFAULT_CHUNK_SIZE = 65_536


class ColumnPrunedError(RuntimeError):
    """An analyzer touched a column its run's plan pruned away.

    Raised by :class:`Chunk` column access when the column was dropped by
    a :class:`~repro.engine.plan.QueryPlan` — i.e. no analyzer in the run
    declared it in ``required_columns``.  Fix the declaration, not the
    access: the plan only prunes what nobody claimed to need.
    """


#: A chunk column as stored: materialized array, lazy thunk (resolved and
#: cached on first access — e.g. a deferred masked copy off an mmap), or
#: None (column pruned by the plan / absent from the trace format).
ColumnSource = Union[np.ndarray, Callable[[], np.ndarray], None]


class Chunk:
    """A columnar batch of one volume's requests, in time order.

    Columns are **lazily materialized**: each one is backed by an array,
    a zero-argument thunk (evaluated and cached on first access — how the
    store defers masked copies until an analyzer actually reads), or
    ``None`` when a :class:`~repro.engine.plan.QueryPlan` pruned it.
    Reading a pruned core column raises :class:`ColumnPrunedError`;
    ``response_times`` reads as ``None`` whether absent or pruned.

    Attributes:
        volume_id: the volume all rows belong to.
        timestamps: float64 arrival times (seconds).
        offsets: int64 starting byte offsets.
        sizes: int64 request lengths (bytes, positive).
        is_write: bool op flags.
        response_times: optional float64 service times (MSRC traces).
    """

    __slots__ = ("volume_id", "_cols", "_n_rows")

    def __init__(
        self,
        volume_id: str,
        timestamps: ColumnSource = None,
        offsets: ColumnSource = None,
        sizes: ColumnSource = None,
        is_write: ColumnSource = None,
        response_times: ColumnSource = None,
        n_rows: Optional[int] = None,
    ) -> None:
        self.volume_id = volume_id
        self._cols: Dict[str, ColumnSource] = {
            "timestamps": timestamps,
            "offsets": offsets,
            "sizes": sizes,
            "is_write": is_write,
            "response_times": response_times,
        }
        if n_rows is None:
            for name in ALL_COLUMNS:
                value = self._cols[name]
                if value is not None and not callable(value):
                    n_rows = len(value)
                    break
            else:
                raise ValueError(
                    "a Chunk with no materialized column needs an explicit n_rows"
                )
        self._n_rows = int(n_rows)

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:
        cols = ",".join(self.present_columns())
        return f"Chunk({self.volume_id!r}, n_rows={self._n_rows}, columns=[{cols}])"

    # -- column access -----------------------------------------------------

    def _materialized(self, name: str) -> Optional[np.ndarray]:
        """The column's array (resolving+caching a thunk), or None."""
        value = self._cols[name]
        if value is not None and callable(value):
            value = value()
            self._cols[name] = value
        return value

    def _require(self, name: str) -> np.ndarray:
        value = self._materialized(name)
        if value is None:
            raise ColumnPrunedError(
                f"column {name!r} of volume {self.volume_id!r} was pruned by the "
                f"query plan; declare it in the analyzer's required_columns"
            )
        return value

    @property
    def timestamps(self) -> np.ndarray:
        return self._require("timestamps")

    @property
    def offsets(self) -> np.ndarray:
        return self._require("offsets")

    @property
    def sizes(self) -> np.ndarray:
        return self._require("sizes")

    @property
    def is_write(self) -> np.ndarray:
        return self._require("is_write")

    @property
    def response_times(self) -> Optional[np.ndarray]:
        return self._materialized("response_times")

    def has_column(self, name: str) -> bool:
        """Is ``name`` present (materialized or lazily available)?"""
        return self._cols[name] is not None

    def present_columns(self) -> Tuple[str, ...]:
        """Names of the columns this chunk carries, canonical order."""
        return tuple(name for name in ALL_COLUMNS if self._cols[name] is not None)

    def prune_columns(self, keep: Sequence[str]) -> int:
        """Drop present columns not named in ``keep``; returns how many."""
        dropped = 0
        for name in ALL_COLUMNS:
            if self._cols[name] is not None and name not in keep:
                self._cols[name] = None
                dropped += 1
        return dropped

    @classmethod
    def from_trace(cls, trace: VolumeTrace, lo: int = 0, hi: Optional[int] = None) -> "Chunk":
        """View rows ``[lo, hi)`` of an existing columnar trace as a chunk."""
        s = slice(lo, hi)
        rt = trace.response_times
        return cls(
            trace.volume_id,
            trace.timestamps[s],
            trace.offsets[s],
            trace.sizes[s],
            trace.is_write[s],
            None if rt is None else rt[s],
        )

    def block_expansion(self, block_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(req_index, block_id)`` expansion of the chunk's requests.

        Rows are ordered by request then ascending block (the same layout
        as :func:`repro.trace.blocks.expand_to_blocks`).
        """
        counts, block_id = _request_blocks(self.offsets, self.sizes, block_size)
        req_index = np.repeat(np.arange(len(self), dtype=np.int64), counts)
        return req_index, block_id


# -- predicate / plan application ------------------------------------------


def _filter_rows(
    chunk: Chunk, predicate: Optional[RowPredicate]
) -> Tuple[Optional[Chunk], int]:
    """``(surviving chunk, rows dropped)`` after row-level filtering.

    The surviving chunk is the input unchanged when every row passes,
    ``None`` when none do (including a volume-set miss), and a fresh
    chunk of masked copies otherwise.  Row order is preserved, so
    filtering commutes with chunking: filtering each chunk of a stream
    equals chunking the filtered stream, row for row.
    """
    if predicate is None or predicate.is_null():
        return chunk, 0
    n = len(chunk)
    if not predicate.allows_volume(chunk.volume_id):
        return None, n
    mask = predicate.row_mask(
        chunk.timestamps if predicate.needs_timestamps else None,
        chunk.is_write if predicate.needs_ops else None,
    )
    if mask is None:
        return chunk, 0
    kept = int(np.count_nonzero(mask))
    if kept == n:
        return chunk, 0
    if kept == 0:
        return None, n
    cols: Dict[str, Optional[np.ndarray]] = {}
    for name in ALL_COLUMNS:
        value = chunk._materialized(name)
        cols[name] = None if value is None else value[mask]
    return Chunk(chunk.volume_id, n_rows=kept, **cols), n - kept


def apply_plan(chunk: Chunk, plan: Optional[QueryPlan]) -> Optional[Chunk]:
    """Apply a run plan to a text-path chunk: filter rows, prune columns.

    The store path does this natively before materializing anything; here
    it runs post-parse so cold (text) runs see the same chunk stream a
    warm (store) run serves.  Planner counters are charged here:
    ``plan.rows_pruned`` / ``plan.rows_served`` for rows,
    ``plan.chunks_skipped`` when nothing survives, and
    ``plan.columns_pruned`` for columns dropped from served chunks.
    """
    if plan is None or plan.is_noop():
        return chunk
    reg = metrics.get_registry()
    kept, dropped = _filter_rows(chunk, plan.predicate)
    if dropped:
        reg.counter("plan.rows_pruned").inc(dropped)
    if kept is None:
        reg.counter("plan.chunks_skipped").inc()
        return None
    reg.counter("plan.rows_served").inc(len(kept))
    if plan.columns is not None:
        pruned = kept.prune_columns(plan.load_columns() or ())
        if pruned:
            reg.counter("plan.columns_pruned").inc(pruned)
    return kept


# -- byte-level batch parser ------------------------------------------------

#: Bytes that may open a blank line: ASCII whitespace, and any non-ASCII
#: byte (a Unicode space may start there; such lines get a decoded check).
_MAYBE_SPACE = np.zeros(256, dtype=bool)
_MAYBE_SPACE[[9, 11, 12, 28, 29, 30, 31, 32]] = True
_MAYBE_SPACE[128:] = True

#: Integer fields of 1-19 ASCII digits are decoded from their bytes (uint64
#: holds any 19 digits); signed, padded or longer ones fall back.
_MAX_DIGITS = 19


class _BadBatch(Exception):
    """Internal: the vectorized fast path rejected a batch (fall back)."""


def _field_bounds(arr: np.ndarray, starts: np.ndarray, ends: np.ndarray, n_fields: int):
    """``[(lo, hi), ...]``: each field's byte bounds on every line.

    Lines between the batch's lines are blank, so the span's commas are
    the lines' own: ``n_fields - 1`` per line, each line's first at or
    after its start and its last before its end, or the batch is bad.
    """
    n = len(starts)
    commas = np.flatnonzero(arr[starts[0]:ends[-1]] == 44) + starts[0]
    if len(commas) != n * (n_fields - 1):
        raise _BadBatch
    commas = commas.reshape(n, n_fields - 1)
    if np.any(commas[:, 0] < starts) or np.any(commas[:, -1] >= ends):
        raise _BadBatch
    los = [starts] + [commas[:, k] + 1 for k in range(n_fields - 1)]
    return list(zip(los, [commas[:, k] for k in range(n_fields - 1)] + [ends]))


def _ints(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int64 values of fields of 1-19 ASCII digits, decoded from the bytes."""
    width = hi - lo
    w = int(width.max())
    if w > _MAX_DIGITS or int(width.min()) < 1:
        raise _BadBatch
    # Row j holds each field's byte at hi - w + j; bytes before the field
    # read as leading zeros.
    pos = hi + np.arange(-w, 0)[:, None]
    digits = np.take(arr, pos, mode="clip") - 48
    digits[pos < lo] = 0
    if np.any(digits > 9):
        raise _BadBatch
    value = digits[0].astype(np.uint64)
    for row in digits[1:]:
        value = value * np.uint64(10) + row
    if w == _MAX_DIGITS and np.any(value > np.uint64(_INT64_MAX)):
        raise _BadBatch
    return value.view(np.int64)


def _per_token(buf: bytes, arr: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               convert: Callable[[str], Any]) -> np.ndarray:
    """``convert`` of each decoded field, run once per distinct field; a
    ``ValueError`` rejects the batch.  Fields group as byte strings padded
    with 0xFF, which valid UTF-8 never holds."""
    w = -(-max(int((hi - lo).max()), 1) // 8) * 8
    pos = lo[:, None] + np.arange(w)
    grid = np.take(arr, pos, mode="clip")
    grid[pos >= hi[:, None]] = 0xFF
    keys = grid.view(np.uint64)  # one row of w / 8 words per field
    # A lexsort over the words: np.unique(keys, axis=0) sorts a void view
    # and makes the parse kernel lanes about twice as slow.
    order = np.lexsort(keys.T)
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    codes = np.empty(len(order), dtype=np.intp)
    codes[order] = np.cumsum(new) - 1
    first = order[new]
    try:
        values = np.array([
            convert(buf[a:b].decode("utf-8"))
            for a, b in zip(lo[first].tolist(), hi[first].tolist())
        ])
    except ValueError:
        raise _BadBatch from None
    return values[codes]


def _is_write(opcode: str) -> bool:
    return OpType.parse(opcode).is_write


def _msrc_volume(host_disk: str) -> str:
    host, disk = host_disk.split(",")
    return f"{host.strip()}_{int(disk)}"


def _alicloud_columns(buf: bytes, arr: np.ndarray, fields):
    """AliCloud ``device_id,opcode,offset,length,timestamp`` columns."""
    volume, opcode, offset, length, timestamp = fields
    return (
        _per_token(buf, arr, *volume, str.strip),
        _ticks_to_seconds(_ints(arr, *timestamp), _MICROSECONDS_PER_SECOND),
        _ints(arr, *offset),
        _ints(arr, *length),
        _per_token(buf, arr, *opcode, _is_write),
        None,
    )


def _msrc_columns(buf: bytes, arr: np.ndarray, fields):
    """MSRC ``timestamp,hostname,disk,type,offset,size,response`` columns;
    each distinct ``hostname,disk`` span becomes its volume id once."""
    timestamp, hostname, disk, optype, offset, size, response = fields
    return (
        _per_token(buf, arr, hostname[0], disk[1], _msrc_volume),
        _ticks_to_seconds(_ints(arr, *timestamp), _FILETIME_TICKS_PER_SECOND),
        _ints(arr, *offset),
        _ints(arr, *size),
        _per_token(buf, arr, *optype, _is_write),
        _ticks_to_seconds(_ints(arr, *response), _FILETIME_TICKS_PER_SECOND),
    )


def _parse_rows(lines: Sequence[str], linenos: Sequence[int],
                row_parse: Callable[[str, int], IORequest], path: str, on_error: str,
                errors: Optional[ParseErrors], reg: metrics.MetricsRegistry):
    """Row-by-row re-parse of a batch the fast path rejected.

    Under ``strict`` the row parser's :class:`TraceFormatError` for the
    first malformed line propagates.  Otherwise malformed lines are
    dropped, counted, and recorded in ``errors`` when given (with a
    sampled :class:`~repro.resilience.QuarantineRecord` under
    ``quarantine``); None when no line survives.
    """
    keep_sample = on_error == ON_ERROR_QUARANTINE
    if on_error != ON_ERROR_STRICT:
        dropped = reg.counter(
            "engine.lines_quarantined" if keep_sample else "engine.lines_skipped"
        )
    reqs: List[IORequest] = []
    for line, lineno in zip(lines, linenos):
        try:
            reqs.append(row_parse(line, lineno))
        except TraceFormatError as exc:
            if on_error == ON_ERROR_STRICT:
                raise
            dropped.inc()
            if errors is not None:
                errors.record(path, lineno, str(exc), line, keep_sample)
    if not reqs:
        return None
    return _columns_from_requests(reqs)


def _columns_from_requests(reqs: Sequence[IORequest]):
    """Column tuple (fast-path layout) from row-parsed requests."""
    volumes = np.array([r.volume for r in reqs], dtype=np.str_)
    timestamps = np.array([r.timestamp for r in reqs], dtype=np.float64)
    offsets = np.array([r.offset for r in reqs], dtype=np.int64)
    sizes = np.array([r.size for r in reqs], dtype=np.int64)
    is_write = np.array([r.is_write for r in reqs], dtype=bool)
    response = None
    if any(r.response_time is not None for r in reqs):
        response = np.array(
            [np.nan if r.response_time is None else r.response_time for r in reqs],
            dtype=np.float64,
        )
    return volumes, timestamps, offsets, sizes, is_write, response


#: Format name -> (field count, vectorized batch parser, row parser).
_FORMATS = {
    "alicloud": (5, _alicloud_columns, _parse_alicloud_line),
    "msrc": (7, _msrc_columns, _parse_msrc_line),
}


def _split_by_volume(columns) -> Iterator[Chunk]:
    """Split one parsed batch into per-volume chunks (volume-sorted order,
    per-volume row order preserved)."""
    volumes, timestamps, offsets, sizes, is_write, response = columns
    order = np.argsort(volumes, kind="stable")
    sv = volumes[order]
    boundaries = np.flatnonzero(sv[1:] != sv[:-1]) + 1
    for seg in np.split(order, boundaries):
        yield Chunk(
            str(volumes[seg[0]]),
            timestamps[seg],
            offsets[seg],
            sizes[seg],
            is_write[seg],
            None if response is None else response[seg],
        )


@contextmanager
def _byte_reader(path: str, byte_range: Optional[Tuple[int, int]]):
    """``read(size)`` over a trace file's bytes (``.gz`` decompressed), or
    over bytes ``[lo, hi)`` of an uncompressed one.  Plain-file reads stop
    at the range end or file size, so no read allocates more than it gets."""
    if path.endswith(".gz") and byte_range is None:
        with gzip.open(path, "rb") as fh:
            yield fh.read
        return
    with open(path, "rb") as fh:
        lo, hi = byte_range or (0, os.fstat(fh.fileno()).st_size)
        fh.seek(lo)
        yield lambda size: fh.read(max(0, min(size, hi - fh.tell())))


def _line_spans(buf: bytes, final: bool):
    """``(arr, starts, ends, nexts)``: ``buf`` as ``uint8`` and its complete lines.

    ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line, as in text-mode
    reads.  ``[starts, ends)`` is a line's content and ``nexts`` the offset
    after its terminator.  An unterminated tail is a line only when
    ``final``; a trailing ``\\r`` waits for more bytes (a ``\\n`` may follow).
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(arr == 10)
    nexts = ends + 1
    if b"\r" in buf:
        cr = np.flatnonzero(arr == 13)
        ahead = arr[np.minimum(cr + 1, len(arr) - 1)]
        lone = cr[(ahead != 10) & ((cr + 1 < len(arr)) | final)]
        nexts = np.union1d(nexts, lone + 1)
        ends = nexts - 1 - ((arr[nexts - 1] == 10) & (arr[np.maximum(nexts - 2, 0)] == 13))
    if final and (nexts[-1] if len(nexts) else 0) < len(arr):
        ends = np.append(ends, len(arr))
        nexts = np.append(nexts, len(arr))
    starts = np.empty_like(nexts)
    starts[:1] = 0
    starts[1:] = nexts[:-1]
    return arr, starts, ends, nexts


def _iter_line_groups(path: str, chunk_size: int, skip_header: bool, n_fields: int,
                      byte_range: Optional[Tuple[int, int]], start_lineno: int):
    """Yield ``(buf, arr, starts, ends, linenos, chars)`` per read: the
    data lines of its whole ``chunk_size`` batches (at end of input, the
    short last one too).

    ``[starts, ends)`` are the lines' contents in ``buf`` and ``chars``
    their lengths as decoded text lines, terminator included
    (``parse.bytes``).  Blank and whitespace-only lines are skipped
    anywhere, and a header only on physical line 1, as in the row
    readers.  Bytes after the last whole batch carry over to the next
    read.  Invalid UTF-8 raises ``UnicodeDecodeError``.
    """
    block_bytes = max(1 << 16, 64 * chunk_size)  # a read holds about a batch
    carry, lineno, final = b"", start_lineno, False
    with _byte_reader(path, byte_range) as read:
        while not final:
            # Reading at least the carry's size keeps re-scans linear.
            data = read(max(block_bytes, len(carry)))
            final = not data
            buf = carry + data
            arr, starts, ends, nexts = _line_spans(buf, final)
            if not len(starts):
                carry = buf
                continue
            chars = ends - starts + (nexts > ends)
            if not buf.isascii():
                str(memoryview(buf)[: nexts[-1]], "utf-8")  # validate the lines
                continuation = (arr[: nexts[-1]] & 0xC0) == 0x80  # not a char of its own
                chars -= np.add.reduceat(continuation, starts, dtype=np.intp)
            kept = ends > starts
            for i in np.flatnonzero(kept & _MAYBE_SPACE[arr[starts]]).tolist():
                kept[i] = not buf[starts[i]:ends[i]].decode("utf-8").isspace()
            if skip_header and lineno == 1 and kept[0]:
                kept[0] = not _looks_like_header(buf[:ends[0]].decode("utf-8"), n_fields)
            kept = np.flatnonzero(kept)
            done = len(kept) if final else len(kept) - len(kept) % chunk_size
            if done:
                sel = kept[:done]
                yield buf, arr, starts[sel], ends[sel], lineno + sel, chars[sel]
            rest = int(kept[done - 1]) + 1 if done else 0
            carry = buf[starts[rest]:] if rest < len(starts) else buf[nexts[-1]:]
            lineno += rest


def _decode_lines(buf: bytes, starts: np.ndarray, ends: np.ndarray) -> List[str]:
    return [buf[a:b].decode("utf-8") for a, b in zip(starts.tolist(), ends.tolist())]


def _iter_batch_columns(
    path: str,
    fmt: str = "alicloud",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    skip_header: bool = True,
    on_error: str = ON_ERROR_STRICT,
    errors: Optional[ParseErrors] = None,
    byte_range: Optional[Tuple[int, int]] = None,
    start_lineno: int = 1,
) -> Iterator[Tuple]:
    """Parse one file into per-batch column tuples (pre volume-split).

    The shared parse core of :func:`iter_chunks` and the store builder
    (:func:`repro.store.builder.build_entry`), so text-path chunks and
    store columns come from the same machinery.  ``byte_range`` /
    ``start_lineno`` narrow the parse to one line-aligned slice whose
    first line has that physical number.  A batch the fast path rejects
    (or a fault plan corrupted) is re-parsed row by row
    (:func:`_parse_rows`).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    on_error = validate_on_error(on_error)
    try:
        n_fields, batch_parse, row_parse = _FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format: {fmt!r} (expected 'alicloud' or 'msrc')"
        ) from None
    reg = metrics.get_registry()
    lines_total = reg.counter("parse.lines")
    bytes_total = reg.counter("parse.bytes")
    corrupt = faults.line_corruptor(path)

    def fast(buf, arr, starts, ends):
        with span("parse_batch"):
            try:
                columns = batch_parse(buf, arr, _field_bounds(arr, starts, ends, n_fields))
            except _BadBatch:
                return None
        offsets, sizes = columns[2], columns[3]
        # The row parser names a zero size and a request past int64.
        if not sizes.all() or np.any(offsets > _INT64_MAX - (sizes - 1)):
            return None
        return columns

    for buf, arr, starts, ends, linenos, chars in _iter_line_groups(
        path, chunk_size, skip_header, n_fields, byte_range, start_lineno
    ):
        for lo in range(0, len(starts), chunk_size):
            s, e, nos = (col[lo:lo + chunk_size] for col in (starts, ends, linenos))
            lines_total.inc(len(s))
            bytes_total.inc(int(chars[lo:lo + chunk_size].sum()))
            columns = lines = None
            if corrupt is not None:
                clean = _decode_lines(buf, s, e)
                hit = [corrupt(no, line) for no, line in zip(nos.tolist(), clean)]
                if hit != clean:
                    lines = hit  # a corrupted line has no commas left: fall back
            if lines is None:
                columns = fast(buf, arr, s, e)
            if columns is None:
                reg.counter("parse.fallback_batches").inc()
                reg.counter("parse.fallback_lines").inc(len(s))
                with span("parse_batch"):
                    columns = _parse_rows(
                        _decode_lines(buf, s, e) if lines is None else lines,
                        nos.tolist(), row_parse, path, on_error, errors, reg,
                    )
            if columns is not None:
                yield columns


def iter_chunks(
    path: str,
    fmt: str = "alicloud",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    skip_header: bool = True,
    on_error: str = ON_ERROR_STRICT,
    errors: Optional[ParseErrors] = None,
    store: Optional["StoreConfig"] = None,
    plan: Optional[QueryPlan] = None,
    byte_range: Optional[Tuple[int, int]] = None,
    start_lineno: int = 1,
) -> Iterator[Chunk]:
    """Stream per-volume :class:`Chunk` batches from one trace file.

    Args:
        path: ``.csv`` or ``.csv.gz`` trace file.
        fmt: ``"alicloud"`` or ``"msrc"``.
        chunk_size: lines parsed per batch (each batch yields one chunk
            per volume present in it).
        skip_header: skip a column-name header line, like the row readers.
        on_error: ``"strict"`` raises on the first malformed line;
            ``"skip"`` / ``"quarantine"`` drop malformed lines, count them
            (``engine.lines_skipped`` / ``engine.lines_quarantined``), and
            keep every well-formed line — at any chunk size, the same
            lines survive.
        errors: optional :class:`~repro.resilience.ParseErrors` ledger
            that receives the exact dropped count (and sampled records
            under ``quarantine``).
        store: optional :class:`~repro.store.StoreConfig` fast path — a
            fresh store entry serves the identical chunk stream straight
            from mmap (no text parsing); a miss transparently ingests the
            file first when ``store.build`` is set.  Results are
            bit-identical to the text path either way.
        plan: optional :class:`~repro.engine.plan.QueryPlan` — served
            chunks carry only planned columns and predicate-matching rows.
            The store path skips disjoint chunks before touching their
            bytes; the text path still parses everything, then prunes.
            Either way the surviving rows are identical
            (pruned-equals-filtered).
        byte_range: optional line-aligned byte slice to parse instead of
            the whole file (the engine's cold split sub-units); forces
            the text path — a store entry is keyed in rows, not bytes.
        start_lineno: physical line number of ``byte_range``'s first
            line, keeping per-line semantics identical to a full pass.

    Raises:
        TraceFormatError: under ``strict`` only, for malformed lines, with
            the same message and line number as the row readers.
    """
    if plan is not None and plan.is_noop():
        plan = None
    if store is not None and byte_range is None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        from ..store import try_serve

        served = try_serve(
            path, fmt, chunk_size, skip_header, validate_on_error(on_error), errors,
            store, plan=plan,
        )
        if served is not None:
            yield from served
            return
    chunks_total = metrics.counter("parse.chunks")
    for columns in _iter_batch_columns(
        path, fmt=fmt, chunk_size=chunk_size, skip_header=skip_header,
        on_error=on_error, errors=errors,
        byte_range=byte_range, start_lineno=start_lineno,
    ):
        for chunk in _split_by_volume(columns):
            planned = apply_plan(chunk, plan)
            if planned is None:
                continue
            chunks_total.inc()
            yield planned


def chunks_from_trace(
    trace: VolumeTrace, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[Chunk]:
    """Slice an in-memory columnar trace into fixed-size chunks."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    for lo in range(0, len(trace), chunk_size):
        yield Chunk.from_trace(trace, lo, lo + chunk_size)


def list_trace_files(directory: str) -> List[str]:
    """Sorted ``.csv``/``.csv.gz`` files of a trace directory."""
    files = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.endswith(".csv") or f.endswith(".csv.gz")
    )
    if not files:
        raise FileNotFoundError(f"no .csv or .csv.gz trace files in {directory!r}")
    return files


class _VolumeColumns:
    """Per-volume growing column buffers for dataset materialization."""

    __slots__ = ("timestamps", "offsets", "sizes", "is_write", "response_times")

    def __init__(self) -> None:
        self.timestamps: List[np.ndarray] = []
        self.offsets: List[np.ndarray] = []
        self.sizes: List[np.ndarray] = []
        self.is_write: List[np.ndarray] = []
        self.response_times: List[np.ndarray] = []


def _concat_release(parts: List[np.ndarray]) -> Optional[np.ndarray]:
    """One column of one volume; empties ``parts`` so its chunks can go."""
    if not parts:
        return None
    column = np.concatenate(parts)
    parts.clear()
    return column


class _ColumnCollector:
    """The fold behind dataset materialization: keep every chunk's columns.

    Declares no ``required_columns`` (it reads them all), so the run's
    plan is exactly the caller's predicate.  ``merge`` concatenates in
    time order, so the merged buffers are the unsplit read's bytes.
    """

    name = "columns"

    def init_state(self, volume_id: str) -> _VolumeColumns:
        return _VolumeColumns()

    def consume(self, state: _VolumeColumns, chunk: Chunk) -> _VolumeColumns:
        state.timestamps.append(chunk.timestamps)
        state.offsets.append(chunk.offsets)
        state.sizes.append(chunk.sizes)
        state.is_write.append(chunk.is_write)
        if chunk.response_times is not None:
            state.response_times.append(chunk.response_times)
        return state

    def merge(self, earlier: _VolumeColumns, later: _VolumeColumns) -> _VolumeColumns:
        earlier.timestamps.extend(later.timestamps)
        earlier.offsets.extend(later.offsets)
        earlier.sizes.extend(later.sizes)
        earlier.is_write.extend(later.is_write)
        earlier.response_times.extend(later.response_times)
        return earlier

    def finalize(self, state: _VolumeColumns) -> _VolumeColumns:
        return state


def read_dataset_dir_chunked(
    directory: str,
    fmt: str = "alicloud",
    name: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    on_error: str = ON_ERROR_STRICT,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    errors: Optional[RunErrors] = None,
    store: Optional["StoreConfig"] = None,
    predicate: Optional[RowPredicate] = None,
    split_rows: int = 0,
) -> TraceDataset:
    """Read every ``.csv``/``.csv.gz`` trace file in a directory as one
    :class:`~repro.trace.dataset.TraceDataset`: the one text-to-dataset path.

    Parses each file in columnar batches (the rows the row readers in
    :mod:`repro.trace.reader` yield, as arrays) and can fan files out
    across ``workers`` processes.  ``name`` defaults to the directory
    basename; ``fmt`` is ``"alicloud"`` or ``"msrc"``.  It is a fold on the
    engine's file driver (:func:`repro.engine.runner.run_files` runs the
    same one): a column-collecting analyzer keeps every chunk, and the
    merged per-volume columns are concatenated in canonical (file, range)
    order — regardless of worker completion order, split configuration
    or worker count, every volume's arrays are the same bytes.  Volumes
    keep their first appearance in that order (not sorted).  Parse and
    engine metrics land in the caller's current registry at any worker
    count, and ``progress(done, total)`` fires per completed unit.

    Scheduling, ``split_rows`` and fault tolerance are the
    driver's: ``on_error`` governs malformed lines and (non-strict)
    permanently failed files, ``retry`` / ``unit_timeout`` govern unit
    recovery, and ``errors`` (when given) collects the run's fault ledger.

    With ``store`` set (see :class:`~repro.store.StoreConfig`), files
    with fresh store entries are materialized from mmap instead of text —
    same arrays, same error accounting, no parsing.

    With ``predicate`` set, only matching rows are materialized (a warm
    store additionally skips disjoint chunks via zone maps); the result
    equals reading everything and then filtering, except that volumes
    left with zero rows are omitted entirely.
    """
    from .runner import _fold_units

    merged, _, _ = _fold_units(
        list_trace_files(directory),
        [_ColumnCollector()],
        errors if errors is not None else RunErrors(policy=on_error),
        fmt=fmt, chunk_size=chunk_size, workers=workers, progress=progress,
        on_error=on_error, retry=retry, unit_timeout=unit_timeout, store=store,
        predicate=predicate, split_rows=split_rows,
    )
    volumes = merged.pop(0)
    dataset = TraceDataset(name or os.path.basename(os.path.normpath(directory)))
    # Insertion (first-appearance) order, not sorted: volume order reaches
    # the analyze JSON and the float sums in findings.  Each volume's
    # chunks are released as soon as its arrays are built, so the read
    # peaks near the dataset plus one volume, not twice the dataset.
    while volumes:
        vid = next(iter(volumes))
        cols = volumes.pop(vid)
        columns = {name: _concat_release(getattr(cols, name)) for name in _VolumeColumns.__slots__}
        dataset.add(VolumeTrace(vid, **columns))
    return dataset
