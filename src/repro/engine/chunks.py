"""Columnar chunks and chunked trace readers.

The row readers in :mod:`repro.trace.reader` allocate one
:class:`~repro.trace.record.IORequest` per line — convenient, but the
allocation plus enum/dataclass machinery dominates parse time on
million-request traces.  The chunked readers here parse trace files in
fixed-size line batches straight into NumPy arrays (:class:`Chunk`),
skipping per-row object allocation on the hot path.

Semantics match the row readers exactly: the same header/blank-line
handling, the same accepted field syntax (NumPy's string→int64 cast
delegates to Python ``int()``), and the same
:class:`~repro.trace.reader.TraceFormatError` for malformed lines.  Any
batch that fails the vectorized fast path is re-parsed row by row with the
original parsers, so error messages and line numbers are byte-identical.

Within one file, each volume's requests appear in file (time) order; a
batch containing several volumes is split into one :class:`Chunk` per
volume, preserving per-volume order.
"""

from __future__ import annotations

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
    open_trace_file,
)
from ..trace.record import IORequest
from .plan import ALL_COLUMNS, QueryPlan, RowPredicate

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Chunk",
    "ColumnPrunedError",
    "apply_predicate",
    "apply_plan",
    "iter_chunks",
    "chunks_from_trace",
    "read_dataset_dir_chunked",
    "list_trace_files",
]

#: Lines parsed per batch; large enough to amortize NumPy call overhead,
#: small enough that a batch of column arrays stays cache-friendly.
DEFAULT_CHUNK_SIZE = 65_536

_FILETIME_TICKS_PER_SECOND = 10_000_000
_MICROSECONDS_PER_SECOND = 1_000_000


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

    __slots__ = ("volume_id", "_cols", "_n_rows", "_block_cache")

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
        #: Memoized request→block expansions keyed by block size, shared by
        #: analyzers so one chunk is expanded at most once per granularity.
        self._block_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

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
        as :func:`repro.trace.blocks.expand_to_blocks`).  Cached per block
        size so multiple analyzers share one expansion.
        """
        cached = self._block_cache.get(block_size)
        if cached is not None:
            return cached
        first = self.offsets // block_size
        last = (self.offsets + self.sizes - 1) // block_size
        counts = last - first + 1
        total = int(counts.sum())
        req_index = np.repeat(np.arange(len(self), dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        block_id = np.repeat(first, counts) + within
        self._block_cache[block_size] = (req_index, block_id)
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


def apply_predicate(chunk: Chunk, predicate: Optional[RowPredicate]) -> Optional[Chunk]:
    """Rows of ``chunk`` matching ``predicate``, or None when none do.

    Counter-free: used for per-analyzer residual predicates inside the
    fold, where the run-level plan counters have already been charged.
    """
    return _filter_rows(chunk, predicate)[0]


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


# -- vectorized batch parsers ---------------------------------------------


def _cells(lines: Sequence[str], n_fields: int) -> np.ndarray:
    """Split a batch of pre-validated lines into an (n, n_fields) cell grid."""
    blob = ",".join(line.rstrip("\n") for line in lines)
    return np.array(blob.split(","), dtype=np.str_).reshape(len(lines), n_fields)


def _opcode_flags(tokens: np.ndarray, read_words, write_words) -> Optional[np.ndarray]:
    """is_write flags, or None when any token is not a recognized opcode.

    A batch holds at most a handful of distinct opcode spellings, so the
    strip/upper/isin chain runs on the *unique* tokens only (one sort of
    the raw tokens instead of three full-size string-array allocations)
    and the per-token flags broadcast back through the inverse index.
    """
    uniq, inverse = np.unique(tokens, return_inverse=True)
    up = np.char.upper(np.char.strip(uniq))
    is_write_u = np.isin(up, write_words)
    if not np.all(is_write_u | np.isin(up, read_words)):
        return None
    return is_write_u[inverse]


def _stripped_column(tokens: np.ndarray) -> np.ndarray:
    """``np.char.strip`` evaluated on unique values only (fused fast path)."""
    uniq, inverse = np.unique(tokens, return_inverse=True)
    return np.char.strip(uniq)[inverse]


class _BadBatch(Exception):
    """Internal: the vectorized fast path rejected a batch (fall back)."""


def _int_column(cells: np.ndarray) -> np.ndarray:
    try:
        return cells.astype(np.int64)
    except (ValueError, OverflowError) as exc:
        raise _BadBatch from exc


def _parse_alicloud_batch(lines: Sequence[str]):
    """Vectorized parse of AliCloud lines → column arrays.

    Raises :class:`_BadBatch` on anything the fast path cannot prove
    identical to the row parser; the caller then re-parses row by row.
    """
    for line in lines:
        if line.count(",") != 4:
            raise _BadBatch
    cells = _cells(lines, 5)
    is_write = _opcode_flags(cells[:, 1], ("R", "READ"), ("W", "WRITE"))
    if is_write is None:
        raise _BadBatch
    offsets = _int_column(cells[:, 2])
    sizes = _int_column(cells[:, 3])
    timestamps = _int_column(cells[:, 4]) / _MICROSECONDS_PER_SECOND
    if np.any(offsets < 0) or np.any(sizes <= 0):
        raise _BadBatch
    volumes = _stripped_column(cells[:, 0])
    return volumes, timestamps, offsets, sizes, is_write, None


def _parse_msrc_batch(lines: Sequence[str]):
    """Vectorized parse of MSRC lines → column arrays (see AliCloud twin)."""
    for line in lines:
        if line.count(",") != 6:
            raise _BadBatch
    cells = _cells(lines, 7)
    is_write = _opcode_flags(cells[:, 3], ("R", "READ"), ("W", "WRITE"))
    if is_write is None:
        raise _BadBatch
    disks = _int_column(cells[:, 2])
    offsets = _int_column(cells[:, 4])
    sizes = _int_column(cells[:, 5])
    timestamps = _int_column(cells[:, 0]) / _FILETIME_TICKS_PER_SECOND
    response = _int_column(cells[:, 6]) / _FILETIME_TICKS_PER_SECOND
    if np.any(offsets < 0) or np.any(sizes <= 0):
        raise _BadBatch
    # Fused volume-id construction: a batch holds few distinct
    # (host, disk) pairs, so build each "host_disk" string once — one
    # integer unique over pair keys instead of strip + two np.char.add
    # passes over the whole batch.
    uniq_hosts, host_codes = np.unique(cells[:, 1], return_inverse=True)
    lo = int(disks.min())
    stride = int(disks.max()) - lo + 1
    pair_keys, pair_codes = np.unique(
        host_codes.astype(np.int64) * stride + (disks - lo), return_inverse=True
    )
    stripped = np.char.strip(uniq_hosts)
    uniq_volumes = np.array(
        [f"{stripped[key // stride]}_{key % stride + lo}" for key in pair_keys.tolist()]
    )
    volumes = uniq_volumes[pair_codes]
    return volumes, timestamps, offsets, sizes, is_write, response


def _parse_batch_fallback(
    lines: Sequence[str],
    linenos: Sequence[int],
    row_parse: Callable[[str, int], IORequest],
):
    """Row-by-row re-parse of a batch the fast path rejected.

    Raises the row parser's exact :class:`TraceFormatError` for the first
    malformed line; when every line parses (e.g. exotic-but-valid integer
    syntax), returns the same column tuple as the fast path.
    """
    reqs = [row_parse(line, lineno) for line, lineno in zip(lines, linenos)]
    return _columns_from_requests(reqs)


def _parse_batch_salvage(
    lines: Sequence[str],
    linenos: Sequence[int],
    row_parse: Callable[[str, int], IORequest],
    path: str,
    on_error: str,
    errors: Optional[ParseErrors],
    reg: metrics.MetricsRegistry,
):
    """Per-line re-parse that drops malformed lines instead of raising.

    The non-strict twin of :func:`_parse_batch_fallback`: good rows come
    back as the usual column tuple (or None when the whole batch is bad);
    each malformed row is counted and, when ``errors`` is given, recorded
    there (with a sampled :class:`~repro.resilience.QuarantineRecord`
    under the ``quarantine`` policy).
    """
    keep_sample = on_error == ON_ERROR_QUARANTINE
    dropped = reg.counter(
        "engine.lines_quarantined" if keep_sample else "engine.lines_skipped"
    )
    reqs: List[IORequest] = []
    for line, lineno in zip(lines, linenos):
        try:
            reqs.append(row_parse(line, lineno))
        except TraceFormatError as exc:
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


_FORMATS = {
    "alicloud": (_parse_alicloud_batch, _parse_alicloud_line),
    "msrc": (_parse_msrc_batch, _parse_msrc_line),
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


def _open_byte_range(path: str, lo: int, hi: int):
    """A text stream over bytes ``[lo, hi)`` of an uncompressed trace file.

    The range bytes are read in one pass and wrapped in a
    ``TextIOWrapper`` with the same utf-8 + universal-newline semantics
    as :func:`~repro.trace.reader.open_trace_file`, so a line-aligned
    range decodes to exactly the lines a whole-file read would yield
    there.  Ranges are planned at ``split_rows`` granularity (a few MB),
    so one materialized buffer per unit is cheap.
    """
    import io

    with open(path, "rb") as raw:
        raw.seek(lo)
        data = raw.read(max(0, hi - lo))
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def _iter_line_batches(
    path: str,
    chunk_size: int,
    skip_header: bool,
    corrupt: Optional[Callable[[int, str], str]] = None,
    byte_range: Optional[Tuple[int, int]] = None,
    start_lineno: int = 1,
):
    """Yield ``(lines, linenos)`` batches, skipping blanks and the header.

    Mirrors the row readers exactly: blank lines are skipped anywhere and
    the header check applies to physical line 1 only.  ``corrupt`` is the
    fault-injection hook (:func:`repro.faults.line_corruptor`), applied to
    data lines only so injected corruption hits the parsers, not the
    header/blank handling.

    With ``byte_range`` set, only that line-aligned byte slice of the
    file is read (the engine's cold split sub-units); ``start_lineno``
    is the physical line number of the range's first line, so line
    numbering — and with it header detection, fault injection, and error
    messages — is identical to the whole-file pass over the same lines.
    """
    opened = (
        open_trace_file(path)
        if byte_range is None
        else _open_byte_range(path, byte_range[0], byte_range[1])
    )
    with opened as fh:
        lines: List[str] = []
        linenos: List[int] = []
        for lineno, line in enumerate(fh, start=start_lineno):
            if not line.strip():
                continue
            if lineno == 1 and skip_header and _looks_like_header(line):
                continue
            lines.append(line if corrupt is None else corrupt(lineno, line))
            linenos.append(lineno)
            if len(lines) >= chunk_size:
                yield lines, linenos
                lines, linenos = [], []
        if lines:
            yield lines, linenos


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
    (:func:`repro.store.builder.build_entry`): fast-path batch parsing,
    strict row-by-row fallback, and non-strict salvage all happen here,
    so text-path chunks and store-persisted columns are produced by the
    byte-identical machinery.  ``byte_range`` / ``start_lineno`` narrow
    the parse to one line-aligned slice (see :func:`_iter_line_batches`).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    on_error = validate_on_error(on_error)
    try:
        batch_parse, row_parse = _FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format: {fmt!r} (expected 'alicloud' or 'msrc')"
        ) from None
    reg = metrics.get_registry()
    lines_total = reg.counter("parse.lines")
    bytes_total = reg.counter("parse.bytes")
    corrupt = faults.line_corruptor(path)
    for lines, linenos in _iter_line_batches(
        path, chunk_size, skip_header, corrupt,
        byte_range=byte_range, start_lineno=start_lineno,
    ):
        lines_total.inc(len(lines))
        bytes_total.inc(sum(map(len, lines)))
        with span("parse_batch"):
            try:
                columns = batch_parse(lines)
            except _BadBatch:
                reg.counter("parse.fallback_batches").inc()
                reg.counter("parse.fallback_lines").inc(len(lines))
                if on_error == ON_ERROR_STRICT:
                    columns = _parse_batch_fallback(lines, linenos, row_parse)
                else:
                    columns = _parse_batch_salvage(
                        lines, linenos, row_parse, path, on_error, errors, reg
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
    import os

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
    backend: Optional[Any] = None,
) -> TraceDataset:
    """Chunked-parse replacement for :func:`repro.trace.reader.read_dataset_dir`.

    Produces an identical :class:`~repro.trace.dataset.TraceDataset` (same
    volumes, same arrays) but parses each file in columnar batches and can
    fan files out across ``workers`` processes.  It is a fold on the
    engine's file driver (:func:`repro.engine.runner.run_files` runs the
    same one): a column-collecting analyzer keeps every chunk, and the
    merged per-volume columns are concatenated in canonical (file, range)
    order — regardless of worker completion order, split configuration
    or worker count, every volume's arrays are the same bytes.  Volumes
    keep their first appearance in that order (not sorted).  Parse and
    engine metrics land in the caller's current registry at any worker
    count, and ``progress(done, total)`` fires per completed unit.

    Scheduling, ``split_rows``, ``backend`` and fault tolerance are the
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
    import os

    from .runner import _fold_units

    merged, _, _ = _fold_units(
        list_trace_files(directory),
        [_ColumnCollector()],
        errors if errors is not None else RunErrors(policy=on_error),
        fmt=fmt, chunk_size=chunk_size, workers=workers, progress=progress,
        on_error=on_error, retry=retry, unit_timeout=unit_timeout, store=store,
        predicate=predicate, split_rows=split_rows, backend=backend,
    )
    dataset = TraceDataset(name or os.path.basename(os.path.normpath(directory)))
    # Insertion (first-appearance) order, not sorted: volume order reaches
    # the analyze JSON and the float sums in findings.
    for vid, cols in merged[0].items():
        with_rt = bool(cols.response_times)
        dataset.add(
            VolumeTrace(
                vid,
                np.concatenate(cols.timestamps),
                np.concatenate(cols.offsets),
                np.concatenate(cols.sizes),
                np.concatenate(cols.is_write),
                np.concatenate(cols.response_times) if with_rt else None,
            )
        )
    return dataset
