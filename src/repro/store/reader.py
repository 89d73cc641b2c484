"""Serving chunks from store entries — parse never, mmap always.

A warm read maps the entry's ``.npy`` segments read-only
(:func:`open_segment`) and yields :class:`~repro.engine.chunks.Chunk`
views straight off the page cache: zero text decode, zero int casts, and
— for single-volume files (the common layout written by
:func:`repro.trace.writer.write_dataset_dir`) — zero copies until an
analyzer slices.  The chunk stream is *structurally identical* to the
text path at the same ``chunk_size`` (same batch boundaries, same
volume-sorted splits), so engine results are bit-identical.

Each segment is checked before it is mapped: its header bytes must be
the ones ``np.save`` writes for the column's dtype and the manifest's row
count, and its byte size must be that header plus the rows.  A segment
with any other header (another numpy version's layout) is opened with
``np.load`` instead and must still hold the manifest's dtype and row
count.  A segment that fails either check makes the whole entry a
corrupt one: :func:`try_serve` opens the columns before it returns its
iterator, so it can quarantine the entry and rebuild it from source
exactly as ``--verify-store`` does.

Every worker calls :func:`try_serve` itself and opens its own maps;
:class:`~repro.store.config.StoreConfig` is the only store object that
crosses a process pool.
"""

from __future__ import annotations

import io
import os
import shutil
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

import numpy as np

from ..engine.plan import QueryPlan, RowPredicate
from ..obs import metrics
from ..obs.logging import get_logger
from ..resilience import (
    ON_ERROR_QUARANTINE,
    ON_ERROR_STRICT,
    ParseErrors,
    StoreCorruption,
)
from .config import StoreConfig
from .manifest import (
    CODES_FILE,
    COLUMN_FILES,
    RESPONSE_FILE,
    Manifest,
    ZoneMaps,
    compatible_policy,
    entry_dir,
)
from .scrub import EntryIssue, load_current_manifest, verify_entry

if TYPE_CHECKING:  # circular at runtime: engine.chunks lazily imports us
    from ..engine.chunks import Chunk

__all__ = [
    "ENTRY_FRESH",
    "ENTRY_STALE",
    "ENTRY_MISS",
    "ENTRY_INCOMPATIBLE",
    "SegmentMismatch",
    "StoreEntry",
    "entry_status",
    "open_segment",
    "serve_chunks",
    "serve_range",
    "try_serve",
]

_log = get_logger("repro.store")

#: Entry states reported by :func:`entry_status`.
ENTRY_FRESH = "fresh"  # manifest matches the source; policy servable
ENTRY_STALE = "stale"  # entry exists but no longer mirrors the source
ENTRY_MISS = "miss"  # no entry at all
ENTRY_INCOMPATIBLE = "incompatible"  # fresh, but cannot serve this policy


#: Segment filename -> the dtype the builder writes that column with.
_SEGMENT_DTYPES = {
    COLUMN_FILES["timestamps"]: np.dtype(np.float64),
    COLUMN_FILES["offsets"]: np.dtype(np.int64),
    COLUMN_FILES["sizes"]: np.dtype(np.int64),
    COLUMN_FILES["is_write"]: np.dtype(np.bool_),
    RESPONSE_FILE: np.dtype(np.float64),
    CODES_FILE: np.dtype(np.int64),
}


class SegmentMismatch(Exception):
    """A segment that does not hold the column its manifest describes."""

    def __init__(self, issue: EntryIssue) -> None:
        super().__init__(issue.detail)
        self.issue = issue


def _npy_header(dtype: np.dtype, n_rows: int) -> bytes:
    """The header ``np.save`` writes for a 1-D ``dtype`` array of ``n_rows``."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False,
        "shape": (n_rows,),
    })
    return buf.getvalue()


def open_segment(entry: str, filename: str, n_rows: int) -> np.ndarray:
    """Map one column segment read-only, checked against the manifest.

    The common case — the header ``np.save`` wrote for this column's
    dtype and ``n_rows``, and a file of exactly that header plus the
    rows — maps the rows with :class:`numpy.memmap` at the header's end,
    without parsing the header.  Any other header goes through
    ``np.load(..., mmap_mode="r")``, whose array must still have the
    column's dtype (byte order aside) and ``n_rows`` rows.  Either way
    the result is a read-only ``np.memmap``; a missing, short, long or
    mis-shaped segment raises :class:`SegmentMismatch`.
    """
    path = os.path.join(entry, filename)
    dtype = _SEGMENT_DTYPES[filename]
    header = _npy_header(dtype, n_rows)
    try:
        with open(path, "rb") as fh:
            if fh.read(len(header)) == header:
                size = os.fstat(fh.fileno()).st_size
                expected = len(header) + n_rows * dtype.itemsize
                if size != expected:
                    raise SegmentMismatch(EntryIssue(
                        "segment-size", filename,
                        f"{filename} is {size} bytes, its header says {expected}",
                    ))
                return np.memmap(fh, dtype=dtype, mode="r", offset=len(header),
                                 shape=(n_rows,))
        arr = np.load(path, mmap_mode="r")
    except (OSError, ValueError, EOFError) as exc:
        raise SegmentMismatch(
            EntryIssue("segment-unreadable", filename, f"{filename}: {exc}")
        ) from exc
    if arr.shape != (n_rows,) or not np.can_cast(arr.dtype, dtype, casting="equiv"):
        raise SegmentMismatch(EntryIssue(
            "segment-shape", filename,
            f"{filename} holds {arr.dtype.str} {arr.shape}, manifest says "
            f"{dtype.str} ({n_rows},)",
        ))
    return arr


@dataclass(frozen=True)
class StoreEntry:
    """A loaded, freshness-checked store entry for one source file."""

    source: str
    entry: str
    manifest: Manifest


def entry_status(
    path: str,
    store: StoreConfig,
    fmt: str,
    skip_header: bool = True,
    on_error: Optional[str] = None,
) -> Tuple[str, Optional[StoreEntry]]:
    """Classify ``path``'s entry: fresh / stale / miss / incompatible.

    ``on_error=None`` skips the policy-compatibility check (manifest
    consumers like ``repro validate`` decide that themselves).  The
    returned :class:`StoreEntry` accompanies ``fresh`` *and*
    ``incompatible`` (the manifest is valid either way); ``stale`` and
    ``miss`` return ``None``.
    """
    entry = entry_dir(store.dir_for(path), path)
    manifest = load_current_manifest(entry, path)
    if manifest is None:
        return ENTRY_MISS, None
    if (
        not manifest.is_fresh(path)
        or manifest.fmt != fmt
        or manifest.skip_header != skip_header
    ):
        return ENTRY_STALE, None
    loaded = StoreEntry(source=path, entry=entry, manifest=manifest)
    if on_error is not None and not compatible_policy(manifest, on_error):
        return ENTRY_INCOMPATIBLE, loaded
    return ENTRY_FRESH, loaded


def _replay_ledger(
    manifest: Manifest, on_error: str, errors: Optional[ParseErrors]
) -> None:
    """Reproduce the ingest's exact dropped-line accounting for this run."""
    if manifest.dropped == 0 or on_error == ON_ERROR_STRICT:
        return
    keep_sample = on_error == ON_ERROR_QUARANTINE
    metrics.counter(
        "engine.lines_quarantined" if keep_sample else "engine.lines_skipped"
    ).inc(manifest.dropped)
    if errors is None:
        return
    errors.dropped += manifest.dropped
    if keep_sample:
        room = errors.sample_cap - len(errors.sample)
        if room > 0:
            errors.sample.extend(manifest.quarantine[:room])


def _entry_disjoint(manifest: Manifest, predicate: RowPredicate) -> bool:
    """Can the manifest alone prove no row of the entry matches?"""
    if predicate.volumes is not None and not any(
        v in predicate.volumes for v in manifest.volumes
    ):
        return True
    zones = manifest.zones
    if zones is not None:
        whole = zones.window(0, manifest.n_rows)
        if not predicate.overlaps_window(whole.min_ts, whole.max_ts):
            return True
        if not predicate.matches_op_mix(whole.n_rows, whole.n_writes):
            return True
    return False


def _zone_allows(
    zones: Optional[ZoneMaps], lo: int, hi: int, predicate: RowPredicate
) -> bool:
    """Could rows ``[lo, hi)`` contain a predicate match, per zone maps?

    The zone window is a superset of the rows, so False is a proof of
    disjointness; True just means "cannot rule it out".
    """
    if zones is None:
        return True
    window = zones.window(lo, hi)
    return predicate.overlaps_window(
        window.min_ts, window.max_ts
    ) and predicate.matches_op_mix(window.n_rows, window.n_writes)


def _lazy_masked(arr: np.ndarray, lo: int, hi: int, mask: np.ndarray):
    """Deferred masked copy off an mmap — materialized only if an
    analyzer actually reads the column."""

    def thunk() -> np.ndarray:
        return np.asarray(arr[lo:hi])[mask]

    return thunk


def serve_chunks(
    entry: StoreEntry,
    chunk_size: int,
    on_error: str = ON_ERROR_STRICT,
    errors: Optional[ParseErrors] = None,
    plan: Optional[QueryPlan] = None,
) -> Iterator["Chunk"]:
    """Yield the entry's rows as the text path's exact chunk stream.

    Equivalent to :func:`serve_range` over the whole entry — see there
    for the serving semantics and determinism caveats.
    """
    return serve_range(
        entry, 0, entry.manifest.n_rows, chunk_size, on_error, errors, plan=plan
    )


def serve_range(
    entry: StoreEntry,
    lo: int,
    hi: int,
    chunk_size: int,
    on_error: str = ON_ERROR_STRICT,
    errors: Optional[ParseErrors] = None,
    plan: Optional[QueryPlan] = None,
) -> Iterator["Chunk"]:
    """Yield file-order rows ``[lo, hi)`` of the entry as a chunk stream.

    The engine's unit-splitting serve path (and, over the full range, the
    body of :func:`serve_chunks`): only the requested rows are ever
    sliced off the mmap, so a sub-unit's cost is proportional to its
    range, not the file.  ``hi`` is clamped to the entry's row count and
    the range served in ``chunk_size`` batches from ``lo``.

    Single-volume entries yield read-only mmap *views* (zero copy);
    multi-volume entries replicate the text path's stable volume-sorted
    batch split (one fancy-indexed copy per chunk, same as text parsing).

    With a ``plan``, only the plan's columns are opened at all
    (pruned columns never touch the page cache) and the predicate prunes
    rows *before* materialization: disjoint entries and chunks the zone
    maps prove disjoint are skipped unread
    (``plan.files_skipped`` / ``plan.chunks_skipped``), surviving chunks
    are masked with deferred copies, and the served row streams equal
    the unpruned stream post-filtered.

    The columns a serve reads are opened and checked
    (:func:`open_segment`) by this call, so a corrupt segment raises
    :class:`SegmentMismatch` here, before any chunk exists; counters and
    row slicing happen as the returned iterator is consumed.

    Range accounting: metrics and ledgers that describe the *file* are
    charged to the sub-range that owns row 0 exactly once — the dropped-
    line ledger replays and ``plan.files_skipped`` counts only when
    ``lo == 0`` — while per-serve metrics (``store.hits`` per serve,
    ``store.rows`` by ``hi - lo``) accumulate to the same totals as one
    whole-file serve.

    Determinism caveats: on entries with dropped malformed lines the text
    path batches ``chunk_size`` raw *lines* while the store batches
    ``chunk_size`` surviving *rows* — chunk boundaries can differ, but
    the per-volume row streams (the only thing analyzers fold) are
    bit-identical either way, as are the replayed error ledgers; clean
    whole-file serves match boundary-for-boundary.  Range serves batch
    from ``lo``, so their boundaries differ from a whole-file serve by
    construction — same row streams, different chunking (see DESIGN.md
    on what that means for capacity-bounded sketches).
    """
    lo = max(0, int(lo))
    hi = min(int(hi), entry.manifest.n_rows)
    if plan is not None and plan.is_noop():
        plan = None
    predicate = plan.predicate if plan is not None else None
    if hi <= lo or (predicate is not None and _entry_disjoint(entry.manifest, predicate)):
        opened = None
    else:
        opened = _open_columns(entry, plan)
    return _serve_rows(entry, lo, hi, chunk_size, on_error, errors, plan, opened)


_Opened = Tuple[Dict[str, Optional[np.ndarray]], int, Optional[np.ndarray]]


def _open_columns(entry: StoreEntry, plan: Optional[QueryPlan]) -> _Opened:
    """``(columns, pruned, codes)`` of one serve: each ``Chunk`` column,
    checked and mapped, or None where the plan prunes it; the number
    pruned; and the volume codes of a multi-volume entry."""
    manifest = entry.manifest
    wanted = plan.load_columns() if plan is not None else None
    cols: Dict[str, Optional[np.ndarray]] = {}
    pruned = 0
    files = dict(COLUMN_FILES)
    if manifest.has_response:
        files["response_times"] = RESPONSE_FILE
    for name, filename in files.items():
        if wanted is None or name in wanted:
            cols[name] = open_segment(entry.entry, filename, manifest.n_rows)
        else:
            cols[name] = None
            pruned += 1
    cols.setdefault("response_times", None)
    codes = (
        open_segment(entry.entry, CODES_FILE, manifest.n_rows)
        if manifest.has_codes else None
    )
    return cols, pruned, codes


def _serve_rows(
    entry: StoreEntry,
    lo: int,
    hi: int,
    chunk_size: int,
    on_error: str,
    errors: Optional[ParseErrors],
    plan: Optional[QueryPlan],
    opened: Optional[_Opened],
) -> Iterator["Chunk"]:
    """The chunk stream of :func:`serve_range` over its opened columns
    (``opened`` is None when no row can be served)."""
    from ..engine.chunks import Chunk

    manifest = entry.manifest
    reg = metrics.get_registry()
    if lo == 0:
        _replay_ledger(manifest, on_error, errors)
    reg.counter("store.hits").inc()
    reg.counter("store.rows").inc(max(0, hi - lo))
    if hi <= lo:
        return
    predicate = plan.predicate if plan is not None else None
    if opened is None:
        if lo == 0:
            reg.counter("plan.files_skipped").inc()
        reg.counter("plan.rows_pruned").inc(hi - lo)
        return
    cols, pruned_cols, codes = opened
    n = manifest.n_rows
    reg.counter("store.mmap_bytes").inc(
        sum(int(a.nbytes) for a in cols.values() if a is not None)
    )
    chunks_total = reg.counter("store.chunks")
    rows_served = reg.counter("plan.rows_served")
    rows_pruned = reg.counter("plan.rows_pruned")
    chunks_skipped = reg.counter("plan.chunks_skipped")
    columns_pruned = reg.counter("plan.columns_pruned")
    zones = manifest.zones

    def batch_mask(lo: int, hi: int) -> Optional[np.ndarray]:
        """Predicate keep-mask over file-order rows [lo, hi) (None=all)."""
        assert predicate is not None
        return predicate.row_mask(
            np.asarray(cols["timestamps"][lo:hi]) if predicate.needs_timestamps else None,
            np.asarray(cols["is_write"][lo:hi]) if predicate.needs_ops else None,
        )

    if not manifest.has_codes:
        volume_id = manifest.volumes[0]
        for b_lo in range(lo, hi, chunk_size):
            b_hi = min(b_lo + chunk_size, hi)
            if predicate is not None and not _zone_allows(zones, b_lo, b_hi, predicate):
                chunks_skipped.inc()
                rows_pruned.inc(b_hi - b_lo)
                continue
            mask = batch_mask(b_lo, b_hi) if predicate is not None else None
            kept = b_hi - b_lo
            if mask is not None:
                kept = int(np.count_nonzero(mask))
                if kept == 0:
                    chunks_skipped.inc()
                    rows_pruned.inc(b_hi - b_lo)
                    continue
                if kept == b_hi - b_lo:
                    mask = None
                else:
                    rows_pruned.inc(b_hi - b_lo - kept)
            chunks_total.inc()
            if plan is not None:
                rows_served.inc(kept)
                if pruned_cols:
                    columns_pruned.inc(pruned_cols)
            if mask is None:
                yield Chunk(
                    volume_id,
                    n_rows=kept,
                    **{
                        name: None if arr is None else arr[b_lo:b_hi]
                        for name, arr in cols.items()
                    },
                )
            else:
                yield Chunk(
                    volume_id,
                    n_rows=kept,
                    **{
                        name: None if arr is None else _lazy_masked(arr, b_lo, b_hi, mask)
                        for name, arr in cols.items()
                    },
                )
        return

    assert codes is not None
    # Volume predicates narrow the scanned row range to the hull of the
    # wanted volumes' rows (chunks wholly outside skip unread) and mask
    # rows of unwanted volumes inside it.
    row_lo, row_hi = 0, n
    allowed: Optional[np.ndarray] = None
    if predicate is not None and predicate.volumes is not None:
        vset = set(predicate.volumes)
        allowed = np.array([v in vset for v in manifest.volumes], dtype=bool)
        spans = [
            manifest.volume_rows[v] for v in vset if v in manifest.volume_rows
        ]
        if spans:
            row_lo = min(span[0] for span in spans)
            row_hi = max(span[1] for span in spans) + 1
    for b_lo in range(lo, hi, chunk_size):
        b_hi = min(b_lo + chunk_size, hi)
        if predicate is not None and (
            b_hi <= row_lo or b_lo >= row_hi
            or not _zone_allows(zones, b_lo, b_hi, predicate)
        ):
            chunks_skipped.inc()
            rows_pruned.inc(b_hi - b_lo)
            continue
        batch = np.asarray(codes[b_lo:b_hi])
        keep = batch_mask(b_lo, b_hi) if predicate is not None else None
        if allowed is not None:
            vmask = allowed[batch]
            keep = vmask if keep is None else keep & vmask
        if keep is not None:
            kept_rows = int(np.count_nonzero(keep))
            if kept_rows == 0:
                chunks_skipped.inc()
                rows_pruned.inc(b_hi - b_lo)
                continue
            rows_pruned.inc(b_hi - b_lo - kept_rows)
        order = np.argsort(batch, kind="stable")
        sorted_codes = batch[order]
        boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
        for seg in np.split(order, boundaries):
            vid = manifest.volumes[int(batch[seg[0]])]
            if keep is not None:
                seg = seg[keep[seg]]
                if len(seg) == 0:
                    chunks_skipped.inc()
                    continue
            idx = seg + b_lo
            chunks_total.inc()
            if plan is not None:
                rows_served.inc(len(seg))
                if pruned_cols:
                    columns_pruned.inc(pruned_cols)
            yield Chunk(
                vid,
                n_rows=len(seg),
                **{
                    name: None if arr is None else arr[idx]
                    for name, arr in cols.items()
                },
            )


def _quarantine_entry(entry: StoreEntry, issues) -> StoreCorruption:
    """Move a corrupt entry aside so nothing ever serves it again.

    The entry directory is renamed to ``<entry>.corrupt-<pid>`` —
    preserved for forensics, invisible to every reader (no manifest at
    the entry path) and to the scrub walk (listed separately).  When the
    rename itself fails the entry is deleted outright: a corrupt entry
    that stays serveable is the one unacceptable outcome.
    """
    target: Optional[str] = f"{entry.entry}.corrupt-{os.getpid()}"
    try:
        if target is not None and os.path.isdir(target):
            # Same process quarantined this entry before; one forensic
            # copy is enough.
            shutil.rmtree(target)
        os.rename(entry.entry, target)
    except OSError as exc:
        _log.warning("store_quarantine_rename_failed", entry=entry.entry, error=repr(exc))
        shutil.rmtree(entry.entry, ignore_errors=True)
        target = None
    corruption = StoreCorruption(
        file=entry.source,
        entry=entry.entry,
        issues=tuple(issue.detail for issue in issues),
        quarantined_to=target,
    )
    metrics.counter("store.corrupt_entries").inc()
    _log.warning(
        "store_entry_quarantined",
        path=entry.source,
        entry=entry.entry,
        quarantined_to=target,
        issues=list(corruption.issues),
    )
    return corruption


def try_serve(
    path: str,
    fmt: str,
    chunk_size: int,
    skip_header: bool,
    on_error: str,
    errors: Optional[ParseErrors],
    store: StoreConfig,
    plan: Optional[QueryPlan] = None,
    row_range: Optional[Tuple[int, int]] = None,
) -> Optional[Iterator["Chunk"]]:
    """The engine's store fast path: serve, build-then-serve, or decline.

    Returns a chunk iterator on a hit (or after transparent on-first-use
    ingest when ``store.build`` is set), or ``None`` when the caller
    should fall back to text parsing.  A ``strict`` build of a malformed
    file raises the parser's exact ``TraceFormatError`` — the same
    behavior, message, and line number as the text path.  ``plan`` (when
    given) is pushed down into :func:`serve_chunks`.

    With ``row_range`` set, only file-order rows ``[lo, hi)`` are served
    (:func:`serve_range` — the engine's split sub-units).  The entry
    acquisition is identical — verify, self-heal, build on miss — so a
    sub-unit is exactly as durable as a whole-file serve; with
    ``store.verify``, each sub-unit of a file re-verifies the entry it
    serves from.  ``None`` still means "no servable entry", and a range
    caller has no text fallback (row coordinates exist only in store
    space) — it must treat ``None`` as an error.

    Every serve checks the header and byte size of each column it opens
    (:func:`open_segment`) before returning its iterator; with
    ``store.verify`` set, a fresh entry is also deep-verified (sha256 per
    segment) first.  A corrupt entry is quarantined (renamed aside),
    recorded as a :class:`~repro.resilience.StoreCorruption` in
    ``errors``, and — the source text file necessarily still matching its
    stamp, or the entry would have been stale — **self-healed** by
    rebuilding from source, exactly like a miss.  Results are identical
    to a never-corrupted run.
    """

    def serve(loaded: StoreEntry) -> Iterator["Chunk"]:
        if row_range is not None:
            return serve_range(
                loaded, row_range[0], row_range[1], chunk_size, on_error, errors,
                plan=plan,
            )
        return serve_chunks(loaded, chunk_size, on_error, errors, plan=plan)

    reg = metrics.get_registry()
    status, entry = entry_status(path, store, fmt, skip_header, on_error)
    corruption: Optional[StoreCorruption] = None
    if status == ENTRY_FRESH and entry is not None:
        issues = verify_entry(entry.entry, entry.manifest, deep=True) if store.verify else []
        if not issues:
            try:
                served = serve(entry)
            except SegmentMismatch as exc:
                issues = [exc.issue]
            else:
                if store.verify:
                    reg.counter("store.entries_verified").inc()
                return served
        corruption = _quarantine_entry(entry, issues)
        # Fall through: a quarantined entry is now a rebuildable miss.
    if corruption is None:
        reg.counter("store.misses").inc()
        if status == ENTRY_STALE:
            reg.counter("store.stale_entries").inc()
    if not store.build or (corruption is not None and not os.path.isfile(path)):
        if corruption is not None and errors is not None:
            errors.store_events.append(corruption)
        return None
    from .builder import build_entry

    try:
        entry_path, manifest = build_entry(
            path, fmt=fmt, store_dir=store.dir, chunk_size=chunk_size,
            skip_header=skip_header, on_error=on_error,
        )
    except OSError as exc:
        # An unwritable or full store must never fail the analysis —
        # count it, say so, and let the text path take over.
        reg.counter("store.build_errors").inc()
        _log.warning("store_build_failed", path=path, error=repr(exc))
        if corruption is not None and errors is not None:
            errors.store_events.append(corruption)
        return None
    if corruption is not None:
        corruption = replace(corruption, healed=True)
        if errors is not None:
            errors.store_events.append(corruption)
        reg.counter("store.self_healed").inc()
        _log.info("store_entry_healed", path=path, entry=entry_path)
    built = StoreEntry(source=path, entry=entry_path, manifest=manifest)
    if not compatible_policy(manifest, on_error):
        # A concurrent builder won the swap race with a policy we cannot
        # serve; parsing text is always correct.
        return None
    return serve(built)
