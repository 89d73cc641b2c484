"""Store ingest: parse a trace file once, persist it as columnar segments.

The builder reuses the engine's exact batch parsers
(:func:`repro.engine.chunks._iter_batch_columns` — fast path, row-by-row
fallback, and salvage policies included), so the columns it persists are
bit-identical to what a text-path run would have produced under the same
error policy.  Segments land as ``.npy`` files (no pickling) inside a
per-file entry directory; the manifest is written last and the whole
entry is swapped into place atomically, so readers only ever see complete
entries.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .. import faults
from ..obs import metrics
from ..obs.logging import get_logger
from ..resilience import ON_ERROR_QUARANTINE, ON_ERROR_STRICT, ParseErrors, validate_on_error
from .config import StoreConfig
from .manifest import (
    CODES_FILE,
    COLUMN_FILES,
    MANIFEST_NAME,
    RESPONSE_FILE,
    Manifest,
    SourceStamp,
    ZoneMaps,
    compatible_policy,
    entry_dir,
)
from .scrub import load_current_manifest

__all__ = ["build_entry", "ingest_file", "ingest_dir", "IngestFileReport"]

_log = get_logger("repro.store")


class _ColumnBuffers:
    """Growing file-order column fragments plus the volume-code map."""

    def __init__(self) -> None:
        self.timestamps: List[np.ndarray] = []
        self.offsets: List[np.ndarray] = []
        self.sizes: List[np.ndarray] = []
        self.is_write: List[np.ndarray] = []
        self.response: List[Optional[np.ndarray]] = []
        self.codes: List[np.ndarray] = []
        self.vol_index: Dict[str, int] = {}  # volume id -> first-seen code

    def add(self, columns: Tuple) -> None:
        volumes, timestamps, offsets, sizes, is_write, response = columns
        self.timestamps.append(np.asarray(timestamps, dtype=np.float64))
        self.offsets.append(np.asarray(offsets, dtype=np.int64))
        self.sizes.append(np.asarray(sizes, dtype=np.int64))
        self.is_write.append(np.asarray(is_write, dtype=bool))
        self.response.append(
            None if response is None else np.asarray(response, dtype=np.float64)
        )
        uniq, inverse = np.unique(np.asarray(volumes), return_inverse=True)
        batch_codes = np.array(
            [self.vol_index.setdefault(str(u), len(self.vol_index)) for u in uniq.tolist()],
            dtype=np.int64,
        )
        self.codes.append(batch_codes[inverse])

    def finalize(self):
        """Concatenate fragments; remap codes to sorted-volume-id order."""
        n = sum(len(part) for part in self.timestamps)
        timestamps = _concat(self.timestamps, np.float64)
        offsets = _concat(self.offsets, np.int64)
        sizes = _concat(self.sizes, np.int64)
        is_write = _concat(self.is_write, np.bool_)
        response: Optional[np.ndarray] = None
        if any(part is not None for part in self.response):
            filled = [
                part
                if part is not None
                else np.full(len(ts), np.nan, dtype=np.float64)
                for part, ts in zip(self.response, self.timestamps)
            ]
            response = _concat(filled, np.float64)
        ids = sorted(self.vol_index)
        remap = np.empty(max(len(ids), 1), dtype=np.int64)
        for new_code, vid in enumerate(ids):
            remap[self.vol_index[vid]] = new_code
        codes = remap[_concat(self.codes, np.int64)] if n else _concat(self.codes, np.int64)
        return timestamps, offsets, sizes, is_write, response, codes, ids


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    parts = [p for p in parts if p is not None and len(p)]
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts)


def _zone_maps(
    timestamps: np.ndarray,
    offsets: np.ndarray,
    is_write: np.ndarray,
    zone_rows: int,
) -> Optional[ZoneMaps]:
    """Per-``zone_rows``-span statistics for the manifest (None if empty)."""
    n = len(timestamps)
    if n == 0:
        return None
    zones = ZoneMaps(
        zone_rows=zone_rows, min_ts=[], max_ts=[], min_off=[], max_off=[],
        n_rows=[], n_writes=[],
    )
    for lo in range(0, n, zone_rows):
        s = slice(lo, min(lo + zone_rows, n))
        zones.min_ts.append(float(timestamps[s].min()))
        zones.max_ts.append(float(timestamps[s].max()))
        zones.min_off.append(int(offsets[s].min()))
        zones.max_off.append(int(offsets[s].max()))
        zones.n_rows.append(int(s.stop - s.start))
        zones.n_writes.append(int(np.count_nonzero(is_write[s])))
    return zones


def _volume_rows(codes: np.ndarray, ids: List[str], n: int) -> Dict[str, List[int]]:
    """``volume id -> [first, last]`` file-order row index per volume."""
    if n == 0:
        return {}
    if len(ids) == 1:
        return {ids[0]: [0, n - 1]}
    spans: Dict[str, List[int]] = {}
    for code, vid in enumerate(ids):
        rows = np.flatnonzero(codes == code)
        if len(rows):
            spans[vid] = [int(rows[0]), int(rows[-1])]
    return spans


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid still running (or unprobeable)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        # Exists but owned by someone else, or unprobeable: assume alive.
        return True
    return True


#: Store directories this process has already swept for abandoned builds.
_swept_dirs: Set[str] = set()


def _clean_stale_tmp(store_dir: str) -> None:
    """Remove abandoned ``<entry>.tmp-<pid>`` dirs whose builder died.

    A SIGKILL mid-build leaves the temp directory behind (the ``except``
    cleanup never runs); the manifest-last discipline means it holds no
    entry a reader would trust, but it wastes disk forever.  The first
    build of a process in a store directory sweeps that directory's temp
    dirs whose owning pid is gone — live pids are left alone (a
    concurrent build in flight).  Later builds there skip the sweep, so
    an ingest lists the directory once, not once per entry.
    """
    key = os.path.abspath(store_dir)
    if key in _swept_dirs:
        return
    _swept_dirs.add(key)
    try:
        names = os.listdir(store_dir)
    except OSError:
        return
    own = str(os.getpid())
    for name in names:
        _, sep, suffix = name.rpartition(".tmp-")
        if sep and suffix.isdigit() and suffix != own and not _pid_alive(int(suffix)):
            _log.info("store_stale_tmp_removed", path=os.path.join(store_dir, name))
            shutil.rmtree(os.path.join(store_dir, name), ignore_errors=True)


def _swap_into_place(tmp: str, entry: str) -> bool:
    """Move a fully built tmp entry to its final name; False on a lost race."""
    if os.path.isdir(entry):
        shutil.rmtree(entry)
    try:
        os.rename(tmp, entry)
    except OSError:
        # Another process rebuilt the entry between rmtree and rename; its
        # entry is as good as ours (same source, same key) — yield to it.
        shutil.rmtree(tmp, ignore_errors=True)
        return False
    return True


def build_entry(
    path: str,
    fmt: str = "alicloud",
    store_dir: Optional[str] = None,
    chunk_size: Optional[int] = None,
    skip_header: bool = True,
    on_error: str = ON_ERROR_STRICT,
) -> Tuple[str, Manifest]:
    """Parse ``path`` once and persist it as a store entry.

    Under ``on_error="strict"`` a malformed line raises the parser's
    exact :class:`~repro.trace.reader.TraceFormatError` and no entry is
    written; under ``skip``/``quarantine`` the dropped-line ledger is
    persisted in the manifest so warm runs replay exact error counts.

    Returns ``(entry_dir, manifest)`` of the entry now in place (ours, or
    a concurrent builder's equivalent one if we lost the swap race).
    """
    from ..engine.chunks import DEFAULT_CHUNK_SIZE, _iter_batch_columns

    on_error = validate_on_error(on_error)
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    reg = metrics.get_registry()
    start = perf_counter()
    stamp = SourceStamp.of(path)
    parse_errors = ParseErrors() if on_error != ON_ERROR_STRICT else None
    fallback_before = reg.counter("parse.fallback_batches").value
    buffers = _ColumnBuffers()
    for columns in _iter_batch_columns(
        path, fmt=fmt, chunk_size=chunk_size, skip_header=skip_header,
        on_error=on_error, errors=parse_errors,
    ):
        buffers.add(columns)
    timestamps, offsets, sizes, is_write, response, codes, ids = buffers.finalize()

    manifest = Manifest(
        source=stamp,
        fmt=fmt,
        skip_header=skip_header,
        on_error=on_error,
        n_rows=len(timestamps),
        volumes=ids,
        has_response=response is not None,
        has_codes=len(ids) > 1,
        dropped=parse_errors.dropped if parse_errors is not None else 0,
        quarantine=list(parse_errors.sample) if parse_errors is not None else [],
        fallback_batches=int(reg.counter("parse.fallback_batches").value - fallback_before),
        # Zone spans match the ingest batch size: on clean single-volume
        # files served at the same chunk_size, one zone == one chunk, so
        # zone-map skipping is exact (not just a superset bound) there.
        zones=_zone_maps(timestamps, offsets, is_write, chunk_size),
        volume_rows=_volume_rows(codes, ids, len(timestamps)),
    )

    entry_parent = StoreConfig(dir=store_dir).dir_for(path)
    entry = entry_dir(entry_parent, path)
    _clean_stale_tmp(entry_parent)
    tmp = f"{entry}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        arrays = {
            COLUMN_FILES["timestamps"]: timestamps,
            COLUMN_FILES["offsets"]: offsets,
            COLUMN_FILES["sizes"]: sizes,
            COLUMN_FILES["is_write"]: is_write,
        }
        if response is not None:
            arrays[RESPONSE_FILE] = response
        if manifest.has_codes:
            arrays[CODES_FILE] = codes
        written = 0
        for filename, array in arrays.items():
            target = os.path.join(tmp, filename)
            sha = hashlib.sha256()
            with open(target, "wb") as fh:
                np.save(fh, array, allow_pickle=False)
            with open(target, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(block)
            size = os.path.getsize(target)
            manifest.column_bytes[filename] = size
            manifest.column_hashes[filename] = sha.hexdigest()
            written += size
        # The drill's worst-case crash point: columns durable, manifest
        # (the commit record) not yet written — the entry must stay
        # invisible to every reader.
        faults.inject_ingest_fault(path)
        with open(os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json() + "\n")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if not _swap_into_place(tmp, entry):
        winner = Manifest.load(entry)
        if winner is not None:
            manifest = winner
    reg.counter("store.entries_built").inc()
    reg.counter("store.bytes_written").inc(written)
    reg.histogram("store.build_seconds").observe(perf_counter() - start)
    _log.debug(
        "store_entry_built", path=path, entry=entry, rows=manifest.n_rows,
        volumes=len(manifest.volumes), dropped=manifest.dropped,
    )
    return entry, manifest


@dataclass(frozen=True)
class IngestFileReport:
    """Outcome of ingesting one trace file."""

    path: str
    entry: str
    built: bool  # False when a fresh, policy-compatible entry was reused
    n_rows: int
    n_volumes: int
    dropped: int

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def ingest_file(
    path: str,
    fmt: str = "alicloud",
    store_dir: Optional[str] = None,
    chunk_size: Optional[int] = None,
    on_error: str = ON_ERROR_QUARANTINE,
    force: bool = False,
) -> IngestFileReport:
    """Ensure ``path`` has a fresh store entry; build one when needed.

    Module-level (picklable) so directory ingests fan files out across a
    process pool.  A fresh entry whose build policy can serve ``on_error``
    is reused as-is unless ``force`` is set.
    """
    entry = entry_dir(StoreConfig(dir=store_dir).dir_for(path), path)
    if not force:
        manifest = load_current_manifest(entry, path)
        if (
            manifest is not None
            and manifest.is_fresh(path)
            and compatible_policy(manifest, on_error)
        ):
            metrics.counter("store.ingest_reused").inc()
            return IngestFileReport(
                path=path, entry=entry, built=False, n_rows=manifest.n_rows,
                n_volumes=len(manifest.volumes), dropped=manifest.dropped,
            )
    entry, manifest = build_entry(
        path, fmt=fmt, store_dir=store_dir, chunk_size=chunk_size, on_error=on_error
    )
    return IngestFileReport(
        path=path, entry=entry, built=True, n_rows=manifest.n_rows,
        n_volumes=len(manifest.volumes), dropped=manifest.dropped,
    )


def ingest_dir(
    directory: str,
    fmt: str = "alicloud",
    store_dir: Optional[str] = None,
    chunk_size: Optional[int] = None,
    workers: int = 1,
    on_error: str = ON_ERROR_QUARANTINE,
    force: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[IngestFileReport]:
    """Ingest every trace file of a directory (``repro ingest``).

    Files fan out across ``workers`` processes; each worker parses and
    writes its own entries, so nothing large crosses the pool.  Files
    dispatch biggest-first (LPT — the largest parse can't land last and
    serialize the tail of the ingest); reports come back in sorted-path
    order regardless of completion or dispatch order.
    """
    from ..engine.chunks import list_trace_files
    from ..engine.runner import parallel_map
    from ..engine.units import file_cost

    files = list_trace_files(directory)
    return list(
        parallel_map(
            ingest_file,
            files,
            workers,
            progress=progress,
            priorities=[file_cost(f) for f in files],
            fmt=fmt,
            store_dir=store_dir,
            chunk_size=chunk_size,
            on_error=on_error,
            force=force,
        )
    )
