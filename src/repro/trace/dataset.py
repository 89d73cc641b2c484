"""Columnar containers for block-level I/O traces.

:class:`VolumeTrace` stores one volume's requests as parallel numpy arrays
sorted by timestamp, which keeps multi-million-request analyses vectorized.
:class:`TraceDataset` groups the volumes of one collection (e.g. the
AliCloud fleet) and provides fleet-level accessors.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .record import IORequest, OpType

__all__ = ["VolumeTrace", "TraceDataset"]


class VolumeTrace:
    """All requests of a single volume, in columnar time order.

    The canonical construction paths are :meth:`from_requests` (row
    records) and :meth:`from_arrays` (already-columnar data).  Arrays are
    copied defensively only when they need sorting or dtype conversion.

    Attributes:
        volume_id: identifier of the volume.
        capacity: advertised volume capacity in bytes, if known.
        timestamps: float64 array of arrival times (seconds), non-decreasing.
        offsets: int64 array of starting byte offsets.
        sizes: int64 array of request lengths in bytes.
        is_write: bool array, True for writes.
        response_times: optional float64 array of service times (seconds).
    """

    __slots__ = (
        "volume_id",
        "capacity",
        "timestamps",
        "offsets",
        "sizes",
        "is_write",
        "response_times",
    )

    def __init__(
        self,
        volume_id: str,
        timestamps: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        is_write: np.ndarray,
        response_times: Optional[np.ndarray] = None,
        capacity: Optional[int] = None,
        *,
        presorted: bool = False,
    ) -> None:
        timestamps = np.asarray(timestamps, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        n = len(timestamps)
        if not (len(offsets) == len(sizes) == len(is_write) == n):
            raise ValueError("column arrays must have equal length")
        if response_times is not None:
            response_times = np.asarray(response_times, dtype=np.float64)
            if len(response_times) != n:
                raise ValueError("response_times length mismatch")
        if n and np.any(sizes <= 0):
            raise ValueError("all request sizes must be positive")
        if n and np.any(offsets < 0):
            raise ValueError("all offsets must be non-negative")
        if not presorted and n and np.any(np.diff(timestamps) < 0):
            order = np.argsort(timestamps, kind="stable")
            timestamps = timestamps[order]
            offsets = offsets[order]
            sizes = sizes[order]
            is_write = is_write[order]
            if response_times is not None:
                response_times = response_times[order]
        self.volume_id = volume_id
        self.capacity = capacity
        self.timestamps = timestamps
        self.offsets = offsets
        self.sizes = sizes
        self.is_write = is_write
        self.response_times = response_times

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_requests(
        cls,
        volume_id: str,
        requests: Iterable[IORequest],
        capacity: Optional[int] = None,
    ) -> "VolumeTrace":
        """Build a trace from row records (all must belong to ``volume_id``)."""
        reqs = list(requests)
        for r in reqs:
            if r.volume != volume_id:
                raise ValueError(
                    f"request for volume {r.volume!r} passed to trace {volume_id!r}"
                )
        has_rt = any(r.response_time is not None for r in reqs)
        response_times = None
        if has_rt:
            response_times = np.array(
                [r.response_time if r.response_time is not None else np.nan for r in reqs],
                dtype=np.float64,
            )
        return cls(
            volume_id,
            np.array([r.timestamp for r in reqs], dtype=np.float64),
            np.array([r.offset for r in reqs], dtype=np.int64),
            np.array([r.size for r in reqs], dtype=np.int64),
            np.array([r.is_write for r in reqs], dtype=bool),
            response_times,
            capacity,
        )

    @classmethod
    def from_arrays(
        cls,
        volume_id: str,
        timestamps: Sequence[float],
        offsets: Sequence[int],
        sizes: Sequence[int],
        is_write: Sequence[bool],
        response_times: Optional[Sequence[float]] = None,
        capacity: Optional[int] = None,
    ) -> "VolumeTrace":
        """Build a trace from columnar data (sorted by timestamp if needed)."""
        return cls(
            volume_id,
            np.asarray(timestamps),
            np.asarray(offsets),
            np.asarray(sizes),
            np.asarray(is_write),
            None if response_times is None else np.asarray(response_times),
            capacity,
        )

    @classmethod
    def empty(cls, volume_id: str, capacity: Optional[int] = None) -> "VolumeTrace":
        """An empty trace (no requests)."""
        z = np.array([], dtype=np.float64)
        return cls(volume_id, z, z.astype(np.int64), z.astype(np.int64), z.astype(bool), None, capacity)

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def n_requests(self) -> int:
        return len(self.timestamps)

    @property
    def n_reads(self) -> int:
        return len(self) - self.n_writes

    @property
    def n_writes(self) -> int:
        return int(np.count_nonzero(self.is_write))

    @property
    def read_bytes(self) -> int:
        """Total bytes read (read traffic)."""
        return self.total_bytes - self.write_bytes

    @property
    def write_bytes(self) -> int:
        """Total bytes written (write traffic)."""
        # An exact int64 sum that casts the mask in buffered blocks, no copy.
        return int(np.einsum("i,i->", self.sizes, self.is_write, dtype=np.int64))

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    @property
    def start_time(self) -> float:
        if not len(self):
            raise ValueError("empty trace has no start time")
        return float(self.timestamps[0])

    @property
    def end_time(self) -> float:
        if not len(self):
            raise ValueError("empty trace has no end time")
        return float(self.timestamps[-1])

    @property
    def duration(self) -> float:
        """Elapsed time between first and last request (seconds)."""
        return self.end_time - self.start_time

    # -- views & slices ----------------------------------------------------

    def select(self, mask: np.ndarray) -> "VolumeTrace":
        """New trace containing only rows where ``mask`` is True."""
        return VolumeTrace(
            self.volume_id,
            self.timestamps[mask],
            self.offsets[mask],
            self.sizes[mask],
            self.is_write[mask],
            None if self.response_times is None else self.response_times[mask],
            self.capacity,
            presorted=True,
        )

    def reads(self) -> "VolumeTrace":
        """Sub-trace of read requests only."""
        return self.select(~self.is_write)

    def writes(self) -> "VolumeTrace":
        """Sub-trace of write requests only."""
        return self.select(self.is_write)

    def time_slice(self, t0: float, t1: float) -> "VolumeTrace":
        """Sub-trace of requests with ``t0 <= timestamp < t1``."""
        lo = int(np.searchsorted(self.timestamps, t0, side="left"))
        hi = int(np.searchsorted(self.timestamps, t1, side="left"))
        return self.select(slice(lo, hi))

    def iter_requests(self) -> Iterator[IORequest]:
        """Yield row records (slow path; prefer the column arrays)."""
        rt = self.response_times
        for i in range(len(self)):
            yield IORequest(
                volume=self.volume_id,
                op=OpType.WRITE if self.is_write[i] else OpType.READ,
                offset=int(self.offsets[i]),
                size=int(self.sizes[i]),
                timestamp=float(self.timestamps[i]),
                response_time=None if rt is None or np.isnan(rt[i]) else float(rt[i]),
            )

    def __repr__(self) -> str:
        return (
            f"VolumeTrace({self.volume_id!r}, n={len(self)}, "
            f"reads={self.n_reads}, writes={self.n_writes})"
        )


class TraceDataset:
    """A named collection of volume traces (one production fleet).

    Behaves as a mapping from volume id to :class:`VolumeTrace` with
    fleet-level convenience accessors used throughout the analysis.
    """

    def __init__(self, name: str, volumes: Optional[Mapping[str, VolumeTrace]] = None) -> None:
        self.name = name
        self._volumes: Dict[str, VolumeTrace] = dict(volumes or {})

    # -- mapping protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._volumes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._volumes)

    def __contains__(self, volume_id: str) -> bool:
        return volume_id in self._volumes

    def __getitem__(self, volume_id: str) -> VolumeTrace:
        return self._volumes[volume_id]

    def add(self, trace: VolumeTrace) -> None:
        """Add a volume trace; volume ids must be unique within a dataset."""
        if trace.volume_id in self._volumes:
            raise ValueError(f"duplicate volume id: {trace.volume_id!r}")
        self._volumes[trace.volume_id] = trace

    def clear(self) -> None:
        """Remove every volume."""
        self._volumes.clear()

    def volume_ids(self) -> List[str]:
        return list(self._volumes)

    def volumes(self) -> List[VolumeTrace]:
        return list(self._volumes.values())

    def items(self) -> Iterable[Tuple[str, VolumeTrace]]:
        return self._volumes.items()

    def non_empty_volumes(self) -> List[VolumeTrace]:
        """Volumes with at least one request."""
        return [v for v in self._volumes.values() if len(v)]

    # -- fleet-level statistics ----------------------------------------------

    @property
    def n_volumes(self) -> int:
        return len(self._volumes)

    @property
    def n_requests(self) -> int:
        return sum(len(v) for v in self._volumes.values())

    @property
    def n_reads(self) -> int:
        return sum(v.n_reads for v in self._volumes.values())

    @property
    def n_writes(self) -> int:
        return sum(v.n_writes for v in self._volumes.values())

    @property
    def read_bytes(self) -> int:
        return sum(v.read_bytes for v in self._volumes.values())

    @property
    def write_bytes(self) -> int:
        return sum(v.write_bytes for v in self._volumes.values())

    @property
    def total_bytes(self) -> int:
        return sum(v.total_bytes for v in self._volumes.values())

    @property
    def start_time(self) -> float:
        vols = self.non_empty_volumes()
        if not vols:
            raise ValueError("dataset has no requests")
        return min(v.start_time for v in vols)

    @property
    def end_time(self) -> float:
        vols = self.non_empty_volumes()
        if not vols:
            raise ValueError("dataset has no requests")
        return max(v.end_time for v in vols)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def subset(self, volume_ids: Iterable[str], name: Optional[str] = None) -> "TraceDataset":
        """New dataset restricted to the given volume ids."""
        ids = list(volume_ids)
        missing = [i for i in ids if i not in self._volumes]
        if missing:
            raise KeyError(f"unknown volume ids: {missing}")
        return TraceDataset(name or self.name, {i: self._volumes[i] for i in ids})

    def __repr__(self) -> str:
        return (
            f"TraceDataset({self.name!r}, volumes={self.n_volumes}, "
            f"requests={self.n_requests})"
        )
