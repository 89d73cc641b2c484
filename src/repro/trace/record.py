"""Core record types for block-level I/O traces.

A trace is a time-ordered sequence of :class:`IORequest` records, each
describing one block-level read or write issued by a volume.  These types
mirror the fields recorded by the AliCloud traces released with the paper
(volume id, opcode, offset, length, timestamp); the MSRC traces carry the
same fields plus a response time, which we preserve when available.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["OpType", "IORequest", "SECTOR_SIZE", "DEFAULT_BLOCK_SIZE"]

#: Granularity at which devices address data; offsets/sizes in real traces
#: are multiples of this.
SECTOR_SIZE = 512

#: Default block granularity (bytes) used for block-level metrics (working
#: sets, read-/write-mostly classification, cache simulation).  4 KiB is the
#: conventional choice for flash-backed cloud block storage.
DEFAULT_BLOCK_SIZE = 4096

#: Largest byte a request may touch: columns and block math are int64.
_INT64_MAX = 2**63 - 1


class OpType(enum.Enum):
    """I/O request type."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def parse(cls, token: str) -> "OpType":
        """Parse an opcode token from a trace file.

        Accepts the single-letter AliCloud opcodes (``R``/``W``) and the
        MSRC words (``Read``/``Write``), case-insensitively.

        Raises:
            ValueError: if the token is not a recognized opcode.
        """
        t = token.strip().upper()
        if t in ("R", "READ"):
            return cls.READ
        if t in ("W", "WRITE"):
            return cls.WRITE
        raise ValueError(f"unrecognized opcode: {token!r}")

    @property
    def is_write(self) -> bool:
        return self is OpType.WRITE


@dataclass(frozen=True)
class IORequest:
    """One block-level I/O request.

    Attributes:
        volume: identifier of the volume (virtual disk) issuing the request.
        op: request type (read or write).
        offset: starting byte offset within the volume.
        size: request length in bytes (strictly positive).
        timestamp: arrival time in seconds (float, trace-relative or epoch).
        response_time: optional service time in seconds (MSRC records it;
            AliCloud does not).
    """

    volume: str
    op: OpType
    offset: int
    size: int
    timestamp: float
    response_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"negative offset: {self.offset}")
        if self.size <= 0:
            raise ValueError(f"non-positive size: {self.size}")
        if self.size > _INT64_MAX or self.offset + self.size - 1 > _INT64_MAX:
            raise ValueError(
                f"request past int64 byte range: offset {self.offset}, size {self.size}"
            )

    @property
    def end_offset(self) -> int:
        """Exclusive end byte offset of the request."""
        return self.offset + self.size

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE

    @property
    def is_read(self) -> bool:
        return self.op is OpType.READ
