"""Block-level I/O trace data model, file formats, filters, and validation."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .blocks import BlockView, block_range, block_view, expand_to_blocks
    from .dataset import TraceDataset, VolumeTrace
    from .filters import (
        filter_time_range,
        filter_volumes,
        reads_only,
        rebase_timestamps,
        split_days,
        top_traffic_volume_ids,
        writes_only,
    )
    from .reader import (
        TraceFormatError,
        iter_alicloud_requests,
        iter_msrc_requests,
    )
    from .record import DEFAULT_BLOCK_SIZE, SECTOR_SIZE, IORequest, OpType
    from .sampling import SampledTrace, interval_features, select_representatives
    from .validation import (
        ValidationIssue,
        ValidationReport,
        validate_dataset,
        validate_trace_dir,
        validate_volume,
    )
    from .writer import write_alicloud, write_dataset_dir, write_msrc

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "SECTOR_SIZE",
    "IORequest",
    "OpType",
    "TraceDataset",
    "VolumeTrace",
    "TraceFormatError",
    "iter_alicloud_requests",
    "iter_msrc_requests",
    "write_alicloud",
    "write_msrc",
    "write_dataset_dir",
    "filter_volumes",
    "filter_time_range",
    "reads_only",
    "writes_only",
    "rebase_timestamps",
    "split_days",
    "top_traffic_volume_ids",
    "ValidationIssue",
    "ValidationReport",
    "validate_volume",
    "validate_dataset",
    "validate_trace_dir",
    "SampledTrace",
    "interval_features",
    "select_representatives",
    "BlockView",
    "block_view",
    "block_range",
    "expand_to_blocks",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".blocks": ("BlockView", "block_range", "block_view", "expand_to_blocks"),
    ".dataset": ("TraceDataset", "VolumeTrace"),
    ".filters": (
        "filter_time_range", "filter_volumes", "reads_only", "rebase_timestamps",
        "split_days", "top_traffic_volume_ids", "writes_only",
    ),
    ".reader": ("TraceFormatError", "iter_alicloud_requests", "iter_msrc_requests"),
    ".record": ("DEFAULT_BLOCK_SIZE", "SECTOR_SIZE", "IORequest", "OpType"),
    ".sampling": ("SampledTrace", "interval_features", "select_representatives"),
    ".validation": (
        "ValidationIssue", "ValidationReport", "validate_dataset", "validate_trace_dir",
        "validate_volume",
    ),
    ".writer": ("write_alicloud", "write_dataset_dir", "write_msrc"),
})
