"""Trail: track-based disk logging — the paper's primary contribution.

Public entry point is :class:`TrailDriver`; the submodules implement
the mechanisms it composes: head-position prediction, the
self-describing log format, circular FIFO track allocation, staged
buffering with write-back, and crash recovery.
"""

from repro.core.allocator import TrackAllocator
from repro.core.buffer import BufferManager, LiveRecord, PendingPage
from repro.core.config import MAX_TRAIL_BATCH, TRAIL_SIGNATURE, TrailConfig
from repro.core.driver import TrailDriver, TrailStats, reserved_layout
from repro.core.instance import (
    BaselineInstance, TrailInstance, run_interleaved)
from repro.core.format import (
    BatchEntry, HEADER_FIRST_BYTE, LogDiskHeader, NULL_LBA,
    PAYLOAD_FIRST_BYTE, RecordHeader, decode_disk_header,
    decode_record_header, encode_disk_header, encode_record,
    record_header_offsets, restore_payload)
from repro.core.multilog import StripedTrailDriver
from repro.core.prediction import CalibrationResult, HeadPositionPredictor
from repro.core.recovery import LocatedRecord, RecoveryManager, RecoveryReport
from repro.core.writeback import WritebackScheduler

__all__ = [
    "BaselineInstance",
    "BatchEntry",
    "BufferManager",
    "CalibrationResult",
    "HEADER_FIRST_BYTE",
    "HeadPositionPredictor",
    "LiveRecord",
    "LocatedRecord",
    "LogDiskHeader",
    "MAX_TRAIL_BATCH",
    "NULL_LBA",
    "PAYLOAD_FIRST_BYTE",
    "PendingPage",
    "RecordHeader",
    "RecoveryManager",
    "RecoveryReport",
    "StripedTrailDriver",
    "TRAIL_SIGNATURE",
    "TrackAllocator",
    "TrailConfig",
    "TrailDriver",
    "TrailInstance",
    "TrailStats",
    "WritebackScheduler",
    "decode_disk_header",
    "decode_record_header",
    "encode_disk_header",
    "encode_record",
    "record_header_offsets",
    "reserved_layout",
    "restore_payload",
    "run_interleaved",
]
