"""Disk command types, completion records, and per-drive statistics.

Every command completes with an :class:`IoResult` carrying a full
latency decomposition (queue / command overhead / seek / rotation /
transfer).  The paper's Section 5.1 analysis — "each log disk write
always experiences fixed disk controller and on-disk processing
overhead" and "Trail has reduced the average rotational latency ... to
below 0.5 msec" — is reproduced directly from these fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.sim import Event
from repro.units import Lba, Ms, Sectors


class Op(enum.Enum):
    """Disk command opcode."""

    READ = "read"
    WRITE = "write"


#: Queue priority for latency-critical commands (data-disk reads, §4.3).
PRIORITY_READ = 0
#: Queue priority for background commands (data-disk write-backs).
PRIORITY_WRITE = 1
#: Queue priority for RAID rebuild traffic: yields to both foreground
#: reads and write-backs so reconstruction never steals a survivor
#: drive from a latency-critical command.
PRIORITY_REBUILD = 2


@dataclass(slots=True)
class IoResult:
    """Completion record for one disk command."""

    op: Op
    lba: Lba
    nsectors: Sectors
    enqueued_at: Ms
    started_at: Ms
    completed_at: Ms
    queue_ms: Ms
    overhead_ms: Ms
    seek_ms: Ms
    rotation_ms: Ms
    transfer_ms: Ms
    #: Sector payload for reads; None for writes.
    data: Optional[bytes] = None

    @property
    def latency_ms(self) -> Ms:
        """End-to-end latency including queueing delay."""
        return self.completed_at - self.enqueued_at

    @property
    def service_ms(self) -> Ms:
        """Service time excluding queueing delay."""
        return self.completed_at - self.started_at


@dataclass
class DriveStats:
    """Aggregate counters for one simulated drive."""

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_ms: float = 0.0
    queue_ms: float = 0.0
    seek_ms: float = 0.0
    rotation_ms: float = 0.0
    transfer_ms: float = 0.0
    overhead_ms: float = 0.0
    halted_commands: int = 0
    #: Commands aborted because the whole drive failed (see
    #: :meth:`~repro.disk.drive.DiskDrive.fail`).
    dead_commands: int = 0
    #: Soft (transient) per-sector failures encountered and retried.
    transient_errors: int = 0
    #: Extra revolutions spent re-attempting failed sectors.
    retries: int = 0
    #: Read commands failed with an unrecoverable sector.
    read_errors: int = 0
    #: Write commands failed after retries and remapping were exhausted.
    write_errors: int = 0
    #: Write targets transparently relocated to spare sectors.
    sectors_remapped: int = 0
    #: Injected service-time spikes absorbed by commands.
    latency_spikes: int = 0

    def record(self, result: IoResult) -> None:
        """Fold one completed command into the aggregates."""
        if result.op is Op.READ:
            self.reads += 1
            self.sectors_read += result.nsectors
        else:
            self.writes += 1
            self.sectors_written += result.nsectors
        self.busy_ms += result.service_ms
        self.queue_ms += result.queue_ms
        self.seek_ms += result.seek_ms
        self.rotation_ms += result.rotation_ms
        self.transfer_ms += result.transfer_ms
        self.overhead_ms += result.overhead_ms

    @property
    def commands(self) -> int:
        """Total completed commands."""
        return self.reads + self.writes

    @property
    def mean_rotation_ms(self) -> Ms:
        """Average rotational wait per command (0 if no commands)."""
        return self.rotation_ms / self.commands if self.commands else 0.0


class _Command:
    """One submitted command: its queue entry and latency accumulators.

    Built once per :meth:`~repro.disk.drive.DiskDrive.submit` and
    dropped at completion — slotted, because it is the only per-command
    object besides the completion event and the :class:`IoResult`.
    """

    __slots__ = ("op", "lba", "nsectors", "data", "priority", "event",
                 "enqueued_at", "started_at", "seek_ms", "rotation_ms",
                 "transfer_ms")

    def __init__(self, op: Op, lba: Lba, nsectors: Sectors,
                 data: Optional[bytes], priority: int, event: Event,
                 enqueued_at: Ms) -> None:
        self.op = op
        self.lba = lba
        self.nsectors = nsectors
        self.data = data
        self.priority = priority
        #: Succeeds with the IoResult, or fails with the abort reason.
        self.event = event
        self.enqueued_at = enqueued_at
        self.started_at: Ms = enqueued_at
        self.seek_ms: Ms = 0.0
        self.rotation_ms: Ms = 0.0
        self.transfer_ms: Ms = 0.0
