"""Exception hierarchy for the Trail reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so
that callers can catch library errors without masking programming
mistakes (``TypeError`` etc. propagate unchanged).
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Misuse of the simulation kernel (e.g. running a finished sim)."""


class SanitizerError(SimulationError):
    """A ``TRAILSAN=1`` runtime check observed a declared atomic group
    torn at a context switch (see ``repro.sim.sanitizer``)."""


class ExplorationError(SimulationError):
    """The bounded schedule explorer found a broken schedule.

    Raised by :mod:`repro.sim.explore` when an explored interleaving
    deadlocks (an awaited event can no longer fire), exceeds its
    dispatch budget (livelock), or replays nondeterministically
    (the same decision prefix reached a different choice point).
    """


class DiskError(ReproError):
    """Base class for disk-simulator errors."""


class AddressError(DiskError):
    """A logical or physical disk address is out of range."""


class GeometryError(DiskError):
    """A disk geometry description is inconsistent."""


class MediaError(DiskError):
    """Base class for errors originating in the recording medium itself.

    The taxonomy distinguishes three failure modes a caller may want to
    handle differently:

    * :class:`UnformattedReadError` — the sector holds no written data;
      a software/layout problem, not a hardware fault.
    * :class:`UnrecoverableSectorError` — the drive exhausted its retry
      and remap budget; the sector's contents are gone.
    * :class:`TransientIoError` — a single attempt failed but a retry
      may succeed.  Normally absorbed by the drive's internal retry
      loop; escapes only when the retry budget is disabled.

    Silent corruption by definition raises nothing at the disk layer;
    it is detected (if at all) by upper-layer checksums, which raise
    :class:`CorruptDataError`.
    """

    #: LBA of the failing sector, when known (``None`` otherwise).
    lba: Optional[int] = None

    def __init__(self, message: str, lba: Optional[int] = None) -> None:
        super().__init__(message)
        self.lba = lba


class UnformattedReadError(MediaError):
    """A sector read found no written data (unformatted media).

    Historical note: this condition was previously reported as the
    ``MediaError`` base class itself; it is now a distinct subclass so
    "nothing was ever written here" cannot be confused with "the media
    destroyed what was written" (:class:`UnrecoverableSectorError`).
    """


class TransientIoError(MediaError):
    """One read/write attempt failed; the same command may succeed if
    retried.  Models soft errors (vibration, marginal signal).  The
    drive retries these internally up to its bounded retry budget."""


class UnrecoverableSectorError(MediaError):
    """A sector could not be read or written after exhausting retries.

    For writes the drive first tries to remap the sector to a spare;
    this error means the spare pool is exhausted too.  For reads there
    is nothing to remap to — the recorded data is lost.
    """


class CorruptDataError(MediaError):
    """A checksum detected that stored data was silently corrupted.

    Raised by layers that maintain checksums (the Trail record format),
    never by the drive itself: silent corruption is silent precisely
    because the hardware reports success.
    """


class DriveFailedError(MediaError):
    """The whole drive died; every command to it fails.

    Unlike :class:`DiskHaltedError` (power loss — temporary, contents
    persist and the host retries after power returns), a failed drive
    is *gone* as far as the array layer is concerned: commands in
    flight error, new commands error, and the only remedies are a
    RAID-level rebuild onto a spare or (for a flapping drive that
    :meth:`~repro.disk.drive.DiskDrive.revive`\\ s) treating it as a
    fresh, stale member.  A ``MediaError`` subclass so every hardened
    retry/degrade path treats drive death like any other unrecoverable
    media fault.
    """


class RaidFailedError(DiskError):
    """The array lost more members than its redundancy covers.

    RAID-5 survives exactly one failed member; a second distinct
    failure (e.g. during rebuild) means data in the doubly-failed
    stripes is unrecoverable.  The array fails loudly on subsequent
    I/O instead of serving reconstructed garbage.
    """


class DiskHaltedError(DiskError):
    """The drive lost power while this command was in flight.

    Whole sectors already transferred to the platter persist; the rest
    of the command is lost, exactly like a real power failure.
    """


class TrailError(ReproError):
    """Base class for Trail-driver errors."""


class LogFormatError(TrailError):
    """An on-disk log structure failed to parse or validate."""


class RecordChecksumError(LogFormatError):
    """A sector opens like a record header but fails the header CRC:
    a damaged record, which recovery reports instead of skipping."""


class LogDiskFullError(TrailError):
    """The circular log ran out of free tracks (Section 4.4)."""


class RecoveryError(TrailError):
    """Crash recovery could not reconstruct a consistent state."""


class NotATrailDiskError(TrailError):
    """The disk's header signature does not identify a Trail log disk."""


class DatabaseError(ReproError):
    """Base class for the transaction-engine substrate."""


class TransactionAborted(DatabaseError):
    """A transaction was rolled back (deadlock victim or explicit abort)."""


class DeadlockError(TransactionAborted):
    """Lock acquisition formed a cycle; this transaction was chosen victim."""


class IntentionalRollback(TransactionAborted):
    """A workload-specified rollback (e.g. TPC-C's 1% invalid-item
    New-Order transactions); not retried."""


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""
