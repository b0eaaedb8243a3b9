"""Online RAID-5 rebuild: reconstruct a dead member onto a hot spare.

The engine is a background simulation process that walks the array
stripe by stripe: lock the stripe against foreground writers, read the
same stripe unit from every survivor, XOR them into the lost member's
content (data or parity uniformly — XOR over the whole stripe is zero),
write it to the spare, advance the checkpoint, unlock.  Foreground
traffic keeps flowing the whole time:

* **Scheduling** — rebuild commands are issued at
  :data:`~repro.disk.controller.PRIORITY_REBUILD`, strictly below
  foreground reads *and* write-backs, so reconstruction soaks up idle
  head time instead of stealing it; nothing ages a waiting rebuild
  command, so a saturated foreground delays it for as long as it
  lasts.  Only the ``stripes_per_burst`` / ``pause_ms`` throttle shapes
  the engine's duty cycle.
* **Bad sectors** — an unreadable survivor extent degrades to
  per-sector salvage reads; sectors that stay unreadable are recorded
  in :attr:`RebuildEngine.lost_sectors` and reconstruct as zeros (the
  array keeps serving; a real controller would flag these to the
  host).  Unwritable spare targets are relocated to spare sectors and
  retried.
* **Power failure** — the checkpoint pair (resume cursor + progress
  counter) only ever moves in one atomic segment, so a halt mid-stripe
  pauses the engine *at the last completed stripe* and
  :meth:`~repro.raid.array.Raid5Array.power_on` resumes it there;
  re-copying a stripe is idempotent.
* **Second failure** — a dead survivor fails the array loudly (the
  engine aborts); a dead *spare* merely aborts this rebuild and the
  array falls back to degraded service (or the next hot spare).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from repro.disk.controller import PRIORITY_REBUILD
from repro.disk.drive import DiskDrive
from repro.errors import (
    DiskError, DiskHaltedError, DriveFailedError, RaidFailedError,
    UnrecoverableSectorError)
from repro.raid.array import (
    Raid5Array, _absorb_failures, _defuse_if_failed, _xor)
from repro.sim import Event, Process
from repro.units import Lba, Ms, Sectors


@dataclass(frozen=True)
class RebuildConfig:
    """Throttle knobs for one rebuild run."""

    #: Stripes copied back-to-back before the engine yields the array
    #: to foreground traffic for ``pause_ms``.
    stripes_per_burst: int = 8

    #: Idle time between bursts — the rebuild throttle knob.  0 runs
    #: flat out (fastest rebuild, worst foreground latency).
    pause_ms: Ms = 2.0

    #: Hint exported through the array to Trail's write-back scheduler:
    #: how long a write-back should park when it sees the array
    #: rebuilding.  0 disables parking.
    writeback_defer_ms: Ms = 0.0

    def __post_init__(self) -> None:
        if self.stripes_per_burst < 1:
            raise ValueError("stripes_per_burst must be >= 1")
        if self.pause_ms < 0:
            raise ValueError("pause_ms must be >= 0")
        if self.writeback_defer_ms < 0:
            raise ValueError("writeback_defer_ms must be >= 0")


class RebuildEngine:
    """One online reconstruction of a failed member onto a spare."""

    def __init__(self, array: Raid5Array, spare: DiskDrive,
                 config: Optional[RebuildConfig] = None) -> None:
        if array.failed_drive is None:
            raise DiskError(f"{array.name}: no failed member to rebuild")
        self.array = array
        self.spare = spare
        self.config = config or RebuildConfig()
        self.sim = array.sim
        #: Index of the member being reconstructed.
        self.member_index: int = array.failed_drive
        #: ``pending`` -> ``running`` <-> ``paused`` -> ``complete`` /
        #: ``aborted``.
        self.status = "pending"
        self.stripes_total = array.stripes_total
        # The checkpoint: _next_stripe is the resume cursor (and the
        # watermark below which foreground I/O trusts the spare);
        # stripes_rebuilt is the public progress counter.  They are
        # maintained by different consumers but must always agree, so
        # they move together in one atomic segment — trailsan checks
        # this statically, and the TRAILSAN=1 transition registered
        # below checks every context switch at runtime.
        self._next_stripe = 0  # trailsan: atomic_group(rebuild-progress)
        self.stripes_rebuilt = 0  # trailsan: atomic_group(rebuild-progress)
        #: Survivor reads + spare writes issued (member amplification).
        self.member_reads = 0
        self.member_writes = 0
        #: Per-sector fallback reads after an unreadable extent.
        self.salvage_reads = 0
        #: (drive name, member LBA) pairs whose content could not be
        #: reconstructed (unreadable survivor / unwritable spare).
        self.lost_sectors: List[Tuple[str, int]] = []
        #: Spare-sector remaps performed on the rebuild target.
        self.spare_relocations = 0
        #: Stripe copies abandoned and retried (power loss etc.).
        self.stripe_retries = 0
        self.started_at: Optional[Ms] = None
        self.completed_at: Optional[Ms] = None
        self.abort_reason: Optional[str] = None
        self._paused = False
        self._resume_event: Optional[Event] = None
        self._process: Optional[Process] = None
        #: Fires with the final status string when the engine finishes
        #: (``complete`` or ``aborted``); scenarios wait on this.
        self.done: Event = self.sim.event()
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.add_transition("rebuild-progress",
                                     self._san_progress_probe,
                                     self._san_progress_judge)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def next_stripe(self) -> int:
        """First stripe not yet on the spare (the rebuilt watermark)."""
        return self._next_stripe

    @property
    def active(self) -> bool:
        return self.status in ("pending", "running", "paused")

    @property
    def paused(self) -> bool:
        return self.status == "paused"

    @property
    def progress(self) -> float:
        """Fraction of stripes reconstructed, in [0, 1]."""
        if not self.stripes_total:
            return 1.0
        return self.stripes_rebuilt / self.stripes_total

    def covers(self, stripe: int) -> bool:
        """True when foreground I/O may serve ``stripe`` from the spare."""
        return (self.active and stripe < self._next_stripe
                and not self.spare.dead and not self.spare.halted)

    @property
    def elapsed_ms(self) -> Ms:
        """Wall-clock (simulated) time the rebuild has been running."""
        if self.started_at is None:
            return 0.0
        end = (self.completed_at if self.completed_at is not None
               else self.sim.now)
        return end - self.started_at

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> Process:
        """Launch the background copier process."""
        if self.status != "pending":
            raise DiskError(f"rebuild already {self.status}")
        self.status = "running"
        self.started_at = self.sim.now
        self._process = self.sim.process(
            self._run(), name=f"{self.array.name}:rebuild")
        return self._process

    def pause(self, reason: str) -> None:
        """Stop copying after the current stripe; checkpoint persists.

        Used by :meth:`Raid5Array.halt` (power failure) and available
        as a manual throttle.  In-flight member commands of the current
        stripe abort (or finish); the checkpoint stays at the last
        *completed* stripe, so resuming re-copies at most one stripe —
        deterministically, and idempotently.
        """
        if self.status != "running":
            return
        self.status = "paused"
        self._paused = True

    def resume(self) -> None:
        """Continue from the checkpoint after :meth:`pause`."""
        if self.status != "paused":
            return
        self.status = "running"
        self._paused = False
        self._wake()

    def abort(self, reason: str) -> None:
        """Permanently stop this rebuild (spare death, second failure)."""
        if self.status in ("complete", "aborted"):
            return
        self.status = "aborted"
        self.abort_reason = reason
        self.completed_at = self.sim.now
        self._paused = False
        self._wake()
        if not self.done.triggered:
            self.done.succeed("aborted")

    def _wake(self) -> None:
        event = self._resume_event
        self._resume_event = None
        if event is not None and not event.triggered:
            event.succeed(None)

    # ------------------------------------------------------------------
    # The copier

    def _run(self) -> Generator[Event, Any, None]:
        config = self.config
        array = self.array
        burst = 0
        while self._next_stripe < self.stripes_total:
            if self.status == "aborted":
                return
            if self._paused:
                resume = self.sim.event()
                self._resume_event = resume
                yield resume
                continue
            stripe = self._next_stripe
            yield from array.rebuild_lock_stripe(stripe)
            try:
                content = yield from self._reconstruct_stripe(stripe)
                yield from self._write_spare(stripe, content)
            except DiskHaltedError:
                # Power failed mid-copy: keep the checkpoint, wait for
                # power_on to resume, then re-copy this stripe.
                self.stripe_retries += 1
                self.pause("power failure observed")
                continue
            except DriveFailedError:
                self.stripe_retries += 1
                self._on_drive_death()
                if self.status != "running":
                    return
                continue
            finally:
                array.rebuild_unlock_stripe(stripe)
            # Atomic checkpoint: cursor and counter move in one
            # segment (no yield between) — see atomic_group above.
            self._next_stripe = stripe + 1
            self.stripes_rebuilt += 1
            burst += 1
            if (config.pause_ms > 0 and burst >= config.stripes_per_burst
                    and self._next_stripe < self.stripes_total):
                burst = 0
                yield self.sim.timeout(config.pause_ms)
        self.status = "complete"
        self.completed_at = self.sim.now
        array._rebuild_completed(self)
        if not self.done.triggered:
            self.done.succeed("complete")

    def _on_drive_death(self) -> None:
        """A member command died whole-drive during the copy."""
        if self.spare.dead:
            self.abort("spare drive died during rebuild")
            self.array._rebuild_aborted(self)
            return
        try:
            self.array._note_drive_death()
        except RaidFailedError:
            # A survivor died: fail_drive() already aborted this
            # engine and flagged the array; foreground I/O raises
            # loudly — the copier just stops.
            return

    def _reconstruct_stripe(
        self, stripe: int,
    ) -> Generator[Event, Any, bytes]:
        """XOR the survivors' stripe units into the lost member's."""
        array = self.array
        member_lba = stripe * array.stripe_unit
        reads: List[Event] = []
        survivors: List[DiskDrive] = []
        for index, drive in enumerate(array.drives):
            if index == self.member_index:
                continue
            request = drive.read(member_lba, array.stripe_unit,
                                 priority=PRIORITY_REBUILD)
            # A halt or death storm can fail several survivor reads in
            # one kernel step — before this generator is thrown into —
            # so each carries a defuse-on-failure callback from birth.
            request.add_callback(_defuse_if_failed)
            reads.append(request)
            survivors.append(drive)
        try:
            yield self.sim.all_of(reads)
        except UnrecoverableSectorError:
            _absorb_failures(reads)
            # Bad-sector-aware degradation: re-read the failed
            # survivors sector by sector and record what stays lost.
            pieces: List[bytes] = []
            for request, drive in zip(reads, survivors):
                if request.ok:
                    self.member_reads += 1
                    pieces.append(request.value.data)
                else:
                    piece = yield from self._salvage_member(
                        drive, member_lba, array.stripe_unit)
                    pieces.append(piece)
            return _xor(pieces)
        except BaseException:
            _absorb_failures(reads)
            raise
        self.member_reads += len(reads)
        return _xor([request.value.data for request in reads])

    def _salvage_member(
        self, drive: DiskDrive, member_lba: Lba, count: Sectors,
    ) -> Generator[Event, Any, bytes]:
        """Per-sector fallback read of one survivor extent.

        Sectors the drive cannot deliver even one at a time are
        recorded in :attr:`lost_sectors` and substituted with zeros:
        the reconstructed member sector of that row is then wrong, and
        the record is the audit trail saying so.
        """
        sector_size = self.array.sector_size
        sectors: List[bytes] = []
        for offset in range(count):
            address = member_lba + offset
            self.salvage_reads += 1
            try:
                result = yield drive.read(address, 1,
                                          priority=PRIORITY_REBUILD)
            except UnrecoverableSectorError:
                self.lost_sectors.append((drive.name, address))
                sectors.append(bytes(sector_size))
                continue
            self.member_reads += 1
            sectors.append(result.data)
        return b"".join(sectors)

    def _write_spare(
        self, stripe: int, content: bytes,
    ) -> Generator[Event, Any, None]:
        """Land one reconstructed stripe unit on the spare.

        An unwritable target is relocated to the spare-sector pool and
        retried once; sectors that stay unwritable are recorded as lost
        and skipped — the copier keeps going rather than wedging the
        whole rebuild on one bad spot.
        """
        member_lba = stripe * self.array.stripe_unit
        relocated = False
        while True:
            try:
                yield self.spare.write(member_lba, content,
                                       priority=PRIORITY_REBUILD)
            except UnrecoverableSectorError as error:
                if not relocated:
                    relocated = True
                    self.spare_relocations += self.spare.relocate(
                        member_lba, self.array.stripe_unit)
                    continue
                self.lost_sectors.append(
                    (self.spare.name,
                     error.lba if error.lba is not None else member_lba))
                return
            self.member_writes += 1
            return

    # ------------------------------------------------------------------
    # TRAILSAN runtime checks

    def _san_progress_probe(self) -> Tuple[object, ...]:
        return self._next_stripe, self.stripes_rebuilt

    def _san_progress_judge(self, old: Tuple[object, ...],
                            new: Tuple[object, ...]) -> Optional[str]:
        old_next, old_done = old
        new_next, new_done = new
        if not (isinstance(new_next, int) and isinstance(new_done, int)
                and isinstance(old_next, int)):
            return None  # pragma: no cover — fields are always ints
        if new_next < old_next:
            return (f"rebuild watermark moved backwards "
                    f"({old_next} -> {new_next})")
        if new_next != new_done:
            return (f"checkpoint torn: next_stripe {new_next} != "
                    f"stripes_rebuilt {new_done} — the pair must move "
                    f"in one atomic segment")
        return None
