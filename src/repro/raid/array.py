"""A RAID-5 disk array that survives whole-drive death.

The paper's conclusion names "using track-based logging to solve the
small write problem in RAID-5 disk arrays" as ongoing work.  This
module provides the substrate: a left-symmetric RAID-5 array over N
simulated drives with byte-accurate parity, whose small writes pay the
textbook read-modify-write penalty — read old data, read old parity,
write new data, write new parity (two serial disk rounds) — while
full-stripe writes compute parity directly.

Beyond the healthy-path striping core, the array is a fault-survivable
subsystem:

* **Member failure** — :meth:`Raid5Array.fail_drive` marks a member
  lost; reads reconstruct its contents by XOR across the survivors and
  writes keep parity consistent so nothing acknowledged is ever lost.
  Whole-drive death (:meth:`~repro.disk.drive.DiskDrive.fail`) is
  detected *automatically*: a member command failing with
  :class:`~repro.errors.DriveFailedError` marks the member failed and
  the foreground operation restarts against the degraded geometry —
  callers never see the error.
* **Hot spares and online rebuild** — with a spare attached, a member
  failure starts a :class:`~repro.raid.rebuild.RebuildEngine`: a
  background process reconstructing the lost member stripe-by-stripe
  onto the spare while foreground I/O keeps flowing.  A per-stripe
  gate keeps the copier and foreground *writers* off the same stripe
  (readers never block: the copier only writes to the spare).  Stripes
  below the engine's watermark are served from the spare.
* **Second failure** — a second distinct member loss exceeds RAID-5
  redundancy: the array fails loudly
  (:class:`~repro.errors.RaidFailedError`) instead of serving
  reconstructed garbage.  A dying *spare* is not fatal — the rebuild
  aborts and restarts on the next spare, or the array stays degraded.

The array exposes the same call shapes as a :class:`DiskDrive`
(``read``/``write``/``halt``/``relocate`` returning processes with
``.data``), so a :class:`~repro.core.driver.TrailDriver` can front it
as a "data disk": Trail acknowledges each small write after one fast
log-disk write and performs the 4-I/O parity update asynchronously —
the solution the paper sketches — and keeps absorbing writes at log
speed while the array is reconstructing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, Generator, List, Optional, Sequence, Tuple, TYPE_CHECKING)

from repro.disk.controller import PRIORITY_READ
from repro.disk.drive import DiskDrive
from repro.disk.geometry import DiskGeometry, uniform_geometry
from repro.errors import DiskError, DriveFailedError, RaidFailedError
from repro.sim import Event, Simulation
from repro.units import Lba, Ms, Sectors

if TYPE_CHECKING:  # pragma: no cover — cycle broken at runtime: the
    # rebuild module imports this one; start_rebuild imports it lazily.
    from repro.raid.rebuild import RebuildConfig, RebuildEngine


@dataclass
class RaidResult:
    """Completion record for one array operation."""

    lba: Lba
    nsectors: Sectors
    started_at: Ms
    completed_at: Ms
    data: Optional[bytes] = None
    #: Member-disk commands this operation issued.
    member_ios: int = 0

    @property
    def latency_ms(self) -> Ms:
        return self.completed_at - self.started_at


@dataclass
class RaidStats:
    """Array-level counters."""

    reads: int = 0
    writes: int = 0
    small_writes: int = 0
    full_stripe_writes: int = 0
    #: Reads that reconstructed a lost member's bytes via parity.
    degraded_reads: int = 0
    #: Writes issued while a member was unreachable (parity-only or
    #: data-only updates instead of the full RMW pair).
    degraded_writes: int = 0
    #: Foreground reads served from the spare's rebuilt prefix.
    spare_reads: int = 0
    #: Foreground writes landing on the spare's rebuilt prefix.
    spare_writes: int = 0
    #: Member commands issued on behalf of logical array operations.
    member_ios: int = 0
    #: Members marked failed over the array's lifetime.
    member_failures: int = 0
    #: Member failures discovered from an in-flight command's
    #: DriveFailedError rather than an explicit fail_drive() call.
    auto_detected_failures: int = 0
    #: Foreground operations restarted after a member died under them.
    op_retries: int = 0
    #: Foreground writes that waited for the rebuild copier to release
    #: their stripe (rebuild contention).
    gate_waits: int = 0

    @property
    def amplification(self) -> float:
        """Member commands per logical operation (I/O amplification)."""
        ops = self.reads + self.writes
        return self.member_ios / ops if ops else 0.0


class Raid5Array:
    """Left-symmetric RAID-5 with rotating parity, spares and rebuild."""

    def __init__(
        self,
        sim: Simulation,
        drives: Sequence[DiskDrive],
        stripe_unit_sectors: Sectors = 8,
        name: str = "raid5",
        spares: Sequence[DiskDrive] = (),
        rebuild_config: Optional["RebuildConfig"] = None,
    ) -> None:
        if len(drives) < 3:
            raise DiskError("RAID-5 needs at least 3 drives")
        if stripe_unit_sectors < 1:
            raise DiskError("stripe unit must be >= 1 sector")
        self.sim = sim
        self.drives: List[DiskDrive] = list(drives)
        self.stripe_unit = stripe_unit_sectors
        self.name = name
        self.stats = RaidStats()
        self.sector_size = drives[0].geometry.sector_size
        member_sectors = min(drive.geometry.total_sectors
                             for drive in drives)
        self._units_per_drive = member_sectors // stripe_unit_sectors
        data_drives = len(drives) - 1
        self.total_sectors = (self._units_per_drive * data_drives
                              * stripe_unit_sectors)
        #: Facade geometry so drivers can validate extents against the
        #: array's logical capacity.
        self.geometry: DiskGeometry = uniform_geometry(
            cylinders=1, heads=1, sectors_per_track=self.total_sectors)
        self._failed: Optional[int] = None
        self._array_failed = False
        self.rotation = drives[0].rotation  # facade for introspection
        #: Throttle for every rebuild: a member failure starts one
        #: automatically whenever a hot spare is available.
        self.rebuild_config = rebuild_config
        self._rebuild: Optional["RebuildEngine"] = None
        self._spares: List[DiskDrive] = []
        for spare in spares:
            self.add_hot_spare(spare)
        # Per-stripe gate between foreground writers and the rebuild
        # copier.  Foreground operations of one stripe may overlap each
        # other (exactly the pre-rebuild behaviour) but a writer never
        # overlaps the copier on the same stripe: a half-done RMW seen
        # by the copier would land stale parity on the spare.  In the
        # cooperative kernel a check-and-set with no yield between test
        # and update is atomic; the TRAILSAN=1 invariant below polices
        # the mutual exclusion at every context switch.  Both sides of
        # the gate carry the same atomic_group so trailsan forbids a
        # yield between test and set.
        self._stripe_writers: Dict[int, int] = \
            {}  # trailsan: atomic_group(raid-stripe-gate)
        self._rebuild_stripe: Optional[int] = \
            None  # trailsan: atomic_group(raid-stripe-gate)
        self._stripe_waiters: Dict[int, List[Event]] = {}
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.add_invariant("raid-stripe-gate",
                                    self._san_gate_error)

    # ------------------------------------------------------------------
    # Address mapping (left-symmetric layout)

    def _locate(self, unit_index: int) -> Tuple[int, int, int, int]:
        """Map a logical stripe-unit index to (drive, member LBA)."""
        width = len(self.drives)
        stripe, offset = divmod(unit_index, width - 1)
        parity_drive = (width - 1 - stripe % width) % width
        data_drive = (parity_drive + 1 + offset) % width
        member_lba = stripe * self.stripe_unit
        return data_drive, parity_drive, stripe, member_lba

    def parity_drive_of_stripe(self, stripe: int) -> int:
        """Which member holds parity for ``stripe`` (for tests)."""
        width = len(self.drives)
        return (width - 1 - stripe % width) % width

    @property
    def stripes_total(self) -> int:
        """Stripes in the array (= stripe units per member)."""
        return self._units_per_drive

    def _member(self, index: int, stripe: int) -> Optional[DiskDrive]:
        """The physical drive serving member ``index`` of ``stripe``.

        ``None`` when the member is unreachable — failed, and the
        stripe is not yet on a live spare — so the caller must go
        through parity instead.
        """
        if index != self._failed:
            return self.drives[index]
        engine = self._rebuild
        if engine is not None and engine.covers(stripe):
            return engine.spare
        return None

    # ------------------------------------------------------------------
    # Failure injection, spares, rebuild

    def fail_drive(self, index: int, auto: bool = False) -> None:
        """Mark one member failed; reads reconstruct via parity.

        The first failure degrades the array (and starts a rebuild when
        a hot spare is attached).  A
        *second* distinct failure exceeds RAID-5 redundancy: the array
        transitions to failed and raises
        :class:`~repro.errors.RaidFailedError` — here and on every
        subsequent I/O — rather than serving unreconstructable bytes.
        """
        if not 0 <= index < len(self.drives):
            raise DiskError(f"no member drive {index}")
        if self._array_failed:
            raise RaidFailedError(f"{self.name}: array has failed")
        if index == self._failed:
            return
        self.stats.member_failures += 1
        if auto:
            self.stats.auto_detected_failures += 1
        if self._failed is not None:
            self._array_failed = True
            engine = self._rebuild
            if engine is not None:
                engine.abort(f"member {index} failed during rebuild")
            raise RaidFailedError(
                f"{self.name}: member {index} failed while member "
                f"{self._failed} is still lost — RAID-5 survives only "
                f"one failure")
        self._failed = index
        if self._spares:
            self.start_rebuild(self.rebuild_config)

    @property
    def failed_drive(self) -> Optional[int]:
        return self._failed

    @property
    def array_failed(self) -> bool:
        """True once redundancy was exceeded (array serves nothing)."""
        return self._array_failed

    def add_hot_spare(self, spare: DiskDrive) -> None:
        """Attach a standby drive the rebuild engine may claim.

        If a member is already lost the rebuild starts immediately.
        """
        needed = self._units_per_drive * self.stripe_unit
        if spare.geometry.total_sectors < needed:
            raise DiskError(
                f"spare {spare.name} holds {spare.geometry.total_sectors}"
                f" sectors; members need {needed}")
        self._spares.append(spare)
        if self._failed is not None and not self.rebuild_active:
            self.start_rebuild(self.rebuild_config)

    @property
    def rebuild(self) -> Optional["RebuildEngine"]:
        """The most recent rebuild engine (any status), if one ran."""
        return self._rebuild

    @property
    def rebuild_active(self) -> bool:
        """True while a rebuild is running or paused."""
        engine = self._rebuild
        return engine is not None and engine.active

    @property
    def writeback_defer_ms(self) -> Ms:
        """Back-off hint for Trail's write-back scheduler.

        While a rebuild is actively copying, the array advertises the
        engine's configured defer so write-backs park briefly instead
        of piling onto contended members; 0.0 when healthy, paused or
        done, so the hint can never stall write-back forever.
        """
        engine = self._rebuild
        if engine is not None and engine.status == "running":
            return engine.config.writeback_defer_ms
        return 0.0

    def start_rebuild(
        self, config: Optional["RebuildConfig"] = None,
    ) -> "RebuildEngine":
        """Claim the next hot spare and start the online rebuild."""
        from repro.raid.rebuild import RebuildEngine
        if self._array_failed:
            raise RaidFailedError(f"{self.name}: array has failed")
        if self._failed is None:
            raise DiskError(f"{self.name}: no failed member to rebuild")
        if self.rebuild_active:
            raise DiskError(f"{self.name}: rebuild already in progress")
        if not self._spares:
            raise DiskError(f"{self.name}: no hot spare attached")
        spare = self._spares.pop(0)
        engine = RebuildEngine(self, spare, config)
        self._rebuild = engine
        engine.start()
        return engine

    def _rebuild_completed(self, engine: "RebuildEngine") -> None:
        """Swap the fully-rebuilt spare into the failed member's slot."""
        index = self._failed
        if index is None:  # pragma: no cover — engine guards this
            return
        self.drives[index] = engine.spare
        self._failed = None

    def _rebuild_aborted(self, engine: "RebuildEngine") -> None:
        """A rebuild died (usually the spare did).  Try the next spare;
        with none left the array just stays degraded."""
        if self._array_failed or self._failed is None:
            return
        if self._spares:
            self.start_rebuild(self.rebuild_config)

    def _note_drive_death(self) -> None:
        """React to a member command failing with DriveFailedError.

        Finds which physical drive died and records the failure:
        a dead spare aborts the rebuild (not fatal), a dead member
        degrades the array, a *second* dead member raises
        :class:`~repro.errors.RaidFailedError`.  Finding nothing new
        (a flapping drive already revived) is fine — the caller simply
        retries.
        """
        engine = self._rebuild
        if engine is not None and engine.active and engine.spare.dead:
            engine.abort("spare drive died during rebuild")
            self._rebuild_aborted(engine)
        for index, drive in enumerate(self.drives):
            if index != self._failed and drive.dead:
                self.fail_drive(index, auto=True)

    def halt(self) -> None:
        """Power failure across the whole enclosure.

        Members, unclaimed spares and the rebuild target all lose
        power; a running rebuild *pauses at its checkpoint* — progress
        is never reset — and resumes from the same stripe at
        :meth:`power_on`.
        """
        for drive in self.drives:
            drive.halt()
        for spare in self._spares:
            spare.halt()
        engine = self._rebuild
        if engine is not None:
            engine.spare.halt()
            if engine.active:
                engine.pause("power failure")

    def power_on(self) -> None:
        """Restore power; a paused rebuild resumes from its checkpoint."""
        for drive in self.drives:
            drive.power_on()
        for spare in self._spares:
            spare.power_on()
        engine = self._rebuild
        if engine is not None:
            engine.spare.power_on()
            if engine.paused:
                engine.resume()

    # ------------------------------------------------------------------
    # Stripe gate (foreground writers vs the rebuild copier)

    def _acquire_stripe(self, stripe: int) -> Generator[Event, Any, None]:
        """Foreground writer entry: wait out the copier, then hold."""
        while self._rebuild_stripe == stripe:
            self.stats.gate_waits += 1
            gate = self.sim.event()
            self._stripe_waiters.setdefault(stripe, []).append(gate)
            yield gate
        self._stripe_writers[stripe] = \
            self._stripe_writers.get(stripe, 0) + 1

    def _release_stripe(self, stripe: int) -> None:
        count = self._stripe_writers.get(stripe, 0) - 1
        if count > 0:
            self._stripe_writers[stripe] = count
            return
        self._stripe_writers.pop(stripe, None)
        self._wake_stripe_waiters(stripe)

    def rebuild_lock_stripe(
        self, stripe: int,
    ) -> Generator[Event, Any, None]:
        """Copier entry: wait out foreground writers, then own the
        stripe exclusively (engine-facing)."""
        while self._stripe_writers.get(stripe, 0) > 0:
            gate = self.sim.event()
            self._stripe_waiters.setdefault(stripe, []).append(gate)
            yield gate
        self._rebuild_stripe = stripe

    def rebuild_unlock_stripe(self, stripe: int) -> None:
        """Copier exit; wakes any parked foreground writers."""
        if self._rebuild_stripe == stripe:
            self._rebuild_stripe = None
        self._wake_stripe_waiters(stripe)

    def _wake_stripe_waiters(self, stripe: int) -> None:
        for gate in self._stripe_waiters.pop(stripe, []):
            if not gate.triggered:
                gate.succeed(None)

    def _san_gate_error(self) -> Optional[str]:
        """TRAILSAN invariant: copier and writers never share a stripe."""
        stripe = self._rebuild_stripe
        if stripe is not None and self._stripe_writers.get(stripe, 0) > 0:
            return (f"stripe {stripe} is being rebuilt while "
                    f"{self._stripe_writers[stripe]} foreground "
                    f"writer(s) hold it")
        return None

    # ------------------------------------------------------------------
    # Public I/O (DiskDrive-compatible call shapes)

    def read(self, lba: Lba, nsectors: Sectors,
             priority: int = PRIORITY_READ) -> Event:
        self._check_alive()
        self.geometry.check_extent(lba, nsectors)
        return self.sim.process(self._read(lba, nsectors, priority),
                                name=f"{self.name}:read@{lba}")

    def write(self, lba: Lba, data: bytes,
              priority: int = PRIORITY_READ) -> Event:
        self._check_alive()
        nsectors = max(1, (len(data) + self.sector_size - 1)
                       // self.sector_size)
        self.geometry.check_extent(lba, nsectors)
        padded = data + bytes(nsectors * self.sector_size - len(data))
        return self.sim.process(self._write(lba, padded, priority),
                                name=f"{self.name}:write@{lba}")

    def relocate(self, lba: Lba, nsectors: Sectors) -> Sectors:
        """Delegate spare-sector remapping to the member drives.

        Upper layers (the write-back scheduler) call this on a
        persistently failing write target; the array forwards each
        stripe-unit piece to whichever physical drive serves it.
        """
        remapped = 0
        for unit, offset, count in self._split_units(lba, nsectors):
            data_drive, _parity, stripe, member_lba = self._locate(unit)
            drive = self._member(data_drive, stripe)
            if drive is not None:
                remapped += drive.relocate(member_lba + offset, count)
        return remapped

    def _check_alive(self) -> None:
        if self._array_failed:
            raise RaidFailedError(
                f"{self.name}: array has failed (lost more members "
                f"than parity covers)")

    # ------------------------------------------------------------------

    def _split_units(self, lba: Lba,
                     nsectors: Sectors) -> List[Tuple[int, int, int]]:
        """Split an extent into per-stripe-unit (unit, offset, count)."""
        pieces = []
        current = lba
        remaining = nsectors
        while remaining > 0:
            unit = current // self.stripe_unit
            offset = current % self.stripe_unit
            take = min(remaining, self.stripe_unit - offset)
            pieces.append((unit, offset, take))
            current += take
            remaining -= take
        return pieces

    def _read(self, lba: Lba, nsectors: Sectors,
              priority: int) -> Generator[Event, Any, "RaidResult"]:
        started = self.sim.now
        self.stats.reads += 1
        failure: Optional[DriveFailedError] = None
        # Each retry either succeeds against the post-failure geometry
        # or discovers one more dead drive, so the loop is bounded by
        # the member count (the +2 covers spare death and a flap).
        for attempt in range(len(self.drives) + 2):
            if attempt:
                self.stats.op_retries += 1
            try:
                chunks, member_ios = yield from self._read_attempt(
                    lba, nsectors, priority)
            except DriveFailedError as error:
                failure = error
                self._note_drive_death()
                continue
            self.stats.member_ios += member_ios
            return RaidResult(lba=lba, nsectors=nsectors,
                              started_at=started,
                              completed_at=self.sim.now,
                              data=b"".join(chunks),
                              member_ios=member_ios)
        raise failure if failure is not None else RaidFailedError(
            f"{self.name}: read retries exhausted")

    def _read_attempt(
        self, lba: Lba, nsectors: Sectors, priority: int,
    ) -> Generator[Event, Any, Tuple[List[bytes], int]]:
        chunks: List[bytes] = []
        member_ios = 0
        for unit, offset, count in self._split_units(lba, nsectors):
            data_drive, _parity_drive, stripe, member_lba = \
                self._locate(unit)
            drive = self._member(data_drive, stripe)
            if drive is not None:
                if data_drive == self._failed:
                    self.stats.spare_reads += 1
                result = yield drive.read(
                    member_lba + offset, count, priority=priority)
                member_ios += 1
                chunks.append(result.data)
            else:
                # Degraded: XOR the same range of every survivor
                # (including parity) to reconstruct.
                self.stats.degraded_reads += 1
                pieces = []
                for index in range(len(self.drives)):
                    if index == data_drive:
                        continue
                    result = yield self.drives[index].read(
                        member_lba + offset, count, priority=priority)
                    member_ios += 1
                    pieces.append(result.data)
                chunks.append(_xor(pieces))
        return chunks, member_ios

    def _write(self, lba: Lba, data: bytes,
               priority: int) -> Generator[Event, Any, "RaidResult"]:
        started = self.sim.now
        self.stats.writes += 1
        nsectors = len(data) // self.sector_size
        failure: Optional[DriveFailedError] = None
        for attempt in range(len(self.drives) + 2):
            if attempt:
                self.stats.op_retries += 1
            try:
                member_ios = yield from self._write_attempt(
                    lba, data, nsectors, priority)
            except DriveFailedError as error:
                failure = error
                self._note_drive_death()
                # Restarting the whole logical write is idempotent:
                # every piece rewrites the same bytes, and parity is
                # recomputed from whatever the first attempt left.
                continue
            self.stats.member_ios += member_ios
            return RaidResult(lba=lba, nsectors=nsectors,
                              started_at=started,
                              completed_at=self.sim.now,
                              member_ios=member_ios)
        raise failure if failure is not None else RaidFailedError(
            f"{self.name}: write retries exhausted")

    def _write_attempt(
        self, lba: Lba, data: bytes, nsectors: Sectors, priority: int,
    ) -> Generator[Event, Any, int]:
        member_ios = 0
        pieces = self._split_units(lba, nsectors)
        consumed = 0
        index = 0
        while index < len(pieces):
            # Full-stripe detection: width-1 consecutive whole units
            # starting at a stripe boundary.
            width = len(self.drives)
            group = pieces[index:index + width - 1]
            whole = (len(group) == width - 1
                     and all(offset == 0 and count == self.stripe_unit
                             for _unit, offset, count in group)
                     and group[0][0] % (width - 1) == 0
                     and all(group[i][0] + 1 == group[i + 1][0]
                             for i in range(len(group) - 1)))
            if whole:
                unit_bytes = self.stripe_unit * self.sector_size
                payloads = [data[consumed + i * unit_bytes:
                                 consumed + (i + 1) * unit_bytes]
                            for i in range(width - 1)]
                member_ios += yield from self._full_stripe_write(
                    group[0][0], payloads, priority)
                consumed += unit_bytes * (width - 1)
                index += width - 1
                self.stats.full_stripe_writes += 1
            else:
                unit, offset, count = pieces[index]
                chunk = data[consumed:consumed
                             + count * self.sector_size]
                member_ios += yield from self._small_write(
                    unit, offset, count, chunk, priority)
                consumed += count * self.sector_size
                index += 1
                self.stats.small_writes += 1
        return member_ios

    def _small_write(self, unit: int, offset: Sectors, count: Sectors,
                     chunk: bytes, priority: int,
                     ) -> Generator[Event, Any, int]:
        """Read-modify-write: the RAID-5 small-write penalty.

        Degraded variants keep every acknowledged byte representable:

        * data member lost — the new data exists only through parity,
          so parity is recomputed as XOR(other data units, new data);
        * parity member lost — only the data write is issued (parity is
          reconstructed later by the rebuild).
        """
        data_drive, parity_drive, stripe, member_lba = self._locate(unit)
        target = member_lba + offset
        yield from self._acquire_stripe(stripe)
        try:
            data_disk = self._member(data_drive, stripe)
            parity_disk = self._member(parity_drive, stripe)
            if data_disk is not None and data_drive == self._failed:
                self.stats.spare_writes += 1
            if data_disk is not None and parity_disk is not None:
                # Round 1: read old data and old parity concurrently.
                reads = [data_disk.read(target, count, priority=priority),
                         parity_disk.read(target, count,
                                          priority=priority)]
                yield from self._await_all(reads)
                old_data, old_parity = (reads[0].value.data,
                                        reads[1].value.data)
                new_parity = _xor([old_parity, old_data, chunk])
                # Round 2: write new data and new parity concurrently.
                writes = [data_disk.write(target, chunk,
                                          priority=priority),
                          parity_disk.write(target, new_parity,
                                            priority=priority)]
                yield from self._await_all(writes)
                return len(reads) + len(writes)
            self.stats.degraded_writes += 1
            if parity_disk is None:
                # Parity member lost: the data write alone carries the
                # update; rebuild recomputes parity from data later.
                assert data_disk is not None
                yield data_disk.write(target, chunk, priority=priority)
                return 1
            # Data member lost: fold the new data into parity so a
            # degraded read (XOR of survivors) returns it.  Parity of
            # the written range becomes XOR(other data units, chunk).
            reads = []
            for other in range(len(self.drives)):
                if other in (data_drive, parity_drive):
                    continue
                reads.append(self.drives[other].read(
                    target, count, priority=priority))
            yield from self._await_all(reads)
            new_parity = _xor([event.value.data
                               for event in reads] + [chunk])
            yield parity_disk.write(target, new_parity,
                                    priority=priority)
            return len(reads) + 1
        finally:
            self._release_stripe(stripe)

    def _full_stripe_write(self, first_unit: int,
                           payloads: List[bytes],
                           priority: int) -> Generator[Event, Any, int]:
        """Write a whole stripe: parity computed without reads."""
        parity = _xor(payloads)
        _dd, parity_drive, stripe, member_lba = self._locate(first_unit)
        yield from self._acquire_stripe(stripe)
        try:
            writes = []
            degraded = False
            for piece_index, payload in enumerate(payloads):
                data_drive, _pd, _stripe, _lba = \
                    self._locate(first_unit + piece_index)
                drive = self._member(data_drive, stripe)
                if drive is None:
                    degraded = True
                    continue
                if data_drive == self._failed:
                    self.stats.spare_writes += 1
                writes.append(drive.write(member_lba, payload,
                                          priority=priority))
            parity_disk = self._member(parity_drive, stripe)
            if parity_disk is None:
                degraded = True
            else:
                writes.append(parity_disk.write(member_lba, parity,
                                                priority=priority))
            if degraded:
                self.stats.degraded_writes += 1
            yield from self._await_all(writes)
            return len(writes)
        finally:
            self._release_stripe(stripe)

    def _await_all(
        self, events: Sequence[Event],
    ) -> Generator[Event, Any, None]:
        """Wait for parallel member commands; stray failures defused.

        ``sim.all_of`` defuses only the *first* failing child.  A
        power cut or drive-death storm can fail *several* in-flight
        member commands in the same kernel step — and the siblings'
        failures are processed before this generator gets its throw —
        so every command carries a defuse-on-failure callback from
        birth.  The round's outcome still surfaces through the
        ``all_of`` (its condition fails with the first exception).
        """
        if not events:
            return
        for event in events:
            event.add_callback(_defuse_if_failed)
        try:
            yield self.sim.all_of(events)
        except BaseException:
            _absorb_failures(events)
            raise


def _absorb_failures(events: Sequence[Event]) -> None:
    """Defuse failures of ``events`` that no waiter will consume."""
    for event in events:
        if event.triggered:
            if event.exception is not None:
                event.defuse()
        else:
            event.add_callback(_defuse_if_failed)


def _defuse_if_failed(event: Event) -> None:
    if event.exception is not None:
        event.defuse()


def _xor(buffers: Sequence[bytes]) -> bytes:
    """Bytewise XOR of equal-length buffers."""
    if not buffers:
        raise DiskError("xor of nothing")
    out = bytearray(buffers[0])
    for buffer in buffers[1:]:
        if len(buffer) != len(out):
            raise DiskError("xor length mismatch")
        for index, byte in enumerate(buffer):
            out[index] ^= byte
    return bytes(out)
