"""The stateful simulated disk drive.

A :class:`DiskDrive` owns a command queue (one command serviced at a
time, priority-ordered), the arm/head position, and the sector store.
Service time for each command is computed mechanically:

``command overhead -> seek/head switch -> rotational wait -> transfer``

with the platter's angular position a global function of simulated
time.  This is the property that makes Trail reproducible in software:
if the driver addresses a write at the sector that will be under the
head when the transfer is ready to start, the rotational wait term is
~0; if it mispredicts by even one sector the wait is nearly a full
revolution.  Nothing in the drive knows about Trail — it just services
addressed commands like a real SCSI target.

Commands are serviced by a callback-driven state machine, not by a
process per command.  :meth:`DiskDrive.submit` returns a plain
:class:`~repro.sim.Event`; an idle drive starts service in the same
instant, a busy one parks the command in its queue (see
:mod:`repro.disk.scheduler`).  Each per-track segment is slept in ONE
timeout whose callback lands the sectors, and the last one folds the
statistics, starts the next waiting command and then succeeds the
command's event with its :class:`IoResult` — two kernel events per
command (the timeout and the completion), none for waiting in queue.

Power failure is modelled by :meth:`halt`: the in-flight command is
aborted, whole sectors already transferred persist in the store, and
everything else — including every queued command — is lost.

Media faults are modelled by an optional attached
:class:`~repro.faults.FaultInjector` (see :meth:`attach_faults`).
With one attached, the drive behaves like real hardware: transient
per-sector errors are retried for up to ``retry_limit`` extra
revolutions, unrecoverable write targets are transparently remapped to
spare sectors, unrecoverable reads fail the command with
:class:`~repro.errors.UnrecoverableSectorError`, and silent bit flips
land on the platter with the command still reporting success.  These
run as extra phases of the same machine (overhead, positioning and
transfer become separate sleeps so retries can interleave); with no
injector attached (the default) none of them is entered.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from repro.errors import (
    DiskError, DiskHaltedError, DriveFailedError,
    UnrecoverableSectorError)
from repro.disk.controller import (
    DriveStats, IoResult, Op, PRIORITY_READ, _Command)
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import RotationModel, SeekModel
from repro.disk.scheduler import PriorityQueue
from repro.disk.sectors import SectorStore
from repro.faults.plan import FaultInjector, FaultPlan
from repro.sim import Event, Simulation
from repro.units import Lba, Ms, Sectors, Tracks

#: Constructor bypass for the per-command completion record; the
#: 13-keyword dataclass __init__ is measurable at command rates.
_new_result = IoResult.__new__


class DiskDrive:
    """A single simulated disk drive with its own command queue."""

    def __init__(
        self,
        sim: Simulation,
        geometry: DiskGeometry,
        seek: SeekModel,
        rotation: RotationModel,
        command_overhead_ms: Ms = 0.5,
        store: Optional[SectorStore] = None,
        name: str = "disk",
    ) -> None:
        self.sim = sim
        self.geometry = geometry
        self.seek = seek
        self.rotation = rotation
        self.command_overhead_ms = command_overhead_ms
        self.store = store if store is not None else SectorStore(
            geometry.total_sectors, geometry.sector_size)
        self.name = name
        self.stats = DriveStats()
        #: Commands waiting behind the one in service.
        self._queue = PriorityQueue()
        self._position_cylinder = 0
        self._position_head = 0
        self._halted = False
        self._dead = False
        # The service machine: everything below describes the ONE
        # command in service and changes only inside submit(), the
        # wakeup callback and halt()/fail() — never across a yield.
        #: The command in service; None while the drive is idle.
        self._active: Optional[_Command] = \
            None  # trailsan: atomic_group(drive-service)
        #: The timeout the machine sleeps on.  A timeout that fires
        #: while not being this one was left in the heap by an aborted
        #: command and is ignored.
        self._wakeup: Optional[Event] = \
            None  # trailsan: atomic_group(drive-service)
        #: What to do with the active command when ``_wakeup`` fires.
        self._then: Callable[[_Command], None] = \
            self._segment_landed  # trailsan: atomic_group(drive-service)
        #: Pre-bound wakeup callback (binding per sleep allocates).
        self._wake: Callable[[Event], None] = self._on_wakeup
        #: The segment being serviced: the contiguous same-track span
        #: of the active command starting at ``_segment_lba``.  The
        #: next segment starts where this one ends.
        self._segment_lba: Lba = 0
        self._segment_sectors: Sectors = 0
        #: Where the arm lands once the current segment's positioning
        #: is over, and that track's per-sector transfer time.
        self._target_cylinder = 0
        self._target_head = 0
        self._sector_time: Ms = 0.0
        #: Instant the current segment's transfer starts (may be in
        #: the future), or None when the sleep covers no transfer.
        self._transfer_started: Optional[Ms] = None
        #: Injector attached: the sector of the segment being checked
        #: and the re-attempts spent on it so far.
        self._sector_index = 0
        self._attempts = 0
        #: Media-fault injector; None means the drive is perfect and
        #: a segment is one sleep.
        self.faults: Optional[FaultInjector] = None

    # ------------------------------------------------------------------
    # Fault injection

    def attach_faults(
        self, plan: Union[FaultPlan, FaultInjector],
    ) -> FaultInjector:
        """Attach a fault plan (or a prebuilt injector) to this drive.

        Returns the injector so tests can inspect its audit trail.
        Attaching ``FaultPlan()`` (all probabilities zero) exercises
        the hardened code paths without injecting anything.
        """
        if isinstance(plan, FaultInjector):
            self.faults = plan
        else:
            self.faults = FaultInjector(plan, drive_name=self.name)
        return self.faults

    def relocate(self, lba: Lba, nsectors: Sectors) -> Sectors:
        """Force-remap every unrecoverable sector in an extent to spares.

        Used by upper layers (the write-back scheduler) to relocate a
        persistently failing write target before retrying it.  A pure
        controller-metadata operation: costs no simulated time.
        Returns the number of sectors remapped; 0 when no injector is
        attached, the extent is healthy, or the spare pool is empty.
        """
        faults = self.faults
        if faults is None:
            return 0
        remapped = 0
        for address in range(lba, lba + nsectors):
            if address in faults.bad_sectors and faults.remap(address):
                self.stats.sectors_remapped += 1
                remapped += 1
        return remapped

    # ------------------------------------------------------------------
    # Public command API

    def read(self, lba: Lba, nsectors: Sectors,
             priority: int = PRIORITY_READ) -> Event:
        """Submit a read command; the returned event yields an IoResult."""
        return self.submit(Op.READ, lba, nsectors, priority=priority)

    def write(
        self, lba: Lba, data: bytes, priority: int = PRIORITY_READ,
    ) -> Event:
        """Submit a write command for ``data`` (padded to whole sectors)."""
        sector_size = self.geometry.sector_size
        nsectors = max(1, (len(data) + sector_size - 1) // sector_size)
        pad = nsectors * sector_size - len(data)
        # Already sector-aligned payloads (page writes, WAL chunks,
        # trail records) skip the pad concatenation — that copy was
        # the single largest allocation per aligned write.
        padded = data + bytes(pad) if pad else data
        return self.submit(Op.WRITE, lba, nsectors, data=padded,
                           priority=priority)

    def submit(
        self,
        op: Op,
        lba: Lba,
        nsectors: Sectors,
        data: Optional[bytes] = None,
        priority: int = PRIORITY_READ,
    ) -> Event:
        """Queue one command; the event succeeds with :class:`IoResult`.

        The event fails with :class:`DiskHaltedError` if power is lost
        while the command is queued or in flight (or was already off),
        and with :class:`DriveFailedError` if the whole drive dies.
        """
        self.geometry.check_extent(lba, nsectors)
        if op is Op.WRITE:
            if data is None or len(data) != nsectors * self.geometry.sector_size:
                raise ValueError(
                    "write data must be exactly nsectors * sector_size bytes")
        sim = self.sim
        event = sim.event()
        now = sim.now
        command = _Command(op, lba, nsectors, data, priority, event, now)
        if self._dead or self._halted:
            event.fail(self._lost(command, "before %s was accepted"))
        elif self._active is None:
            self._start(command, now)
        else:
            self._queue.push(command)
        return event

    # ------------------------------------------------------------------
    # Power failure

    @property
    def halted(self) -> bool:
        """True while the drive is powered off."""
        return self._halted

    def halt(self) -> None:
        """Cut power: abort the in-flight command, keep transferred sectors."""
        if self._halted:
            return
        self._halted = True
        self._abort_all()

    def power_on(self) -> None:
        """Restore power after :meth:`halt`; the platter state persists.

        A drive that :meth:`fail`-ed stays dead through a power cycle:
        power is not what it lost.
        """
        self._halted = False

    # ------------------------------------------------------------------
    # Whole-drive failure

    @property
    def dead(self) -> bool:
        """True while the whole drive has failed (see :meth:`fail`)."""
        return self._dead

    def fail(self) -> None:
        """Kill the whole drive: every in-flight and future command fails.

        Models drive-level death (electronics, spindle, firmware):
        commands in flight abort with
        :class:`~repro.errors.DriveFailedError` and every new command
        fails the same way until :meth:`revive`.  Whole sectors already
        transferred before the failure persist on the platter — they
        are just unreachable while the drive is dead.  Unlike
        :meth:`halt`, :meth:`power_on` does not help; only
        :meth:`revive` (a flapping drive's up-edge) does.
        """
        if self._dead:
            return
        self._dead = True
        self._abort_all()

    def revive(self) -> None:
        """Bring a failed drive back — a flapping drive's up-edge.

        The platter holds whatever it held at failure time; every write
        issued while the drive was dead never happened.  Array layers
        must therefore treat a revived member as *stale* and rebuild it
        before trusting its contents.
        """
        self._dead = False

    # ------------------------------------------------------------------
    # Introspection used by tests and benchmarks (not by Trail itself —
    # the whole point of §3.1 is that software must *predict* this)

    @property
    def position_track(self) -> Tracks:
        """Track the head currently sits on."""
        return self.geometry.track_of(self._position_cylinder,
                                      self._position_head)

    @property
    def queue_length(self) -> int:
        """Commands waiting behind the one in service."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Service machine

    def _start(self, command: _Command, now: Ms) -> None:
        """Begin servicing ``command`` now; the drive is idle and up."""
        self._active = command
        command.started_at = now
        self._segment_lba = command.lba
        self._segment_sectors = 0
        faults = self.faults
        if faults is None:
            self._begin_segment(command, self.command_overhead_ms)
            return
        # Injector attached: the command overhead (plus any injected
        # spike) is its own sleep, as are positioning and transfer.
        overhead = self.command_overhead_ms
        spike = faults.command_spike_ms()
        if spike > 0.0:
            self.stats.latency_spikes += 1
            overhead += spike
        self._sleep(overhead, self._begin_segment)

    def _sleep(self, delay: Ms, then: Callable[[_Command], None],
               transfer_started: Optional[Ms] = None) -> None:
        """Sleep ``delay`` ms, then run ``then`` on the active command."""
        self._then = then
        self._transfer_started = transfer_started
        self._wakeup = wakeup = self.sim.timeout(delay)
        wakeup.add_callback(self._wake)

    def _on_wakeup(self, wakeup: Event) -> None:
        command = self._active
        if wakeup is self._wakeup and command is not None:
            self._then(command)

    def _begin_segment(self, command: _Command, pre: Ms = 0.0) -> None:
        """Start the next per-track segment, ``pre`` ms of overhead first.

        Fault-free, the whole mechanical sequence (overhead, seek/head
        switch, rotational wait, transfer) is slept in one timeout: the
        phase durations are computed up front — the rotational wait is
        evaluated at the instant the transfer would be ready to start —
        so completion times, disk images and every latency stat equal a
        phase-by-phase walk.
        """
        geometry = self.geometry
        first_lba = self._segment_lba + self._segment_sectors
        track, track_start, spt = geometry.track_extent_of_lba(first_lba)
        nsectors = min(track_start + spt,
                       command.lba + command.nsectors) - first_lba
        self._segment_lba = first_lba
        self._segment_sectors = nsectors
        cylinder, head, _spt, _track_start = geometry.track_info(track)
        sector_time = self.rotation.sector_time(spt)
        move = self.seek.reposition_time(
            self._position_cylinder, self._position_head, cylinder, head)
        now = self.sim.now
        rotation_wait = self.rotation.time_until_sector(
            now + pre + move, first_lba - track_start, spt)
        transfer = nsectors * sector_time
        command.seek_ms += move
        command.rotation_ms += rotation_wait
        command.transfer_ms += transfer
        self._target_cylinder = cylinder
        self._target_head = head
        self._sector_time = sector_time
        if self.faults is None:
            self._sleep(pre + move + rotation_wait + transfer,
                        self._segment_landed,
                        now + pre + move + rotation_wait)
        elif move + rotation_wait > 0:
            self._sleep(move + rotation_wait, self._begin_transfer)
        else:
            self._begin_transfer(command)

    def _segment_landed(self, command: _Command) -> None:
        """Fault-free: the segment's sleep is over; its sectors land."""
        self._position_cylinder = self._target_cylinder
        self._position_head = self._target_head
        if command.data is not None:
            self._land(command, self._segment_sectors)
        self._next_segment(command)

    def _land(self, command: _Command, nsectors: Sectors) -> None:
        """Put the first ``nsectors`` sectors of a write's current
        segment on the platter."""
        data = command.data
        if data is not None and command.op is Op.WRITE and nsectors > 0:
            sector_size = self.geometry.sector_size
            first_lba = self._segment_lba
            offset = (first_lba - command.lba) * sector_size
            self.store.write(
                first_lba, data[offset:offset + nsectors * sector_size])

    def _next_segment(self, command: _Command) -> None:
        if (self._segment_lba + self._segment_sectors
                < command.lba + command.nsectors):
            self._begin_segment(command)
        else:
            self._complete(command)

    def _complete(self, command: _Command) -> None:
        """Fold the finished command into the stats and acknowledge it."""
        op = command.op
        lba = command.lba
        nsectors = command.nsectors
        faults = self.faults
        if faults is not None and op is Op.WRITE:
            faults.grow_defect(lba, nsectors)
        # Inlined IoResult construction and stats fold: one completion
        # record per command, with the aggregates updated from the
        # locals already in hand instead of re-reading them back out
        # of the dataclass.
        completed_at = self.sim.now
        started_at = command.started_at
        overhead_ms = self.command_overhead_ms
        queue_ms = started_at - command.enqueued_at
        result = _new_result(IoResult)
        result.op = op
        result.lba = lba
        result.nsectors = nsectors
        result.enqueued_at = command.enqueued_at
        result.started_at = started_at
        result.completed_at = completed_at
        result.queue_ms = queue_ms
        result.overhead_ms = overhead_ms
        result.seek_ms = command.seek_ms
        result.rotation_ms = command.rotation_ms
        result.transfer_ms = command.transfer_ms
        stats = self.stats
        if op is Op.READ:
            result.data = self.store.read(lba, nsectors)
            stats.reads += 1
            stats.sectors_read += nsectors
        else:
            result.data = None
            stats.writes += 1
            stats.sectors_written += nsectors
        stats.busy_ms += completed_at - started_at
        stats.queue_ms += queue_ms
        stats.seek_ms += command.seek_ms
        stats.rotation_ms += command.rotation_ms
        stats.transfer_ms += command.transfer_ms
        stats.overhead_ms += overhead_ms
        self._release()
        command.event.succeed(result)

    def _release(self) -> None:
        """The active command is over: start the next waiting one."""
        self._wakeup = None
        if self._queue:
            self._start(self._queue.next_command(), self.sim.now)
        else:
            self._active = None

    # -- aborts --------------------------------------------------------

    def _lost(self, command: _Command, when: str) -> DiskError:
        """The failure for a command lost to drive death or power loss.

        ``when`` is a ``%s`` template around the command's name.
        Counts the loss — once per command, in ``dead_commands`` or
        ``halted_commands``; death wins when the drive is both dead
        and powered off.
        """
        when = when % f"{command.op.value}@{command.lba}"
        if self._dead:
            self.stats.dead_commands += 1
            return DriveFailedError(
                f"{self.name}: drive failed {when}", lba=command.lba)
        self.stats.halted_commands += 1
        return DiskHaltedError(f"{self.name}: power lost {when}")

    def _abort_all(self) -> None:
        """Power or the drive is gone: fail the active command, then the
        queue in service order.  Nothing is left to wake up for."""
        command = self._active
        if command is not None:
            self._active = None
            self._wakeup = None
            started = self._transfer_started
            if started is None or self.sim.now < started:
                # Outside a transfer (overhead/seek/rotation, or a
                # retry revolution): nothing more persists.
                when = "during %s"
            else:
                # Mid-transfer: the whole sectors already transferred
                # persist, the rest of the command is lost.
                completed = min(self._segment_sectors, int(math.floor(
                    (self.sim.now - started) / self._sector_time + 1e-9)))
                self._land(command, completed)
                when = (f"after {completed}/{self._segment_sectors} "
                        f"sectors of %s")
            command.event.fail(self._lost(command, when))
        for command in self._queue.drain():
            command.event.fail(self._lost(command, "while %s was queued"))

    # -- phases entered only with an injector attached -----------------

    def _begin_transfer(self, command: _Command) -> None:
        """The arm has settled on the target track: sleep the transfer."""
        self._position_cylinder = self._target_cylinder
        self._position_head = self._target_head
        self._sector_index = 0
        self._attempts = 0
        self._sleep(self._segment_sectors * self._sector_time,
                    self._check_sectors, self.sim.now)

    def _land_remapped(self, command: _Command) -> None:
        self._check_sectors(command, remapped=True)

    def _check_sectors(self, command: _Command,
                       remapped: bool = False) -> None:
        """Fault-aware tail of one segment's service.

        Entered when the nominal transfer time has elapsed and
        re-entered after every extra revolution.  Each sector is
        checked against the injector: transient failures and
        unrecoverable (bad) sectors are retried for up to
        ``retry_limit`` extra revolutions each; a write whose target is
        still failing is remapped to a spare sector (``remapped``: the
        revolution to reach it is over, the sector lands unchecked),
        and a read (or a write with the spare pool exhausted) fails the
        whole command with :class:`UnrecoverableSectorError`.  Sectors
        that succeeded before the failing one persist, like a real
        partially-completed command.  Write data may be silently
        bit-flipped as it lands.
        """
        faults = self.faults
        assert faults is not None  # phases only entered with an injector
        stats = self.stats
        first_lba = self._segment_lba
        nsectors = self._segment_sectors
        revolution = self.rotation.rotation_ms
        sector_size = self.geometry.sector_size
        data = command.data
        write = command.op is Op.WRITE
        index = self._sector_index
        while index < nsectors:
            address = first_lba + index
            if remapped:
                remapped = False
            elif address in faults.bad_sectors \
                    or self._attempt_fails(faults, write):
                self._sector_index = index
                if self._attempts < faults.plan.retry_limit:
                    self._attempts += 1
                    stats.retries += 1
                    self._sleep(revolution, self._check_sectors)
                elif write and faults.remap(address):
                    # The controller redirected the target to a
                    # spare; one more revolution to reach it.
                    stats.sectors_remapped += 1
                    stats.retries += 1
                    self._sleep(revolution, self._land_remapped)
                else:
                    if write:
                        stats.write_errors += 1
                    else:
                        stats.read_errors += 1
                    self._release()
                    command.event.fail(UnrecoverableSectorError(
                        f"{self.name}: unrecoverable {command.op.value} "
                        f"at LBA {address} after {self._attempts} "
                        f"retries", lba=address))
                return
            if write and data is not None:
                offset = (address - command.lba) * sector_size
                raw, _corrupted = faults.corrupt_sector(
                    address, data[offset:offset + sector_size])
                self.store.write_sector(address, raw)
            index += 1
            self._attempts = 0
        self._next_segment(command)

    def _attempt_fails(self, faults: FaultInjector, write: bool) -> bool:
        """Draw one transient-failure decision and count a hit."""
        failed = faults.attempt_fails(write)
        if failed:
            self.stats.transient_errors += 1
        return failed
