"""The Trail block-device driver (§4).

A :class:`TrailDriver` fronts one log disk and one or more data disks.
Synchronous writes are acknowledged as soon as they reach the log disk
— at the sector the head-position predictor says is about to pass under
the head — and are propagated to their data disks asynchronously from
the staging buffer.  Reads are served from the staging buffer when
possible and otherwise go to the data disks at high priority.

The driver exposes the same interface as a plain disk driver (``read``/
``write`` by LBA), "thus hiding all the operational details of Trail
from the file system"; the only observable difference is that
synchronous writes complete in roughly transfer time plus command
overhead instead of paying seek and rotational latency.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Any, Deque, Dict, Generator, List, Mapping, Optional, Tuple)

from repro.blockdev import BlockDevice, DataTarget
from repro.core.allocator import TrackAllocator, TrackRing
from repro.core.buffer import BufferManager, LiveRecord
from repro.core.config import MAX_TRAIL_BATCH, TrailConfig
from repro.core.format import (
    LogDiskHeader, NULL_LBA, PAYLOAD_FIRST_BYTE, decode_disk_header,
    decode_geometry, encode_disk_header, encode_geometry,
    encode_record_stream)
from repro.core.prediction import HeadPositionPredictor
from repro.units import LogLba
from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.core.writeback import WritebackScheduler
from repro.disk.controller import PRIORITY_READ
from repro.disk.drive import DiskDrive
from repro.disk.geometry import DiskGeometry
from repro.errors import (
    DiskHaltedError, LogDiskFullError, LogFormatError, MediaError,
    NotATrailDiskError, TrailError)
from repro.sim import (
    Event, Interrupt, LatencyRecorder, Process, Simulation, Store)


@dataclass
class TrailStats:
    """Aggregate measurements exposed by a driver instance."""

    #: End-to-end latency of every acknowledged synchronous write.
    sync_writes: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(keep_samples=True))
    #: Payload sectors per physical log write (the realized batch size).
    batch_sizes: LatencyRecorder = field(default_factory=LatencyRecorder)
    physical_log_writes: int = 0
    logical_writes: int = 0
    repositions: int = 0
    reads_from_buffer: int = 0
    reads_from_disk: int = 0
    log_full_stalls: int = 0
    #: Unrecoverable media errors on the log disk (drive-level retries
    #: and spare remapping already exhausted).
    log_media_errors: int = 0
    #: Writes acknowledged via the degraded synchronous write-through
    #: path after the log disk was abandoned.
    degraded_writes: int = 0


class _PendingWrite:
    """One logical synchronous write moving through the log pipeline."""

    __slots__ = ("disk_id", "lba", "data", "nsectors", "arrival", "event",
                 "remaining", "assigned", "records")

    def __init__(self, disk_id: int, lba: int, data: bytes, nsectors: int,
                 arrival: float, event: Event) -> None:
        self.disk_id = disk_id
        self.lba = lba
        self.data = data
        self.nsectors = nsectors
        self.arrival = arrival
        self.event = event
        #: Payload sectors not yet covered by a completed log write.
        self.remaining = nsectors
        #: Payload sectors already assigned to a record being emitted
        #: (a request larger than one record spans several).
        self.assigned = 0
        #: Log records carrying pieces of this write.
        self.records: List[LiveRecord] = []


def reserved_layout(
    geometry: DiskGeometry,
) -> Tuple[List[int], TrackRing]:
    """Compute (header LBAs, usable tracks) for a log disk.

    The layout is a function of the geometry alone, so format and
    every later mount agree on it.  The primary header lives at sector
    0 of track 0 with the geometry record right after it, and the first
    two tracks are reserved (§3.2: "stored at the first track ... also
    replicated at several other places"); two replicas are spread
    evenly across the disk "to improve the robustness".  Reserved and
    replica tracks are excluded from the circular log, which comes back
    as an arithmetic ring: position -> track, O(reserved tracks)
    however large the disk.
    """
    replicas = 2
    reserved = {0, 1}
    header_lbas = [geometry.track_first_lba(0)]
    for index in range(1, replicas + 1):
        track = (index * geometry.num_tracks) // (replicas + 1)
        track = min(track, geometry.num_tracks - 1)
        if track not in reserved:
            reserved.add(track)
            header_lbas.append(geometry.track_first_lba(track))
    usable = TrackRing(geometry.num_tracks, reserved)
    if not usable:
        raise TrailError("no usable log tracks after reservation")
    return header_lbas, usable


class TrailDriver(BlockDevice):
    """Low-write-latency block device built on track-based logging."""

    def __init__(
        self,
        sim: Simulation,
        log_drive: DiskDrive,
        data_disks: Mapping[int, DataTarget],
        config: Optional[TrailConfig] = None,
    ) -> None:
        if not data_disks:
            raise TrailError("Trail needs at least one data disk")
        self.sim = sim
        self.log_drive = log_drive
        self.data_disks: Dict[int, DataTarget] = dict(data_disks)
        self.config = config or TrailConfig()
        self.stats = TrailStats()

        self.geometry: Optional[DiskGeometry] = None
        self.epoch: Optional[int] = None
        self.allocator: Optional[TrackAllocator] = None
        self.predictor: Optional[HeadPositionPredictor] = None
        self.buffers = BufferManager(self._on_record_released)
        self.writeback = WritebackScheduler(
            sim, self.data_disks, self.buffers)
        self.writeback.on_idle = self._on_writeback_idle
        self.last_recovery: Optional[RecoveryReport] = None

        self._header_lbas: List[int] = []
        self._log_queue: Store = Store(sim)
        #: Requests accepted but not yet acknowledged (queued or being
        #: assembled into records); failed wholesale on a crash.
        self._unacked: Dict[int, _PendingWrite] = {}
        # The tail chain: the newest record's in-memory entry and the
        # prev_sect link the next record will carry must move together;
        # recovery reads them as one invariant.  _next_sequence stays
        # *outside* the group — it increments before the platter write
        # so a torn write can never reuse a sequence id.
        self._live_records: "OrderedDict[int, LiveRecord]" = \
            OrderedDict()  # trailsan: atomic_group(tail-chain)
        self._next_sequence = 0
        self._last_record_lba = NULL_LBA  # trailsan: atomic_group(tail-chain)
        self._physical_track: Optional[int] = None
        self._track_freed: Optional[Event] = None
        self._last_activity = 0.0
        self._writer_busy = False
        self._degraded = False
        #: Events armed by flush() waiting for the pipeline to drain.
        self._flush_waiters: List[Event] = []
        #: Events armed by the degraded-mode transition waiting for the
        #: write-back scheduler alone to go quiescent.
        self._writeback_waiters: List[Event] = []
        self._mounted = False
        self._writer_process: Optional[Process] = None
        self._repositioner_process: Optional[Process] = None

        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.add_transition("tail-chain", self._san_tail_probe,
                                     self._san_tail_judge)
            sanitizer.add_invariant("pinned-accounting",
                                    self.buffers.accounting_error)

    # ------------------------------------------------------------------
    # Formatting and mounting

    @staticmethod
    def format_disk(log_drive: DiskDrive) -> None:
        """Offline format: wipe the disk, write header + geometry (§4.1)."""
        geometry = log_drive.geometry
        header_lbas, _usable = reserved_layout(geometry)
        log_drive.store.clear()
        header = encode_disk_header(LogDiskHeader(epoch=0, crash_var=1),
                                    geometry.sector_size)
        geometry_sector = encode_geometry(geometry, geometry.sector_size)
        for lba in header_lbas:
            log_drive.store.write_sector(lba, header)
            log_drive.store.write_sector(lba + 1, geometry_sector)

    def mount(self) -> Generator[Event, Any, Optional[RecoveryReport]]:
        """Bring the driver online; run as a sim process.

        Reads the log-disk header, runs crash recovery if the previous
        session did not shut down cleanly, opens a new epoch, anchors
        the head-position predictor, and starts the background
        processes.  Returns the :class:`RecoveryReport` if recovery ran,
        else None.
        """
        if self._mounted:
            raise TrailError("driver is already mounted")
        geometry = self.log_drive.geometry
        self._header_lbas, usable_tracks = reserved_layout(geometry)

        # Take the first header copy that reads and decodes (fault-free:
        # one read).  Any will do: copies are written primary first and
        # writes acknowledged only while all carry this epoch with
        # crash_var = 0, so a stale one differs only where re-running an
        # idempotent recovery, or skipping an empty one, is right (FAULTS.md).
        failure: Optional[Exception] = None
        for lba in self._header_lbas:
            try:
                image = (yield self.log_drive.read(lba, 2)).data
                header = decode_disk_header(image[:geometry.sector_size])
                stored_geometry = decode_geometry(
                    image[geometry.sector_size:])
                break
            except (MediaError, LogFormatError) as exc:
                failure = failure or exc
        else:
            if isinstance(failure, MediaError):
                raise failure
            raise NotATrailDiskError(
                f"log disk is not Trail-formatted: {failure}") from failure
        if stored_geometry.total_sectors != geometry.total_sectors:
            raise NotATrailDiskError(
                "on-disk geometry record does not match the drive")
        self.geometry = stored_geometry

        report: Optional[RecoveryReport] = None
        if header.crash_var == 0:
            recovery = RecoveryManager(
                self.sim, self.log_drive, self.geometry,
                usable_tracks, epoch=header.epoch,
                data_disks=self.data_disks, config=self.config)
            report = yield from recovery.run()
            self.last_recovery = report

        self.epoch = header.epoch + 1
        yield from self._write_headers(crash_var=0)

        self.allocator = TrackAllocator(stored_geometry, usable_tracks)
        self.predictor = HeadPositionPredictor(
            stored_geometry,
            rotation_ms=self.log_drive.rotation.rotation_ms,
            delta_sectors=self._default_delta())
        self._next_sequence = 0
        self._last_record_lba = NULL_LBA
        self._live_records.clear()
        self._mounted = True
        self._last_activity = self.sim.now

        yield from self._anchor_reference()
        self._writer_process = self.sim.process(
            self._log_writer(), name="trail-log-writer")
        self.writeback.start()
        if self.config.idle_reposition_interval_ms > 0:
            self._repositioner_process = self.sim.process(
                self._idle_repositioner(), name="trail-repositioner")
        return report

    def _default_delta(self) -> int:
        """Initial δ estimate from the drive's fixed command overhead.

        ``HeadPositionPredictor.calibrate`` measures the real value (the
        paper's procedure); this estimate — overhead expressed in
        sector times, plus one sector for the floor() in the prediction
        formula, plus one sector of slack — seeds the predictor so a
        driver is usable without a calibration pass.
        """
        geometry = self.geometry
        assert geometry is not None
        outer_spt = max(zone.sectors_per_track for zone in geometry.zones)
        sector_time = self.log_drive.rotation.rotation_ms / outer_spt
        overhead_sectors = int(self.log_drive.command_overhead_ms
                               / sector_time) + 1
        return overhead_sectors + 1 + 1

    def _write_headers(self, crash_var: int) -> Generator[Event, Any, None]:
        """Persist the global header (and replicas) with ``crash_var``;
        every copy is attempted before the first media error is raised."""
        geometry = self.geometry
        epoch = self.epoch
        assert geometry is not None and epoch is not None
        sector = encode_disk_header(
            LogDiskHeader(epoch=epoch, crash_var=crash_var),
            geometry.sector_size)
        geometry_sector = encode_geometry(geometry, geometry.sector_size)
        failure: Optional[MediaError] = None
        for lba in self._header_lbas:
            try:
                yield self.log_drive.write(lba, sector + geometry_sector)
            except MediaError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    # Public block-device interface

    @property
    def mounted(self) -> bool:
        """True while the driver is serving requests."""
        return self._mounted

    @property
    def sector_size(self) -> int:
        """Sector size of the managed disks."""
        return self.log_drive.geometry.sector_size

    def write(self, lba: int, data: bytes, disk_id: int = 0) -> Event:
        """Synchronous write: the event fires once the data is durable.

        The event's value is the write's end-to-end latency in ms.
        """
        self._check_mounted()
        disk = self._data_disk(disk_id)
        if not data:
            raise TrailError("cannot write an empty extent")
        sector_size = self.sector_size
        nsectors = (len(data) + sector_size - 1) // sector_size
        disk.geometry.check_extent(lba, nsectors)
        pad = nsectors * sector_size - len(data)
        padded = data + bytes(pad) if pad else data
        event = self.sim.event()
        request = _PendingWrite(disk_id, lba, padded, nsectors,
                                self.sim.now, event)
        self.stats.logical_writes += 1
        self._unacked[id(request)] = request
        self._log_queue.put(request)
        return event

    def read(self, lba: int, nsectors: int, disk_id: int = 0) -> Event:
        """Read: served from the staging buffer or the data disk (§4.3).

        The event's value is the data bytes.
        """
        self._check_mounted()
        disk = self._data_disk(disk_id)
        disk.geometry.check_extent(lba, nsectors)
        cached = self.buffers.get_cached(disk_id, lba, nsectors)
        if cached is not None:
            self.stats.reads_from_buffer += 1
            event = self.sim.event()
            event.succeed(cached)
            return event
        self.stats.reads_from_disk += 1
        return self.sim.process(
            self._read_through(disk, disk_id, lba, nsectors),
            name="trail-read")

    def _read_through(self, disk: DataTarget, disk_id: int,
                      lba: int, nsectors: int) -> Generator[Event, Any, bytes]:
        result = yield disk.read(lba, nsectors, priority=PRIORITY_READ)
        data = bytearray(result.data)
        sector_size = self.sector_size
        # Overlay any pinned pages that overlap: the buffer holds newer
        # contents than the data disk until write-back commits.
        for page in self.buffers.find_covering(disk_id, lba, nsectors):
            overlap_start = max(lba, page.lba)
            overlap_end = min(lba + nsectors, page.lba + page.nsectors)
            for sector in range(overlap_start, overlap_end):
                src = (sector - page.lba) * sector_size
                dst = (sector - lba) * sector_size
                data[dst:dst + sector_size] = page.data[src:src + sector_size]
        return bytes(data)

    @property
    def degraded(self) -> bool:
        """True once the log disk has been abandoned and every write
        goes synchronously to its data disk (write-through mode)."""
        return self._degraded

    def flush(self) -> Generator[Event, Any, None]:
        """Wait until every acknowledged write reached its data disk.

        Event-driven: each waiter parks on an event that the log writer
        and the write-back scheduler fire when they go idle, instead of
        polling the pipeline state on a timer.
        """
        self._check_mounted()
        while not self._is_quiet():
            event = self.sim.event()
            self._flush_waiters.append(event)
            yield event

    def _is_quiet(self) -> bool:
        """Nothing queued, being written, or awaiting write-back."""
        return (len(self._log_queue) == 0 and not self._writer_busy
                and self.writeback.quiescent)

    def _notify_idle(self) -> None:
        """Wake flush() waiters if the whole pipeline has drained."""
        if self._flush_waiters and self._is_quiet():
            self._wake(self._flush_waiters)

    def _on_writeback_idle(self) -> None:
        """The write-back scheduler went quiescent."""
        if self._writeback_waiters:
            self._wake(self._writeback_waiters)
        self._notify_idle()

    @staticmethod
    def _wake(waiters: List[Event]) -> None:
        """Succeed every parked event that has not fired; empty the list."""
        parked = waiters[:]
        waiters.clear()
        for event in parked:
            if not event.triggered:
                event.succeed()

    def clean_shutdown(self) -> Generator[Event, Any, None]:
        """Flush everything and mark the log disk clean (§3.3).

        The clean marker is withheld when the log disk is degraded (it
        may be unwritable, and is already marked clean if the
        transition managed it) or when parked write-back failures mean
        the log still holds the only copy of some sectors — leaving
        ``crash_var == 0`` forces the next mount through recovery,
        which replays or reports them instead of silently discarding.
        """
        yield from self.flush()
        self._stop_background()
        if not self._degraded:
            yield from self._mark_log_clean()
        self._mounted = False

    def _mark_log_clean(self) -> Generator[Event, Any, None]:
        """Write ``crash_var = 1``, unless parked write-back failures
        keep their only durable copy on the log disk: then the log must
        stay dirty so the next mount replays or reports them."""
        if self.writeback.failed_pages:
            return
        try:
            yield from self._write_headers(crash_var=1)
        except MediaError:
            self.stats.log_media_errors += 1

    def crash(self) -> None:
        """Inject a power failure: processes die, host memory is lost.

        The sector stores keep whatever physically reached the platters;
        a subsequent :meth:`mount` (on a fresh driver over the same
        drives) will find ``crash_var == 0`` and run recovery.
        """
        self._stop_background()
        self._mounted = False
        self._log_queue.drain()
        for request in list(self._unacked.values()):
            self._fail_request(request, DiskHaltedError("power failure"))
        self.buffers.drop_all()
        self._wake(self._flush_waiters)
        self._wake(self._writeback_waiters)
        self.log_drive.halt()
        for disk in self.data_disks.values():
            disk.halt()
        if self.sim.sanitizer is not None:
            self.sim.sanitizer.retire(self, self.buffers, self.writeback)

    def _stop_background(self) -> None:
        for process in (self._writer_process, self._repositioner_process):
            if process is not None and process.is_alive:
                process.interrupt("shutdown")
        self._writer_process = None
        self._repositioner_process = None
        self.writeback.stop()

    # ------------------------------------------------------------------
    # Log-writer process (§4.2)

    def _log_writer(self) -> Generator[Event, Any, None]:
        try:
            while True:
                first = yield self._log_queue.get()
                self._writer_busy = True
                pending: Deque[_PendingWrite] = deque([first])
                pending.extend(self._log_queue.drain())
                while pending:
                    if self._degraded:
                        yield from self._write_through(list(pending))
                        pending.clear()
                    else:
                        yield from self._write_record(pending)
                    pending.extend(self._log_queue.drain())
                self._writer_busy = False
                self._last_activity = self.sim.now
                self._notify_idle()
        except (Interrupt, DiskHaltedError):
            self._writer_busy = False

    def _write_record(
        self, pending: Deque[_PendingWrite],
    ) -> Generator[Event, Any, None]:
        """Assemble one write record from ``pending`` and put it on disk."""
        allocator = self.allocator
        predictor = self.predictor
        assert allocator is not None and predictor is not None
        # Ensure the current track can hold a header plus >= 1 payload
        # sector; otherwise move on (writes pay the switch themselves).
        while allocator.largest_free_run() < 2:
            yield from self._advance_track()

        capacity = min(MAX_TRAIL_BATCH, allocator.largest_free_run() - 1)
        spans: List[Tuple[_PendingWrite, int, int]] = []
        total = 0
        while pending and total < capacity:
            request = pending[0]
            take = min(request.nsectors - request.assigned, capacity - total)
            spans.append((request, request.assigned, take))
            request.assigned += take
            total += take
            if request.assigned == request.nsectors:
                pending.popleft()

        track = allocator.current_track
        predicted = predictor.predict_sector(
            self.sim.now + self._pending_move_ms(track), track)
        start_sector = allocator.place(predicted, 1 + total)
        if start_sector is None:
            # The record was sized to the largest free run above, with
            # no yield since: a refusal is an allocator bug, not a full
            # track to move on from.
            raise TrailError(
                f"record of {1 + total} sectors does not fit track "
                f"{track} with a free run of "
                f"{allocator.largest_free_run()}")
        header_lba = allocator.commit_placement(start_sector, 1 + total)
        yield from self._emit_record(header_lba, track, spans, total, pending)
        if not self._degraded:
            yield from self._after_record(pending)

    def _after_record(
        self, pending: Deque[_PendingWrite],
    ) -> Generator[Event, Any, None]:
        """Post-record track maintenance (§4.2's interrupt handler).

        Past the utilization threshold the tail advances to the next
        track; the explicit repositioning *read* is issued only when no
        request is waiting — a queued request's own write moves the
        head, so the read would be pure added latency.
        """
        allocator = self.allocator
        assert allocator is not None
        if (allocator.utilization()
                < self.config.track_utilization_threshold):
            return
        yield from self._advance_track()
        if not pending and len(self._log_queue) == 0:
            yield from self._reposition_read()

    def _emit_record(
        self,
        header_lba: int,
        track: int,
        spans: List[Tuple[_PendingWrite, int, int]],
        total: int,
        pending: Deque[_PendingWrite],
    ) -> Generator[Event, Any, None]:
        predictor = self.predictor
        epoch = self.epoch
        assert predictor is not None and epoch is not None
        sector_size = self.sector_size
        sequence = self._next_sequence
        self._next_sequence += 1

        record = LiveRecord(sequence_id=sequence, track=track,
                            header_lba=LogLba(header_lba), nsectors=total)
        if self._live_records:
            log_head = next(iter(self._live_records.values())).header_lba
        else:
            log_head = header_lba

        # Flattened (first_data_byte, log_lba, data_lba, major, minor)
        # tuples plus one contiguous masked-payload buffer, straight
        # into encode_record_stream: each span is one slice copy and one
        # zip over its strided first bytes, and one strided assignment
        # masks every sector of the record.
        entries: List[Tuple[int, int, int, int, int]] = []
        body = bytearray(total * sector_size)
        pos = 0
        for request, offset, count in spans:
            nbytes = count * sector_size
            start = offset * sector_size
            body[pos:pos + nbytes] = request.data[start:start + nbytes]
            log_lba = header_lba + 1 + pos // sector_size
            data_lba = request.lba + offset
            entries += zip(body[pos:pos + nbytes:sector_size],
                           range(log_lba, log_lba + count),
                           range(data_lba, data_lba + count),
                           repeat(request.disk_id), repeat(0))
            pos += nbytes
        body[::sector_size] = bytes([PAYLOAD_FIRST_BYTE]) * total

        blob = encode_record_stream(
            epoch, sequence, self._last_record_lba, log_head,
            entries, body, sector_size)

        try:
            result = yield self.log_drive.write(header_lba, blob)
        except MediaError:
            self.stats.log_media_errors += 1
            yield from self._log_write_failed(spans, pending)
            return

        # The record enters the live tail only once it is on the
        # platter, in the same atomic segment that stitches the chain
        # link — no peer may observe one without the other.
        self._live_records[sequence] = record
        self._last_record_lba = header_lba
        self._physical_track = track
        predictor.set_reference(self.sim.now, header_lba + total)
        predictor.realized_rotation.record(result.rotation_ms)
        self.stats.physical_log_writes += 1
        self.stats.batch_sizes.record(total)
        self._last_activity = self.sim.now

        for request, _offset, count in spans:
            request.remaining -= count
            request.records.append(record)
            if request.remaining == 0:
                page, version = self.buffers.pin(
                    request.disk_id, request.lba, request.data, sector_size)
                for owner in request.records:
                    self.buffers.attach(owner, page, version)
                self.writeback.enqueue(page)
                self._acknowledge(request)

    def _acknowledge(self, request: _PendingWrite) -> None:
        """The write is durable: record its latency and wake the caller."""
        latency = self.sim.now - request.arrival
        self.stats.sync_writes.record(latency)
        self._unacked.pop(id(request), None)
        if not request.event.triggered:
            request.event.succeed(latency)

    def _fail_request(self, request: _PendingWrite,
                      failure: BaseException) -> None:
        """The write is lost: fail its event, whether or not anyone is
        still waiting on it."""
        self._unacked.pop(id(request), None)
        if not request.event.triggered:
            request.event.fail(failure)
            request.event.defuse()

    # ------------------------------------------------------------------
    # Degraded mode (log-disk failure)

    def _log_write_failed(
        self,
        spans: List[Tuple[_PendingWrite, int, int]],
        pending: Deque[_PendingWrite],
    ) -> Generator[Event, Any, None]:
        """A log write exhausted the drive's retries and spares.

        The driver abandons the log disk and "degenerates to a standard
        disk": it drains the write-back backlog, marks the log clean so
        stale records are never replayed over newer write-through data,
        and services the failed record's requests (and everything after
        them) synchronously.
        """
        requests: List[_PendingWrite] = []
        for request, _offset, _count in spans:
            if request not in requests:
                requests.append(request)
        for request in requests:
            if request in pending:
                pending.remove(request)

        yield from self._enter_degraded()
        yield from self._write_through(requests)

    def _enter_degraded(self) -> Generator[Event, Any, None]:
        """Flip to synchronous write-through mode.

        Order matters for crash safety: first let the write-back
        scheduler finish committing every page logged *before* the
        failure (their records match the data disks, so replay would be
        idempotent), only then mark the log clean, and only after that
        may write-through acknowledgements proceed — otherwise a crash
        could replay pre-failure records over newer write-through data.
        """
        self._degraded = True
        while not self.writeback.quiescent:
            event = self.sim.event()
            self._writeback_waiters.append(event)
            yield event
        yield from self._mark_log_clean()

    def _write_through(
        self, requests: List[_PendingWrite],
    ) -> Generator[Event, Any, None]:
        """Service requests synchronously against their data disks."""
        for request in requests:
            disk = self._data_disk(request.disk_id)
            try:
                yield disk.write(request.lba, request.data)
            except MediaError as failure:
                self._fail_request(request, failure)
                continue
            self.stats.degraded_writes += 1
            self._acknowledge(request)

    # ------------------------------------------------------------------
    # Track movement

    def _pending_move_ms(self, target_track: int) -> float:
        """Estimated head-move time the next command will pay."""
        physical = self._physical_track
        if physical is None or physical == target_track:
            return 0.0
        geometry = self.geometry
        assert geometry is not None
        from_cyl, from_head = geometry.track_location(physical)
        to_cyl, to_head = geometry.track_location(target_track)
        return self.log_drive.seek.reposition_time(
            from_cyl, from_head, to_cyl, to_head)

    def _advance_track(self) -> Generator[Event, Any, None]:
        """Move the tail to the next free track, waiting if the log is full."""
        allocator = self.allocator
        assert allocator is not None
        while True:
            try:
                allocator.advance()
                return
            except LogDiskFullError:
                self.stats.log_full_stalls += 1
                self._track_freed = self.sim.event()
                yield self._track_freed

    def _reposition_read(self) -> Generator[Event, Any, None]:
        """Park the head on the new track with an explicit read (§4.2).

        A media error here is swallowed: repositioning is purely a
        latency optimization, so a bad anchor sector only costs
        prediction accuracy, never correctness.
        """
        allocator = self.allocator
        predictor = self.predictor
        geometry = self.geometry
        assert (allocator is not None and predictor is not None
                and geometry is not None)
        track = allocator.current_track
        target_sector = predictor.predict_sector(
            self.sim.now + self._pending_move_ms(track), track)
        target_lba = geometry.track_first_lba(track) + target_sector
        try:
            yield self.log_drive.read(target_lba, 1)
        except MediaError:
            return
        self._physical_track = track
        predictor.set_reference(self.sim.now, target_lba)
        self.stats.repositions += 1
        self._last_activity = self.sim.now

    def _anchor_reference(self) -> Generator[Event, Any, None]:
        """Initial anchor: read one sector of the current track."""
        allocator = self.allocator
        predictor = self.predictor
        geometry = self.geometry
        assert (allocator is not None and predictor is not None
                and geometry is not None)
        track = allocator.current_track
        anchor_lba = geometry.track_first_lba(track)
        try:
            yield self.log_drive.read(anchor_lba, 1)
        except MediaError:
            # Unreadable anchor: seed the reference without the read;
            # the first real write re-anchors it precisely.
            pass
        self._physical_track = track
        predictor.set_reference(self.sim.now, anchor_lba)

    def _idle_repositioner(self) -> Generator[Event, Any, None]:
        """Periodically re-anchor the prediction reference (§3.1).

        Rotation-speed drift makes predictions stale during long idle
        stretches; a cheap read on the current track refreshes the
        reference point.  Only runs when the log disk is idle, so the
        cost is invisible to foreground writes.
        """
        interval = self.config.idle_reposition_interval_ms
        try:
            while True:
                yield self.sim.timeout(interval)
                if not self._mounted:
                    return
                if (self._writer_busy or len(self._log_queue) > 0
                        or self.sim.now - self._last_activity < interval):
                    continue
                yield from self._reposition_read()
        except (Interrupt, DiskHaltedError):
            return

    # ------------------------------------------------------------------
    # Record lifecycle

    def _on_record_released(self, record: LiveRecord) -> None:
        """A record's pages all committed: free its log-disk space."""
        allocator = self.allocator
        assert allocator is not None
        allocator.record_released(record.track)
        self._live_records.pop(record.sequence_id, None)
        if self._track_freed is not None and not self._track_freed.triggered:
            self._track_freed.succeed()
            self._track_freed = None

    # ------------------------------------------------------------------
    # TRAILSAN runtime checks (atomic_group(tail-chain))

    def _san_tail_probe(self) -> Tuple[object, ...]:
        if self._live_records:
            newest: Optional[int] = next(reversed(self._live_records))
        else:
            newest = None
        return newest, self._last_record_lba

    def _san_tail_judge(self, old: Tuple[object, ...],
                        new: Tuple[object, ...]) -> Optional[str]:
        old_key, old_lba = old
        new_key, new_lba = new
        if isinstance(new_key, int) and new_key >= self._next_sequence:
            return (f"live record {new_key} at or above the next "
                    f"sequence id {self._next_sequence}")
        grew = (isinstance(new_key, int)
                and (old_key is None
                     or (isinstance(old_key, int) and new_key > old_key)))
        if grew and new_lba == old_lba:
            return (f"record {new_key!r} entered the live tail while "
                    f"the chain link stayed at lba {new_lba!r} — the "
                    f"pair must move in one atomic segment")
        return None

    # ------------------------------------------------------------------

    def _data_disk(self, disk_id: int) -> DataTarget:
        disk = self.data_disks.get(disk_id)
        if disk is None:
            raise TrailError(f"unknown data disk id {disk_id}")
        return disk

    def _check_mounted(self) -> None:
        if not self._mounted:
            raise TrailError("driver is not mounted")
