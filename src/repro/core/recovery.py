"""Crash recovery for the Trail log disk (§3.3, Figure 4).

Recovery runs in three steps, each timed separately so the Figure 4(a)
breakdown can be reproduced:

1. **Locate** the youngest active write record — the one whose epoch
   matches the log-disk header and whose sequence id is the global
   maximum.  Because the circular log fills tracks in a fixed physical
   order, each track's newest sequence id is "rotated sorted" across
   the track ring, so a binary search needs only O(lg N) track scans
   (~20 for the paper's 35,717-track disk) instead of reading the whole
   disk.
2. **Rebuild** the chain of potentially uncommitted records by walking
   the ``prev_sect`` back pointers, stopping at the youngest record's
   ``log_head`` bound — the oldest record that was uncommitted when the
   youngest was written.  Everything older is already on the data disks.
3. **Write back** the pending records to the data disks in increasing
   sequence order (issue order), restoring each payload sector's
   displaced first byte.  This step is optional: skipping it does not
   compromise integrity because the log-disk copy persists (Fig. 4(b)),
   and it dominates recovery time because its data-disk accesses are
   random.

Host cost follows disk cost — pay for the records touched, not for the
disk: a track scan decodes only the sectors that open like a header, and
a replayed record is verified, un-masked and coalesced as one buffer.

Beyond the paper's power-loss-only model, recovery also survives a
faulty log disk: track scans fall back to sector-by-sector reads and
skip unreadable sectors; every record is checksum-verified (header and
payload CRCs) before replay; a record that fails verification is never
replayed — its sectors are reported in the
:class:`RecoveryReport` (``corrupt_records``, ``dropped_sectors``)
instead of silently replaying garbage or silently dropping data.  A
double failure (host memory lost in the crash *and* the log copy
unreadable or corrupt) is therefore always visible to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Dict, Generator, List, Mapping, Optional, Sequence, Tuple)

from repro.blockdev import DataTarget
from repro.core.config import TrailConfig
from repro.core.format import (
    RecordHeader, NULL_LBA, decode_record_header, payload_crc32,
    record_header_offsets, restore_payload)
from repro.disk.drive import DiskDrive
from repro.disk.geometry import DiskGeometry
from repro.errors import (
    LogFormatError, MediaError, RecordChecksumError, RecoveryError)
from repro.sim import Event, Simulation
from repro.units import Ms


class LocatedRecord:
    """A record header found on disk: its address and its sector.

    The sector is kept without its zero tail (the encoder pads the
    header sector with zeros past the entry table, and the header CRC
    covers them), so a record costs its used bytes, not a decoded
    object graph.  :attr:`header` decodes it again on each access.
    """

    __slots__ = ("header_lba", "prefix", "sector_size")

    def __init__(self, header_lba: int, sector: bytes,
                 sector_size: int) -> None:
        self.header_lba = header_lba
        self.prefix = sector.rstrip(b"\x00")
        # The geometry's int, shared by every record (``len(sector)``
        # would build one per record).
        self.sector_size = sector_size

    @property
    def header(self) -> RecordHeader:
        """The decoded header; its CRC is checked on every decode."""
        try:
            return decode_record_header(
                self.prefix.ljust(self.sector_size, b"\x00"))
        except LogFormatError as error:
            # Recovery locates only sectors that decoded: this one was
            # built by hand from a sector that is not a record header.
            raise RecoveryError(
                f"record at LBA {self.header_lba}: {error}") from error


@dataclass
class RecoveryReport:
    """Timing and volume breakdown of one recovery run (Figure 4)."""

    locate_ms: float = 0.0
    rebuild_ms: float = 0.0
    writeback_ms: float = 0.0
    tracks_scanned: int = 0
    records_found: int = 0
    sectors_replayed: int = 0
    data_writes_issued: int = 0
    writeback_performed: bool = False
    #: Youngest records discarded because the crash tore them (header
    #: on the platter, payload incomplete).  A torn record was never
    #: acknowledged, so dropping it loses nothing — unless silent
    #: corruption mimicked a tear, which is why the affected sectors
    #: also appear in :attr:`dropped_sectors`.
    torn_records_dropped: int = 0
    youngest_sequence: Optional[int] = None
    #: The pending chain, oldest first.  Kept after every recovery,
    #: write-back or not: a caller that skipped write-back hands it to
    #: :meth:`RecoveryManager.replay`, and the pinned recovery digests
    #: read it.  Each record keeps only its header sector's used bytes
    #: (at most 126 for 8 entries): 245 bytes per 8-entry record with
    #: the object that holds them, 2.4 MB over the 100 reports the
    #: ledger's ``crash-recover`` keeps.
    pending: List[LocatedRecord] = field(default_factory=list)
    #: Log-disk sectors that could not be read (skipped during scans).
    unreadable_sectors: int = 0
    #: Records that failed checksum verification (pending ones, or a
    #: header met by a track scan) or could not be read during replay
    #: (excludes the legal torn youngest).
    corrupt_records: int = 0
    #: ``(disk_id, data_lba)`` pairs whose logged copy was dropped
    #: without being replayed (torn, corrupt, or unreadable record, or
    #: a failed data-disk write) and that no intact later record
    #: superseded.  Each is either already on its data disk from an
    #: earlier write-back or genuinely lost — never silently dropped.
    dropped_sectors: List[Tuple[int, int]] = field(default_factory=list)
    #: True when the prev_sect chain walk hit an unreadable or
    #: non-decodable sector before reaching the log_head bound, or a
    #: track scan met a record header that fails its CRC: records on
    #: the far side of the damage could not be enumerated.
    chain_broken: bool = False

    @property
    def damaged(self) -> bool:
        """True when recovery detected any unrecoverable damage."""
        return bool(self.corrupt_records or self.dropped_sectors
                    or self.chain_broken)

    @property
    def total_ms(self) -> Ms:
        """End-to-end recovery time."""
        return self.locate_ms + self.rebuild_ms + self.writeback_ms


class RecoveryManager:
    """Executes the three-step recovery procedure as a sim process."""

    def __init__(
        self,
        sim: Simulation,
        log_drive: DiskDrive,
        geometry: DiskGeometry,
        usable_tracks: Sequence[int],
        epoch: int,
        data_disks: Mapping[int, DataTarget],
        config: Optional[TrailConfig] = None,
    ) -> None:
        self.sim = sim
        self.log_drive = log_drive
        self.geometry = geometry
        #: Position -> track, kept as handed over: no O(N) copy to mount.
        self.usable_tracks = usable_tracks
        self.epoch = epoch
        self.data_disks = data_disks
        self.config = config or TrailConfig()
        # No sanitizer group: a RecoveryManager is a local of
        # TrailDriver.mount(), run by ``yield from``, so no other
        # process holds it and none can see this scan state torn.
        self._track_cache: Dict[int, Optional[LocatedRecord]] = {}
        self._report = RecoveryReport()

    def run(self) -> Generator[Event, Any, RecoveryReport]:
        """Full recovery; yields disk I/O, returns a RecoveryReport."""
        report = self._report
        start = self.sim.now

        youngest = yield from self._locate()
        youngest = yield from self._discard_torn(youngest)
        report.locate_ms = self.sim.now - start
        if youngest is None:
            report.dropped_sectors = sorted(set(report.dropped_sectors))
            return report
        header = youngest.header
        report.youngest_sequence = header.sequence_id

        rebuild_start = self.sim.now
        chain = yield from self._rebuild(youngest, header)
        report.rebuild_ms = self.sim.now - rebuild_start
        report.records_found = len(chain)
        report.pending = [located for located, _header in chain]

        if self.config.recovery_writeback:
            writeback_start = self.sim.now
            # The headers _rebuild decoded, oldest (lowest sequence id)
            # first: nothing to decode or sort again.
            yield from self._write_back(chain)
            report.writeback_ms = self.sim.now - writeback_start
            report.writeback_performed = True
        report.dropped_sectors = sorted(set(report.dropped_sectors))
        return report

    # ------------------------------------------------------------------
    # Step 1: locate the youngest active record

    def _locate(self) -> Generator[Event, Any, Optional[LocatedRecord]]:
        if self.config.binary_search_recovery:
            return (yield from self._locate_binary())
        return (yield from self._locate_sequential())

    def _locate_sequential(
        self,
    ) -> Generator[Event, Any, Optional[LocatedRecord]]:
        """Scan every track; baseline for the binary-search ablation."""
        youngest: Optional[LocatedRecord] = None
        youngest_sequence = -1
        for position in range(len(self.usable_tracks)):
            candidate = yield from self._scan_position(position)
            if candidate is not None:
                sequence = candidate.header.sequence_id
                if sequence > youngest_sequence:
                    youngest, youngest_sequence = candidate, sequence
        return youngest

    def _locate_binary(
        self,
    ) -> Generator[Event, Any, Optional[LocatedRecord]]:
        """O(lg N) track scans via the rotated-order property.

        Writes fill usable tracks in a fixed circular order starting at
        position 0 each epoch, so each position's newest sequence id is
        non-decreasing along the current lap and strictly greater than
        every value left over from the previous lap.  The predicate
        "position i holds a current-epoch record with sequence id >=
        the one at position 0" is therefore true on a prefix [0, p] and
        false after it, and the youngest record sits at position p.
        """
        first = yield from self._scan_position(0)
        if first is None:
            # Position 0 is written before any other track each epoch;
            # nothing there means no records at all this epoch.
            return None
        base_sequence = first.header.sequence_id

        low, high = 0, len(self.usable_tracks) - 1
        # Invariant: predicate(low) is true; find the last true position.
        while low < high:
            mid = (low + high + 1) // 2
            candidate = yield from self._scan_position(mid)
            if (candidate is not None
                    and candidate.header.sequence_id >= base_sequence):
                low = mid
            else:
                high = mid - 1
        return (yield from self._scan_position(low))

    def _scan_position(
        self, position: int,
    ) -> Generator[Event, Any, Optional[LocatedRecord]]:
        """Read one track and return its youngest current-epoch record.

        A track read that fails with a media error falls back to
        sector-by-sector reads, skipping (and counting) unreadable
        sectors, so one grown defect cannot hide a whole track's
        records from the locate step.
        """
        track = self.usable_tracks[position]
        if track in self._track_cache:
            return self._track_cache[track]
        first_lba = self.geometry.track_first_lba(track)
        nsectors = self.geometry.track_sectors(track)
        sector_size = self.geometry.sector_size
        try:
            image = (yield self.log_drive.read(first_lba, nsectors)).data
        except MediaError:
            sectors: List[bytes] = []
            for index in range(nsectors):
                try:
                    result = yield self.log_drive.read(first_lba + index, 1)
                    sectors.append(result.data)
                except MediaError:
                    # Stands in as zeros: never a header candidate.
                    sectors.append(bytes(sector_size))
                    self._report.unreadable_sectors += 1
            image = b"".join(sectors)
        self._report.tracks_scanned += 1
        youngest = _youngest_in_track(image, first_lba, sector_size,
                                      self.epoch, self._report)
        self._track_cache[track] = youngest
        return youngest

    def _discard_torn(
        self, located: Optional[LocatedRecord],
    ) -> Generator[Event, Any, Optional[LocatedRecord]]:
        """Drop the youngest record if the crash tore it.

        Log writes are strictly sequential (one physical command at a
        time), so only the globally youngest record can have a
        persisted header with an incomplete payload — and its write
        never completed, so it was never acknowledged.  Verify its
        payload CRC; on mismatch, step back along ``prev_sect``.
        """
        while located is not None:
            header = located.header
            if header.batch_size == 0:
                return located
            intact = False
            try:
                result = yield self.log_drive.read(located.header_lba + 1,
                                                   header.batch_size)
                intact = payload_crc32(result.data) == header.payload_crc
            except MediaError:
                # Payload unreadable: indistinguishable from a tear.
                self._report.unreadable_sectors += 1
            if intact:
                return located
            self._report.torn_records_dropped += 1
            # A legal tear was never acknowledged; but corruption of an
            # acknowledged record looks identical, so the dropped
            # sectors are reported rather than silently discarded.
            for entry in header.entries:
                self._report.dropped_sectors.append(
                    (entry.data_major, entry.data_lba))
            # The torn record's own log_head bound says whether its
            # predecessor was still pending when it was written.
            previous = yield from self._read_previous(
                located.header_lba, header, self._bound(header))
            located = None if previous is None else previous[0]
        return located

    # ------------------------------------------------------------------
    # Step 2: rebuild the pending chain

    def _bound(self, header: RecordHeader) -> int:
        """The oldest record ``header`` says was pending (NULL_LBA when
        the bound is disabled)."""
        return (header.log_head if self.config.log_head_bound_enabled
                else NULL_LBA)

    def _rebuild(
        self, youngest: LocatedRecord, header: RecordHeader,
    ) -> Generator[Event, Any, List[Tuple[LocatedRecord, RecordHeader]]]:
        """Walk prev_sect back from ``youngest`` (whose decoded header
        is ``header``) to the log_head bound: each record with its
        decoded header, oldest first."""
        bound = self._bound(header)
        chain: List[Tuple[LocatedRecord, RecordHeader]] = [
            (youngest, header)]
        seen = {youngest.header_lba}
        current = youngest
        # The log_head record itself is the oldest pending.
        while current.header_lba != bound:
            if header.prev_sect in seen:
                raise RecoveryError(
                    f"prev_sect cycle detected at LBA {header.prev_sect}")
            previous = yield from self._read_previous(
                current.header_lba, header, bound)
            if previous is None:
                break
            current, older = previous
            if older.sequence_id >= header.sequence_id:
                raise RecoveryError(
                    "prev_sect chain is not decreasing in sequence id "
                    f"({older.sequence_id} >= {header.sequence_id})")
            header = older
            seen.add(current.header_lba)
            chain.append((current, header))
        chain.reverse()
        return chain

    def _read_previous(
        self, header_lba: int, header: RecordHeader, bound: int,
    ) -> Generator[Event, Any,
                   Optional[Tuple[LocatedRecord, RecordHeader]]]:
        """Follow ``header``'s prev_sect one hop: the older record and
        its decoded header, or None where the chain ends or breaks.

        ``bound`` is the oldest record that was pending when the
        walk's youngest record was written.  Every hop between a
        record and its bound is a live record whose space cannot have
        been reclaimed, so a predecessor that then fails to decode was
        corrupted, not legitimately overwritten, and is reported.
        """
        prev_lba = header.prev_sect
        if prev_lba == NULL_LBA:
            return None
        try:
            result = yield self.log_drive.read(prev_lba, 1)
        except MediaError:
            # An unreadable header: the records older than the break
            # cannot be enumerated.  Recovery proceeds with what it
            # has, but the caller must know the chain is incomplete.
            self._report.unreadable_sectors += 1
            self._report.chain_broken = True
            return None
        try:
            older = decode_record_header(result.data,
                                         expected_epoch=self.epoch)
        except LogFormatError:
            if bound not in (NULL_LBA, header_lba):
                self._report.corrupt_records += 1
                self._report.chain_broken = True
            # Otherwise the chain ran into a sector overwritten by an
            # older epoch or reclaimed space: everything older is
            # already committed.
            return None
        return (LocatedRecord(prev_lba, result.data,
                              self.geometry.sector_size), older)

    # ------------------------------------------------------------------
    # Step 3: write pending records back to the data disks

    def replay(
        self, chain: Sequence[LocatedRecord],
    ) -> Generator[Event, Any, None]:
        """Propagate pending records to the data disks in issue order.

        Public so that a caller who deferred the write-back step
        (Fig. 4(b)) can run it in the background after recovery returns.

        A record whose payload is unreadable or fails its checksum is
        *never* replayed — garbage must not reach the data disks — and
        is reported instead: ``corrupt_records`` counts it, and every
        affected sector that no intact later record supersedes lands in
        ``dropped_sectors``.  Data-disk writes that fail despite the
        drive's own retries/remapping are reported the same way.
        """
        yield from self._write_back(sorted(
            ((located, located.header) for located in chain),
            key=lambda record: record[1].sequence_id))

    def _write_back(
        self, records: Sequence[Tuple[LocatedRecord, RecordHeader]],
    ) -> Generator[Event, Any, None]:
        """:meth:`replay` over records already decoded and in
        increasing sequence order."""
        sector_size = self.geometry.sector_size
        #: (disk_id, data_lba) -> sequence id of the newest record that
        #: successfully replayed that sector.
        replayed: Dict[Tuple[int, int], int] = {}
        #: (sequence id, disk_id, data_lba) of sectors not replayed.
        at_risk: List[Tuple[int, int, int]] = []
        for located, header in records:
            header_lba = located.header_lba
            if header.batch_size == 0:
                continue
            sequence = header.sequence_id
            masked: Optional[bytes] = None
            try:
                payload = yield self.log_drive.read(
                    header_lba + 1, header.batch_size)
                masked = payload.data
            except MediaError:
                self._report.unreadable_sectors += 1
            if masked is None or payload_crc32(masked) != header.payload_crc:
                # Unreadable, or silently corrupted on the platter
                # (only the youngest record can legally be torn, and
                # _discard_torn already handled it).
                self._report.corrupt_records += 1
                for entry in header.entries:
                    at_risk.append((sequence, entry.data_major,
                                    entry.data_lba))
                continue
            for index, entry in enumerate(header.entries):
                if entry.log_lba != header_lba + 1 + index:
                    raise RecoveryError(
                        f"record {sequence} entry {index} log "
                        f"LBA {entry.log_lba} is not contiguous with its "
                        "header")
            restored = restore_payload(header.entries, masked)
            # Group consecutive entries targeting contiguous data-disk
            # sectors into single writes.
            for disk_id, lba, data in _coalesce(header, restored,
                                                sector_size):
                disk = self.data_disks.get(disk_id)
                if disk is None:
                    raise RecoveryError(
                        f"record {sequence} targets unknown "
                        f"data disk {disk_id}")
                nsectors = len(data) // sector_size
                try:
                    yield disk.write(lba, data)
                except MediaError:
                    for address in range(lba, lba + nsectors):
                        at_risk.append((sequence, disk_id, address))
                    continue
                self._report.data_writes_issued += 1
                for address in range(lba, lba + nsectors):
                    previous = replayed.get((disk_id, address), -1)
                    if sequence > previous:
                        replayed[(disk_id, address)] = sequence
            self._report.sectors_replayed += header.batch_size
        dropped = {
            (disk_id, address)
            for sequence, disk_id, address in at_risk
            if replayed.get((disk_id, address), -1) < sequence
        }
        self._report.dropped_sectors.extend(sorted(dropped))


def _youngest_in_track(image: bytes, first_lba: int, sector_size: int,
                       epoch: int, report: RecoveryReport,
                       ) -> Optional[LocatedRecord]:
    """The youngest ``epoch`` record headed in a track image: only the
    candidate sectors are decoded, each in full.  A candidate failing
    its header CRC may be the youngest acknowledged record, so it is
    reported as a broken chain, never skipped as empty."""
    youngest: Optional[LocatedRecord] = None
    youngest_sequence = -1
    for offset in record_header_offsets(image, sector_size):
        sector = image[offset:offset + sector_size]
        try:
            sequence = decode_record_header(
                sector, expected_epoch=epoch).sequence_id
        except RecordChecksumError:
            report.corrupt_records += 1
            report.chain_broken = True
            continue
        except LogFormatError:
            continue
        if sequence > youngest_sequence:
            youngest_sequence = sequence
            youngest = LocatedRecord(first_lba + offset // sector_size,
                                     sector, sector_size)
    return youngest


def _coalesce(
    header: RecordHeader, restored: bytes, sector_size: int,
) -> List[Tuple[int, int, bytes]]:
    """Merge adjacent entries with contiguous data-disk targets; each
    group's data is one slice of the un-masked payload image."""
    groups: List[Tuple[int, int, bytes]] = []
    entries = header.entries
    start = 0
    for index in range(1, len(entries) + 1):
        if (index < len(entries)
                and entries[index].data_major == entries[start].data_major
                and entries[index].data_lba
                == entries[start].data_lba + index - start):
            continue
        groups.append((entries[start].data_major, entries[start].data_lba,
                       restored[start * sector_size:index * sector_size]))
        start = index
    return groups
