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


@dataclass
class LocatedRecord:
    """A record header found on disk, with its own address."""

    header_lba: int
    header: RecordHeader


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
    #: The pending chain, oldest first (exposed so a caller that skips
    #: the write-back step can hand the records to a background process).
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
        self._track_cache: Dict[int, Optional[LocatedRecord]] = {}  # trailsan: atomic_group(scan-state)
        self._report = RecoveryReport()  # trailsan: atomic_group(scan-state)

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
        report.youngest_sequence = youngest.header.sequence_id

        rebuild_start = self.sim.now
        chain = yield from self._rebuild(youngest)
        report.rebuild_ms = self.sim.now - rebuild_start
        report.records_found = len(chain)
        report.pending = chain

        if self.config.recovery_writeback:
            writeback_start = self.sim.now
            yield from self.replay(chain)
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
        for position in range(len(self.usable_tracks)):
            candidate = yield from self._scan_position(position)
            if candidate is not None and (
                    youngest is None
                    or candidate.header.sequence_id
                    > youngest.header.sequence_id):
                youngest = candidate
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
            prev_lba = header.prev_sect
            if prev_lba == NULL_LBA:
                return None
            try:
                result = yield self.log_drive.read(prev_lba, 1)
            except MediaError:
                self._report.unreadable_sectors += 1
                self._report.chain_broken = True
                return None
            try:
                prev_header = decode_record_header(
                    result.data, expected_epoch=self.epoch)
            except LogFormatError:
                return None
            located = LocatedRecord(header_lba=prev_lba,
                                    header=prev_header)
        return located

    # ------------------------------------------------------------------
    # Step 2: rebuild the pending chain

    def _rebuild(
        self, youngest: LocatedRecord,
    ) -> Generator[Event, Any, List[LocatedRecord]]:
        """Walk prev_sect back to the log_head bound; oldest first."""
        bound = (youngest.header.log_head
                 if self.config.log_head_bound_enabled else NULL_LBA)
        chain: List[LocatedRecord] = [youngest]
        seen = {youngest.header_lba}
        current = youngest
        while True:
            if current.header_lba == bound:
                break  # the log_head record itself is the oldest pending
            prev_lba = current.header.prev_sect
            if prev_lba == NULL_LBA:
                break
            if prev_lba in seen:
                raise RecoveryError(
                    f"prev_sect cycle detected at LBA {prev_lba}")
            try:
                result = yield self.log_drive.read(prev_lba, 1)
            except MediaError:
                # An unreadable header inside the pending chain: the
                # records older than the break cannot be enumerated.
                # Flag it — recovery proceeds with what it has, but the
                # caller must know the chain is incomplete.
                self._report.unreadable_sectors += 1
                self._report.chain_broken = True
                break
            try:
                header = decode_record_header(
                    result.data, expected_epoch=self.epoch)
            except LogFormatError:
                # With the log_head bound enabled, every hop between
                # the youngest record and the bound is a live record
                # whose space cannot have been reclaimed — a decode
                # failure before the bound means the header was
                # corrupted, not legitimately overwritten.
                if (self.config.log_head_bound_enabled
                        and bound != NULL_LBA):
                    self._report.corrupt_records += 1
                    self._report.chain_broken = True
                # Otherwise the chain ran into a sector overwritten by
                # an older epoch or reclaimed space: everything older
                # is already committed.
                break
            if header.sequence_id >= current.header.sequence_id:
                raise RecoveryError(
                    "prev_sect chain is not decreasing in sequence id "
                    f"({header.sequence_id} >= "
                    f"{current.header.sequence_id})")
            current = LocatedRecord(header_lba=prev_lba, header=header)
            seen.add(prev_lba)
            chain.append(current)
        chain.reverse()
        return chain

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
        sector_size = self.geometry.sector_size
        #: (disk_id, data_lba) -> sequence id of the newest record that
        #: successfully replayed that sector.
        replayed: Dict[Tuple[int, int], int] = {}
        #: (sequence id, disk_id, data_lba) of sectors not replayed.
        at_risk: List[Tuple[int, int, int]] = []
        for located in sorted(chain, key=lambda r: r.header.sequence_id):
            header = located.header
            if header.batch_size == 0:
                continue
            sequence = header.sequence_id
            masked: Optional[bytes] = None
            try:
                payload = yield self.log_drive.read(
                    located.header_lba + 1, header.batch_size)
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
                if entry.log_lba != located.header_lba + 1 + index:
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
    for offset in record_header_offsets(image, sector_size):
        try:
            header = decode_record_header(
                image[offset:offset + sector_size], expected_epoch=epoch)
        except RecordChecksumError:
            report.corrupt_records += 1
            report.chain_broken = True
            continue
        except LogFormatError:
            continue
        if (youngest is None
                or header.sequence_id > youngest.header.sequence_id):
            youngest = LocatedRecord(
                header_lba=first_lba + offset // sector_size, header=header)
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
