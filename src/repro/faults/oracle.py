"""The §4.1 durability contract as one executable reference model.

Every acknowledged write survives any crash, and recovery never invents
data.  A harness feeds :class:`DurabilityOracle` the writes it issues
and sees acknowledged or fail, then :meth:`~DurabilityOracle.audit`\\ s
the surviving platters.  The rule, per ``(disk, lba)`` sector: it must
hold its last acknowledged value, or a value issued after that
acknowledgement (in flight or failed at the crash, so it may have
landed), or zeros if it was never acknowledged.  A wrong sector that
the :class:`~repro.core.recovery.RecoveryReport` lists in
``dropped_sectors``, or any sector while ``chain_broken`` is set, is
excused: its loss was reported (docs/FAULTS.md §Recovery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple)

from repro.units import SECTOR_SIZE

if TYPE_CHECKING:
    from repro.core.recovery import RecoveryReport

#: A sector's address: ``(disk_id, lba)``.
Sector = Tuple[int, int]


@dataclass
class Audit:
    """What :meth:`DurabilityOracle.audit` found on the platters."""

    verified: int = 0
    lost: List[Sector] = field(default_factory=list)  # acked, now wrong
    invented: List[Sector] = field(default_factory=list)  # never acked
    excused: List[Sector] = field(default_factory=list)  # wrong, reported

    @property
    def ok(self) -> bool:
        """True when nothing was lost or invented without a report."""
        return not self.lost and not self.invented


class DurabilityOracle:
    """Per-sector model of what a crash may legally leave behind."""

    def __init__(self, sector_size: int = SECTOR_SIZE) -> None:
        self.sector_size = sector_size
        self.acked_writes = 0
        self.failed_writes = 0
        self._acked: Dict[Sector, bytes] = {}
        #: Values issued since the sector's last acknowledgement.
        self._since_ack: Dict[Sector, List[bytes]] = {}

    def _split(self, lba: int, data: bytes,
               disk_id: int) -> Iterator[Tuple[Sector, bytes]]:
        size = self.sector_size
        for index in range(len(data) // size):
            yield ((disk_id, lba + index),
                   bytes(data[index * size:(index + 1) * size]))

    def issue(self, lba: int, data: bytes, disk_id: int = 0) -> None:
        """A write was handed to the device: its bytes may land."""
        for key, value in self._split(lba, data, disk_id):
            self._since_ack.setdefault(key, []).append(value)

    def ack(self, lba: int, data: bytes, disk_id: int = 0) -> None:
        """The device acknowledged the write: it must survive."""
        self.acked_writes += 1
        for key, value in self._split(lba, data, disk_id):
            self._acked[key] = value
            since = self._since_ack.get(key, [])
            if value in since:  # what was issued before it is superseded
                del since[:since.index(value) + 1]

    def fail(self, lba: int, data: bytes, disk_id: int = 0) -> None:
        """The write failed loudly.  Its value stays possible (a crash
        fails requests whose log write already landed)."""
        self.failed_writes += 1

    def expected(self, disk: int, lba: int) -> bytes:
        """What an in-run read of the sector must return."""
        return self._acked.get((disk, lba), bytes(self.sector_size))

    def audit(self, read_sector: Callable[[int, int], bytes],
              report: Optional["RecoveryReport"] = None) -> Audit:
        """Check every sector the model knows; ``read_sector(disk,
        lba)`` reads it as it stands now, ``report`` is the mount's."""
        dropped = set(report.dropped_sectors) if report else set()
        broken = bool(report and report.chain_broken)
        result = Audit()
        for key in sorted(self._acked.keys() | self._since_ack.keys()):
            held = read_sector(*key)
            if (held == self.expected(*key)
                    or held in self._since_ack.get(key, ())):
                result.verified += 1
            elif broken or key in dropped:
                result.excused.append(key)
            elif key in self._acked:
                result.lost.append(key)
            else:
                result.invented.append(key)
        return result
