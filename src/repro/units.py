"""Unit conventions and conversion helpers used throughout the library.

All simulated time is kept in **milliseconds** as ``float``.  All storage
sizes are kept in **bytes** as ``int``.  These helpers exist so that call
sites can say ``seconds(2)`` or ``KiB(50)`` instead of sprinkling magic
multipliers, and so that benchmark tables can format values the way the
paper prints them.

Dimension aliases
-----------------

:data:`Bytes`, :data:`Sectors`, :data:`Tracks`, :data:`Cylinders`,
:data:`Lba`, :data:`Ms`, :data:`Seconds` and :data:`Us` are plain
aliases of ``int`` or ``float``: they name a value's dimension for
readers and change nothing for mypy or at run time.  Names say the
time scale too (``*_ms``, ``*_us``, ``*_seconds``); seconds and
microseconds meet milliseconds only through the converters below.
:data:`LogLba` and :data:`DataLba` are real ``NewType`` wrappers — the
paper's write record stores *data-disk* addresses inside *log-disk*
sectors, so the two address spaces coexist in the same structures and
confusing them corrupts the wrong disk.  mypy enforces the wrapping
where it is applied.
"""

from __future__ import annotations

from typing import NewType

#: Storage sizes in bytes.
Bytes = int
#: Sector counts (or sector offsets within a track).
Sectors = int
#: Track indexes / counts.
Tracks = int
#: Cylinder indexes / counts.
Cylinders = int
#: Simulated time in milliseconds (the library-wide convention).
Ms = float
#: Wall-style seconds — only ever an input/output unit, never stored.
Seconds = float
#: Microseconds — only ever an input unit.
Us = float
#: A logical block address with unspecified address space.
Lba = int

#: A block address on the **log disk** (where Trail's record chain
#: lives).  Distinct from :data:`DataLba` — see the module docstring.
LogLba = NewType("LogLba", int)
#: A block address on the **data disk** (where records are eventually
#: destaged).
DataLba = NewType("DataLba", int)

#: Number of bytes in one standard disk sector (the paper's drives use 512).
SECTOR_SIZE = 512

#: Milliseconds per second.
MS_PER_SECOND = 1000.0

#: Microseconds per millisecond.
US_PER_MS = 1000.0


def seconds(value: Seconds) -> Ms:
    """Convert seconds to simulated milliseconds."""
    return value * MS_PER_SECOND


def milliseconds(value: Ms) -> Ms:
    """Identity conversion, for symmetry at call sites that mix units."""
    return float(value)


def microseconds(value: Us) -> Ms:
    """Convert microseconds to simulated milliseconds."""
    return value / US_PER_MS


def minutes(value: float) -> Ms:
    """Convert minutes to simulated milliseconds."""
    return value * 60.0 * MS_PER_SECOND


def to_seconds(ms: Ms) -> Seconds:
    """Convert simulated milliseconds back to seconds."""
    return ms / MS_PER_SECOND


def KiB(value: float) -> Bytes:
    """Convert kibibytes to bytes."""
    return int(value * 1024)


def MiB(value: float) -> Bytes:
    """Convert mebibytes to bytes."""
    return int(value * 1024 * 1024)


def GiB(value: float) -> Bytes:
    """Convert gibibytes to bytes."""
    return int(value * 1024 * 1024 * 1024)


def sectors_for(nbytes: Bytes, sector_size: int = SECTOR_SIZE) -> Sectors:
    """Number of whole sectors needed to hold ``nbytes`` of payload."""
    if nbytes < 0:
        raise ValueError(f"byte count must be non-negative, got {nbytes}")
    return (nbytes + sector_size - 1) // sector_size


def rpm_to_rotation_ms(rpm: float) -> Ms:
    """Full-revolution time in milliseconds for a spindle speed in RPM.

    A 5400 RPM disk (the paper's ST41601N) rotates once every ~11.11 ms,
    giving the 5.5 ms average rotational latency quoted in Section 5.1.
    """
    if rpm <= 0:
        raise ValueError(f"rpm must be positive, got {rpm}")
    return 60.0 * MS_PER_SECOND / rpm
