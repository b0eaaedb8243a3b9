"""Tunable parameters of the Trail driver.

Only the knobs the paper's experiments turn live here: the 30 %
track-utilization threshold before the head moves to the next track
(§4.2), periodic idle repositioning to keep the prediction reference
fresh (§3.1), and the three recovery optimizations Fig. 4 ablates
(§3.3).  The rest is fixed by the design: records batch up to
:data:`MAX_TRAIL_BATCH` sectors, the on-disk layout is a function of
the geometry (``reserved_layout``), and a dead log disk always
degrades the driver to write-through.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Maximum sectors described by one write record (MAX_TRAIL_BATCH).
#: 40 entries x 11 bytes plus the fixed header fields fit one 512-byte
#: header sector; the paper's Table 1 batches up to 32.
MAX_TRAIL_BATCH = 40

#: On-disk signature identifying a Trail log disk (MAX_SIG_LEN = 8).
TRAIL_SIGNATURE = b"TRAILLOG"


@dataclass
class TrailConfig:
    """Configuration for a :class:`~repro.core.driver.TrailDriver`."""

    #: Move to the next track once the current track is this full (§4.2).
    track_utilization_threshold: float = 0.30

    #: Re-anchor the prediction reference after this much log-disk idle
    #: time (§3.1's periodic repositioning).  ``0`` disables the
    #: repositioner.
    idle_reposition_interval_ms: float = 250.0

    #: Record the ``log_head`` recovery bound in each record (§3.3's
    #: second optimization).  Disabling forces recovery to trace the
    #: prev_sect chain as far as it goes.
    log_head_bound_enabled: bool = True

    #: Locate the youngest record by binary search over tracks (§3.3's
    #: first optimization); disabling falls back to a sequential scan.
    binary_search_recovery: bool = True

    #: Write pending records back to the data disks during recovery
    #: (Fig. 4(b): recovery is >3.5x faster when this is skipped).
    recovery_writeback: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.track_utilization_threshold <= 1.0:
            raise ValueError(
                "track_utilization_threshold must be in (0, 1], got "
                f"{self.track_utilization_threshold}")
        if self.idle_reposition_interval_ms < 0:
            raise ValueError("idle_reposition_interval_ms must be >= 0")
