"""Measurement probes for simulations.

These are deliberately simple accumulators: benchmarks attach them to
drivers and read summary statistics at the end of a run.  They avoid
storing full traces unless asked, so long TPC-C runs stay cheap.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class LatencyRecorder:
    """Accumulates scalar samples (latencies, sizes) with summary stats."""

    def __init__(self, keep_samples: bool = False) -> None:
        self._count = 0
        self._total = 0.0
        self._total_sq = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def record(self, value: float) -> None:
        """Add one sample."""
        self._count += 1
        self._total += value
        self._total_sq += value * value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._samples is not None:
            self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no samples recorded")
        return self._total / self._count

    @property
    def minimum(self) -> float:
        if self._min is None:
            raise ValueError("no samples recorded")
        return self._min

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise ValueError("no samples recorded")
        return self._max

    @property
    def stddev(self) -> float:
        """Population standard deviation of the samples."""
        if self._count == 0:
            raise ValueError("no samples recorded")
        mean = self.mean
        variance = max(0.0, self._total_sq / self._count - mean * mean)
        return math.sqrt(variance)

    @property
    def samples(self) -> List[float]:
        if self._samples is None:
            raise ValueError("recorder was created with keep_samples=False")
        return list(self._samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile; requires keep_samples=True."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        data = sorted(self.samples)
        if not data:
            raise ValueError("no samples recorded")
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        return data[low] * (1.0 - frac) + data[high] * frac

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one.

        A recorder that keeps samples refuses one that did not: its
        count and mean would move while its percentiles could not.
        """
        if self._samples is not None and other._samples is None:
            raise ValueError("cannot merge a keep_samples=False recorder "
                             "into one that keeps samples")
        self._count += other._count
        self._total += other._total
        self._total_sq += other._total_sq
        for bound in (other._min, other._max):
            if bound is not None:
                self._min = bound if self._min is None else min(self._min, bound)
                self._max = bound if self._max is None else max(self._max, bound)
        if self._samples is not None and other._samples is not None:
            self._samples.extend(other._samples)

    def __repr__(self) -> str:
        if self._count == 0:
            return "<LatencyRecorder empty>"
        return (f"<LatencyRecorder n={self._count} mean={self.mean:.3f} "
                f"min={self.minimum:.3f} max={self.maximum:.3f}>")


class PhasedLatencyRecorder:
    """Latency samples bucketed by a mutable experiment-phase label.

    The RAID rebuild scenario flips the phase from ``healthy`` to
    ``degraded`` at the instant it kills a drive, and to ``rebuilt``
    once the spare holds a full copy; every sample lands in the bucket
    active at record time.  That yields per-phase p50/p99 without
    tagging individual samples, and the phase sequence doubles as the
    experiment's timeline.
    """

    def __init__(self, initial_phase: str = "healthy") -> None:
        self._phase = initial_phase
        self._recorders: Dict[str, LatencyRecorder] = {}

    @property
    def phase(self) -> str:
        """The label new samples are currently recorded under."""
        return self._phase

    def set_phase(self, phase: str) -> None:
        """Route subsequent samples to ``phase``'s bucket."""
        self._phase = phase

    def record(self, value: float) -> None:
        """Add one sample to the current phase's bucket."""
        self.recorder(self._phase).record(value)

    def recorder(self, phase: str) -> LatencyRecorder:
        """The (created-on-demand) recorder for ``phase``."""
        recorder = self._recorders.get(phase)
        if recorder is None:
            recorder = LatencyRecorder(keep_samples=True)
            self._recorders[phase] = recorder
        return recorder

    @property
    def phases(self) -> List[str]:
        """Phases that received at least one sample, in first-use order."""
        return [phase for phase, recorder in self._recorders.items()
                if recorder.count > 0]

    def overall(self) -> LatencyRecorder:
        """All phases merged into one recorder."""
        merged = LatencyRecorder(keep_samples=True)
        for recorder in self._recorders.values():
            merged.merge(recorder)
        return merged
