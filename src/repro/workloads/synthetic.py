"""Synthetic synchronous-write workloads (§5.1, Figure 3).

The paper's microbenchmark: "a user-level process that sends a sequence
of synchronous write requests with random target locations", in two
arrival modes —

* **clustered**: the next request arrives immediately after the
  previous one's log-disk write completes (back-to-back), so Trail's
  track-switch overhead is visible;
* **sparse**: the next request arrives a gap ``T`` after the previous
  completes, with ``T`` larger than the ~1.5 ms repositioning overhead,
  so the switch is masked by idle time.

Multi-programming (Figure 3(b)) runs several such processes
concurrently against the same device, exposing queueing delay.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.blockdev import BlockDevice
from repro.errors import WorkloadError
from repro.sim import LatencyRecorder, Simulation
from repro.units import KiB, sectors_for


class ArrivalMode(enum.Enum):
    """Figure 3's two request-arrival disciplines."""

    SPARSE = "sparse"
    CLUSTERED = "clustered"


@dataclass
class SyncWriteWorkload:
    """Configuration of one §5.1 microbenchmark run."""

    requests_per_process: int = 100
    write_bytes: int = KiB(1)
    mode: ArrivalMode = ArrivalMode.SPARSE
    processes: int = 1
    #: Sparse-mode gap T; the paper requires it to exceed the ~1.5 ms
    #: repositioning overhead.
    sparse_gap_ms: float = 5.0
    #: Random write targets are drawn from [0, target_span_sectors).
    target_span_sectors: Optional[int] = None
    disk_id: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests_per_process < 1:
            raise WorkloadError("requests_per_process must be >= 1")
        if self.write_bytes < 1:
            raise WorkloadError("write_bytes must be >= 1")
        if self.processes < 1:
            raise WorkloadError("processes must be >= 1")
        if self.mode is ArrivalMode.SPARSE and self.sparse_gap_ms <= 0:
            raise WorkloadError("sparse mode needs a positive gap")


@dataclass
class WorkloadResult:
    """Latency statistics of one run."""

    latencies: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(keep_samples=True))
    started_at: float = 0.0
    finished_at: float = 0.0
    requests: int = 0

    @property
    def makespan_ms(self) -> float:
        return self.finished_at - self.started_at

    @property
    def mean_latency_ms(self) -> float:
        return self.latencies.mean

    @property
    def throughput_per_s(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return self.requests / (self.makespan_ms / 1000.0)


def run_sync_write_workload(
    sim: Simulation,
    device: BlockDevice,
    workload: SyncWriteWorkload,
) -> WorkloadResult:
    """Execute the workload to completion and return its statistics.

    Creates the writer processes, runs the simulation until they all
    finish, and aggregates their latencies.  The caller must have the
    device ready (Trail mounted) before calling.
    """
    result = WorkloadResult()
    disk = device.data_disks[workload.disk_id]
    span = workload.target_span_sectors
    if span is None:
        span = disk.geometry.total_sectors
    sectors_per_write = max(
        1, sectors_for(workload.write_bytes, device.sector_size))
    if span <= sectors_per_write:
        raise WorkloadError("target span smaller than one write")

    def writer(process_index: int) -> Generator:
        rng = random.Random(workload.seed * 1000 + process_index)
        for _ in range(workload.requests_per_process):
            lba = rng.randrange(0, span - sectors_per_write)
            payload = bytes([process_index & 0xFF]) * workload.write_bytes
            started = sim.now
            yield device.write(lba, payload, disk_id=workload.disk_id)
            result.latencies.record(sim.now - started)
            result.requests += 1
            if workload.mode is ArrivalMode.SPARSE:
                yield sim.timeout(workload.sparse_gap_ms)

    result.started_at = sim.now
    processes = [
        sim.process(writer(index), name=f"writer-{index}")
        for index in range(workload.processes)
    ]
    done = sim.all_of(processes)
    sim.run_until(done)
    result.finished_at = sim.now
    return result
