"""The ``repro raid-rebuild`` experiment: kill a drive under traffic.

A :class:`~repro.core.driver.TrailDriver` fronts a RAID-5 array with a
hot spare.  A seeded open-loop workload (mixed small writes and reads)
runs against the driver; at a planned instant one member drive dies —
scheduled through the same :func:`repro.faults.start_drive_faults`
machinery as every other drive-level fault, so determinism is the
plan's, not the scenario's.  The array detects the death from the
first command that touches it, degrades, and rebuilds the lost member
onto the spare while the foreground traffic keeps flowing.

The experiment reports what the paper's robustness story needs:

* rebuild time (detection → spare fully reconstructed),
* foreground p50/p99 per phase — healthy / degraded / rebuilt —
  (the log disk keeps absorbing small writes at full speed throughout,
  so the interesting number is how little "degraded" differs),
* a full audit: every acknowledged write reads back byte-exact after
  the rebuild, and an offline parity sweep over the final member set
  XORs to zero on every stripe.

Everything is seeded: the same :class:`RaidRebuildConfig` produces a
bit-identical :class:`RaidRebuildResult` (asserted via
:attr:`RaidRebuildResult.fingerprint`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.config import TrailConfig
from repro.core.instance import TrailInstance
from repro.disk.drive import DiskDrive
from repro.disk.presets import tiny_test_disk
from repro.errors import DiskError, ReproError
from repro.faults import FaultPlan, start_drive_faults
from repro.raid.array import Raid5Array, _xor
from repro.raid.rebuild import RebuildConfig
from repro.sim import Event, PhasedLatencyRecorder, Simulation
from repro.units import Ms


@dataclass(frozen=True)
class RaidRebuildConfig:
    """Parameters of one seeded drive-kill-under-traffic run."""

    seed: int = 0
    #: RAID width (members including parity); >= 3.
    members: int = 4
    stripe_unit_sectors: int = 8
    #: Which member dies.
    kill_member: int = 1
    #: When it dies (simulated ms from workload start).
    kill_at_ms: float = 150.0
    #: Open-loop workload duration.
    duration_ms: float = 1500.0
    #: Mean interarrival of foreground operations (the traffic knob).
    interarrival_ms: float = 2.0
    #: Fraction of foreground operations that are reads.
    read_fraction: float = 0.25
    #: Foreground write granularity: every write covers exactly one
    #: aligned page of this many sectors, like a buffer cache feeding
    #: a block device.  (The BlockDevice write-ordering contract only
    #: orders writes to *identical* extents; a workload issuing
    #: overlapping mixed-size extents would race its own write-backs.)
    page_sectors: int = 4
    #: Write-back defer hint advertised while the rebuild runs (the
    #: rebuild throttle itself keeps ``RebuildConfig``'s defaults).
    writeback_defer_ms: float = 2.0
    #: Member-drive size knob (cylinders of the tiny test geometry).
    member_cylinders: int = 40
    #: Log-drive size.  The log must have headroom for the whole burst
    #: of writes the workload issues while write-back is throttled by
    #: the rebuild — a full log would push foreground latency onto the
    #: (deliberately slowed) drain path and measure the wrong thing.
    log_cylinders: int = 120

    def __post_init__(self) -> None:
        if self.members < 3:
            raise DiskError("RAID-5 needs at least 3 members")
        if not 0 <= self.kill_member < self.members:
            raise DiskError(
                f"kill_member {self.kill_member} out of range")
        if self.kill_at_ms < 0 or self.duration_ms <= 0:
            raise DiskError("times must be non-negative")
        if self.interarrival_ms <= 0:
            raise DiskError("interarrival must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise DiskError("read_fraction must be in [0, 1]")
        if self.page_sectors < 1:
            raise DiskError("page_sectors must be >= 1")

    @staticmethod
    def smoke(seed: int = 0) -> "RaidRebuildConfig":
        """A seconds-not-minutes variant for CI."""
        return RaidRebuildConfig(
            seed=seed, kill_at_ms=60.0, duration_ms=400.0,
            interarrival_ms=4.0, member_cylinders=10,
            log_cylinders=40)


@dataclass
class RaidRebuildResult:
    """Everything one run measured, plus its audit verdicts."""

    config: RaidRebuildConfig
    #: Rebuild outcome: "complete", "aborted", or "never-started".
    rebuild_status: str = "never-started"
    #: Detection → spare fully reconstructed, in simulated ms.
    rebuild_ms: float = 0.0
    stripes_rebuilt: int = 0
    stripes_total: int = 0
    #: Foreground operations whose completion event failed.
    foreground_errors: int = 0
    writes_acked: int = 0
    reads_served: int = 0
    #: (phase, samples, p50 ms, p99 ms, mean ms) per experiment phase.
    phase_rows: List[Tuple[str, int, float, float, float]] = field(
        default_factory=list)
    #: Post-rebuild audit: sectors read back vs the workload's model.
    verified_sectors: int = 0
    mismatched_sectors: int = 0
    #: Offline parity sweep over the final member set.
    parity_clean: bool = False
    #: Sectors the rebuild gave up on (unreadable survivor extents).
    lost_sectors: int = 0
    #: Trail/array interaction counters.
    rebuild_deferrals: int = 0
    degraded_reads: int = 0
    degraded_writes: int = 0
    gate_waits: int = 0
    op_retries: int = 0
    amplification: float = 0.0
    #: Digest of every observable number above plus the raw latency
    #: samples — two runs with the same config must produce the same
    #: fingerprint.
    fingerprint: str = ""
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The acceptance gate: rebuilt, error-free, byte-exact."""
        return (self.rebuild_status == "complete"
                and self.foreground_errors == 0
                and self.mismatched_sectors == 0
                and self.parity_clean
                and self.lost_sectors == 0)


def run_raid_rebuild(config: RaidRebuildConfig) -> RaidRebuildResult:
    """Run one seeded drive-kill experiment end to end."""
    sim = Simulation()
    spec = tiny_test_disk(cylinders=config.member_cylinders,
                          heads=2, sectors_per_track=16)
    log_drive = tiny_test_disk(
        cylinders=config.log_cylinders).make_drive(sim, "log")
    members = [spec.make_drive(sim, f"member{i}")
               for i in range(config.members)]
    spare = spec.make_drive(sim, "spare")
    array = Raid5Array(
        sim, members, stripe_unit_sectors=config.stripe_unit_sectors,
        spares=[spare],
        rebuild_config=RebuildConfig(
            writeback_defer_ms=config.writeback_defer_ms))
    instance = TrailInstance(
        sim, log_drive, {0: array},
        TrailConfig(idle_reposition_interval_ms=0))
    trail = instance.driver

    result = RaidRebuildResult(config=config,
                               stripes_total=array.stripes_total)
    phases = PhasedLatencyRecorder("healthy")
    model: Dict[int, bytes] = {}
    sector_size = trail.sector_size
    rng = random.Random(config.seed)

    # The drive kill goes through the fault plan so the schedule is the
    # plan's responsibility, exactly like per-sector faults.
    kill_plan = FaultPlan(seed=config.seed,
                          death_at_ms=config.kill_at_ms)
    start_drive_faults(sim, members[config.kill_member], kill_plan)

    def flip_degraded() -> Generator[Event, Any, None]:
        yield sim.timeout(config.kill_at_ms)
        phases.set_phase("degraded")

    sim.process(flip_degraded(), name="phase-degraded")

    def watch_rebuild() -> Generator[Event, Any, None]:
        # Detection is lazy (the array learns of the death from the
        # next command that touches the member), so poll for the engine
        # to appear, then sleep on its completion event.
        while array.rebuild is None:
            if array.array_failed:
                return
            yield sim.timeout(1.0)
        engine = array.rebuild
        yield engine.done
        if engine.status == "complete":
            phases.set_phase("rebuilt")

    sim.process(watch_rebuild(), name="phase-rebuilt")

    #: Sectors with an issued-but-unacknowledged write; verifying
    #: reads avoid them, since the device legitimately serves the old
    #: contents until the write is acknowledged.
    inflight: Dict[int, int] = {}

    def complete(event: Event, issued_at: Ms, is_read: bool,
                 lba: int, nsectors: int, want: Optional[bytes],
                 ) -> Generator[Event, Any, None]:
        try:
            value = yield event
        except ReproError:
            result.foreground_errors += 1
            return
        finally:
            if not is_read:
                for offset in range(nsectors):
                    sector = lba + offset
                    inflight[sector] -= 1
                    if not inflight[sector]:
                        del inflight[sector]
        phases.record(sim.now - issued_at)
        if is_read:
            result.reads_served += 1
            # A write to the same sector issued while this read was in
            # flight may legitimately win; accept the value the model
            # held at issue time or holds now.
            got = bytes(value[:sector_size])
            if want is not None and got != want and got != model.get(lba):
                result.mismatched_sectors += 1
        else:
            result.writes_acked += 1

    def workload() -> Generator[Event, Any, None]:
        pages = array.geometry.total_sectors // config.page_sectors
        nsectors = config.page_sectors
        deadline = config.duration_ms
        while sim.now < deadline:
            settled = [sector for sector in sorted(model)
                       if sector not in inflight]
            if settled and rng.random() < config.read_fraction:
                lba = rng.choice(settled)
                want = model[lba]
                event: Event = trail.read(lba, 1)
                sim.process(complete(event, sim.now, True, lba, 1, want),
                            name=f"fg-read@{lba}")
            else:
                lba = rng.randrange(0, pages) * nsectors
                fill = bytes([rng.randrange(256)])
                data = fill * (nsectors * sector_size)
                for offset in range(nsectors):
                    model[lba + offset] = data[:sector_size]
                    inflight[lba + offset] = (
                        inflight.get(lba + offset, 0) + 1)
                event = trail.write(lba, data)
                sim.process(
                    complete(event, sim.now, False, lba, nsectors, None),
                    name=f"fg-write@{lba}")
            yield sim.timeout(rng.expovariate(1.0 / config.interarrival_ms))

    sim.run_until(sim.process(workload(), name="raid-workload"))

    # The kill may have gone undetected if traffic happened to miss the
    # dead member; a full-span read forces detection deterministically.
    if array.failed_drive is None and members[config.kill_member].dead:
        span = min(array.geometry.total_sectors,
                   config.stripe_unit_sectors * (config.members - 1))
        sim.run_until(array.read(0, span))
    engine = array.rebuild
    if engine is not None:
        if engine.active:
            sim.run_until(engine.done)
        result.rebuild_status = engine.status
        result.rebuild_ms = engine.elapsed_ms
        result.stripes_rebuilt = engine.stripes_rebuilt
        result.lost_sectors = len(engine.lost_sectors)
    sim.run_until(sim.process(trail.flush(), name="final-flush"))

    # Audit 1: every modeled sector reads back byte-exact through the
    # driver (buffer hits and disk reads both count).
    def verify() -> Generator[Event, Any, int]:
        mismatches = 0
        for lba in sorted(model):
            data = yield trail.read(lba, 1)
            if bytes(data[:sector_size]) != model[lba]:
                mismatches += 1
        return mismatches
    result.mismatched_sectors += sim.run_until(
        sim.process(verify(), name="verify"))
    result.verified_sectors = len(model)

    # Audit 2: offline parity sweep — with the rebuilt spare swapped
    # into the member set, XOR across each stripe must be zero.
    result.parity_clean = _parity_sweep(array)

    stats = array.stats
    result.rebuild_deferrals = trail.writeback.rebuild_deferrals
    result.degraded_reads = stats.degraded_reads
    result.degraded_writes = stats.degraded_writes
    result.gate_waits = stats.gate_waits
    result.op_retries = stats.op_retries
    result.amplification = stats.amplification
    for phase in phases.phases:
        recorder = phases.recorder(phase)
        result.phase_rows.append((
            phase, recorder.count, recorder.percentile(50.0),
            recorder.percentile(99.0), recorder.mean))
    if array.failed_drive is not None:
        result.notes.append("array still degraded at end of run")
    if result.rebuild_status == "complete":
        result.notes.append(
            f"rebuild copied {result.stripes_rebuilt} stripes in "
            f"{result.rebuild_ms:.1f} ms while foreground I/O flowed")
    result.fingerprint = _fingerprint(result)
    return result


def _parity_sweep(array: Raid5Array) -> bool:
    """Offline check: every stripe's members XOR to zero."""
    unit_bytes = array.stripe_unit * array.sector_size
    zero = bytes(unit_bytes)
    for stripe in range(array.stripes_total):
        lba = stripe * array.stripe_unit
        chunks: List[bytes] = []
        for drive in array.drives:
            chunks.append(drive.store.read(lba, array.stripe_unit))
        if _xor(chunks) != zero:
            return False
    return True


def _fingerprint(result: RaidRebuildResult) -> str:
    """Deterministic digest of every observable number in the result."""
    digest = hashlib.sha256()
    parts: List[object] = [
        result.rebuild_status, round(result.rebuild_ms, 6),
        result.stripes_rebuilt, result.stripes_total,
        result.foreground_errors, result.writes_acked,
        result.reads_served, result.verified_sectors,
        result.mismatched_sectors, result.parity_clean,
        result.lost_sectors, result.rebuild_deferrals,
        result.degraded_reads, result.degraded_writes,
        result.gate_waits, result.op_retries,
        round(result.amplification, 9),
    ]
    for row in result.phase_rows:
        parts.append((row[0], row[1], round(row[2], 6),
                      round(row[3], 6), round(row[4], 6)))
    digest.update(repr(parts).encode())
    return digest.hexdigest()[:16]
