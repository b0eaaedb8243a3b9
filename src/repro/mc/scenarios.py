"""The three model-checked scenarios and their invariant digests.

Each scenario builds a *fresh* world under the explorer's
:class:`~repro.sim.explore.ScheduleController`, runs a deterministic
workload to completion with a fresh ``TRAILSAN`` sanitizer installed,
and returns the digests that must be byte-identical on every explored
schedule.  What a scenario digests — and which choice-point kinds it
lets the explorer enumerate — is chosen so the digest is exactly the
set of outcomes the stack *guarantees* independent of scheduling:

``crash-recovery`` / ``writeback-faults`` (``ready`` ties)
    Concurrent LBA-disjoint writers have one correct final **data
    disk** image no matter how same-time dispatches interleave.  The
    log disk's byte layout legitimately varies with dispatch order
    (batching and placement are timing-dependent), so only the data
    image is digested; the log's correctness is asserted indirectly —
    recovery must reproduce the unique data image from whatever log
    the schedule produced, and the sanitizer's tail-chain /
    pinned-accounting groups must hold at every context switch.

``two-instance`` (``instance`` interleaving)
    Cross-instance isolation (PR 8's ``TrailInstance`` contract) means
    *everything* per-instance is invariant: full disk fingerprints
    (log bytes included) and per-instance event traces must match the
    canonical round-robin interleave for every enumerated global
    order.  Intra-sim ``ready`` ties are *not* explored here — they
    would legitimately change per-instance traces, which is the other
    two scenarios' job to vet.

Same-timestamp ready ties are the explored nondeterminism inside one
simulation; delayed (heap) events pop FIFO per timestamp, the same
scope the PR 4 perturbation harness exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Generator, List, Mapping, Optional, Tuple

from repro.core.config import TrailConfig
from repro.core.driver import TrailDriver
from repro.core.instance import TrailInstance, store_digest
from repro.core.recovery import RecoveryReport
from repro.disk.drive import DiskDrive
from repro.disk.presets import tiny_test_disk
from repro.faults.oracle import DurabilityOracle
from repro.faults.plan import FaultPlan
from repro.sim.events import Event
from repro.sim.explore import (
    KIND_INSTANCE, KIND_READY, ExplorationReport, Explorer, RunResult,
    ScenarioRunner, ScheduleController, controlled_simulation, drive,
    drive_interleaved)
from repro.sim.kernel import Simulation
from repro.sim.sanitizer import TrailSanitizer

SECTOR = 512
#: Writers per instance; spaced so extents never overlap (disjoint
#: LBA ranges -> a unique correct final data image).
WRITERS = 3
ROUNDS = 2
STRIDE = 64


def _payload(writer: int, round_no: int, nsectors: int) -> bytes:
    seed = (writer * 131 + round_no * 17) % 251 + 1
    return bytes((seed + i) % 256 for i in range(nsectors * SECTOR))


def _writer(driver: TrailDriver, writer: int, oracle: DurabilityOracle,
            ) -> Generator[Event, Any, None]:
    base = writer * STRIDE * ROUNDS
    for round_no in range(ROUNDS):
        lba = base + round_no * STRIDE
        payload = _payload(writer, round_no, 1 + (writer + round_no) % 2)
        oracle.issue(lba, payload)
        yield driver.write(lba, payload)
        oracle.ack(lba, payload)


def _build_instance(controller: ScheduleController,
                    ) -> TrailInstance[DiskDrive]:
    """One small, fast Trail stack under the controller's schedule.

    The sanitizer is installed unconditionally — every explored
    schedule is a ``TRAILSAN=1`` run regardless of the environment —
    and must be in place before the driver registers its groups.
    """
    sim = controlled_simulation(controller, sanitizer=TrailSanitizer())
    log = tiny_test_disk(cylinders=30).make_drive(sim, "log")
    data = tiny_test_disk(cylinders=80, heads=4, sectors_per_track=32,
                          ).make_drive(sim, "data0")
    return TrailInstance(
        sim, log, {0: data},
        TrailConfig(idle_reposition_interval_ms=0), mount=False)


def _data_digest(instance: TrailInstance[DiskDrive]) -> str:
    """Digest of the data disks' written sectors (log excluded)."""
    return store_digest([instance.data_drives[disk_id]
                         for disk_id in sorted(instance.data_drives)])


def _audit_failure(instance: TrailInstance[DiskDrive],
                   oracle: DurabilityOracle,
                   report: Optional[RecoveryReport] = None) -> Optional[str]:
    """None when the data disks pass ``oracle``'s audit, else why not."""
    audit = oracle.audit(
        lambda disk, lba: instance.data_drives[disk].store.read_sector(lba),
        report)
    return None if audit.ok else f"durability audit failed: {audit}"


def _run_workload(instance: TrailInstance[DiskDrive],
                  oracle: DurabilityOracle) -> None:
    sim = instance.sim
    driver = instance.driver

    def workload() -> Generator[Event, Any, None]:
        writers = [sim.process(_writer(driver, w, oracle), name=f"w{w}")
                   for w in range(WRITERS)]
        yield sim.all_of(writers)

    drive(sim, sim.process(workload(), name="workload"))


def _scenario_crash_recovery(
        controller: ScheduleController) -> RunResult:
    """Ack writes, cut power, recover, flush: one correct data image.

    The crash lands after every write is acknowledged — Trail's §4.1
    guarantee then pins the outcome: whatever mix of log placement and
    write-back progress this schedule reached, remount recovery must
    pass the durability oracle's audit, and recovery plus a full flush
    must rebuild the same data-disk bytes.
    """
    instance = _build_instance(controller)
    sim = instance.sim
    drive(sim, sim.process(instance.driver.mount(), name="mount"))
    oracle = DurabilityOracle()
    _run_workload(instance, oracle)
    instance.crash()
    report = instance.remount()
    failure = _audit_failure(instance, oracle, report)

    def finish() -> Generator[Event, Any, None]:
        yield from instance.driver.flush()
        yield from instance.driver.clean_shutdown()

    drive(sim, sim.process(finish(), name="finish"))
    return RunResult(
        digests=(_data_digest(instance),),
        failure=failure,
        note="recovery ran" if report is not None else "no recovery")


def _scenario_writeback_faults(
        controller: ScheduleController) -> RunResult:
    """Write-back against a flaky data disk still converges.

    Transient write faults and latency spikes on the data drive are
    absorbed by the drive's retry/remap loop; the retry budget is
    sized so exhaustion is unreachable, leaving the final data image
    unique across schedules even though *which* command each seeded
    fault lands on depends on dispatch order.
    """
    instance = _build_instance(controller)
    sim = instance.sim
    instance.data_drives[0].attach_faults(FaultPlan(
        seed=5,
        transient_write_error_prob=0.15,
        latency_spike_prob=0.1,
        latency_spike_ms=2.0,
        retry_limit=10,
    ))
    drive(sim, sim.process(instance.driver.mount(), name="mount"))
    oracle = DurabilityOracle()
    _run_workload(instance, oracle)

    def finish() -> Generator[Event, Any, None]:
        yield from instance.driver.flush()
        yield from instance.driver.clean_shutdown()

    drive(sim, sim.process(finish(), name="finish"))
    return RunResult(digests=(_data_digest(instance),),
                     failure=_audit_failure(instance, oracle))


def _scenario_two_instance(
        controller: ScheduleController) -> RunResult:
    """Two full stacks, every bounded interleaving, zero cross-talk.

    Each instance runs its whole lifecycle (mount, disjoint writers,
    flush, clean shutdown) in its own simulation; the controller picks
    which instance steps at every global turn.  Full per-instance
    fingerprints (log bytes included) and event-trace digests must
    match the canonical round-robin run exactly.
    """
    runs: List[Tuple[Simulation, Event]] = []
    instances: List[Tuple[TrailInstance[DiskDrive], DurabilityOracle]] = []
    for tag in ("a", "b"):
        instance = _build_instance(controller)
        sim = instance.sim
        driver = instance.driver
        oracle = DurabilityOracle()

        def lifecycle(sim: Simulation = sim,
                      driver: TrailDriver = driver,
                      oracle: DurabilityOracle = oracle,
                      ) -> Generator[Event, Any, None]:
            yield from driver.mount()
            writers = [sim.process(_writer(driver, w, oracle),
                                   name=f"w{w}")
                       for w in range(WRITERS)]
            yield sim.all_of(writers)
            yield from driver.flush()
            yield from driver.clean_shutdown()

        runs.append((sim, sim.process(lifecycle(), name=f"life-{tag}")))
        instances.append((instance, oracle))
    drive_interleaved(controller, runs)
    digests: List[str] = []
    failures: List[str] = []
    for instance, oracle in instances:
        digests.append(instance.fingerprint())
        digests.append(instance.trace_digest())
        failure = _audit_failure(instance, oracle)
        if failure is not None:
            failures.append(failure)
    return RunResult(digests=tuple(digests),
                     failure="; ".join(failures) or None)


@dataclass(frozen=True)
class Scenario:
    """A model-checked scenario: runner + exploration policy."""

    name: str
    summary: str
    runner: ScenarioRunner
    #: Choice-point kinds whose outcome the digests are invariant
    #: under (the only kinds the explorer may enumerate here).
    explore: Tuple[str, ...]
    #: What each digest position means, for reporting.
    digest_names: Tuple[str, ...]


# Per-run state lives in each schedule's fresh instances.
SCENARIOS: Mapping[str, Scenario] = MappingProxyType({
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="crash-recovery",
            summary="acked writes survive power cut + remount recovery",
            runner=_scenario_crash_recovery,
            explore=(KIND_READY,),
            digest_names=("data-image",),
        ),
        Scenario(
            name="writeback-faults",
            summary="write-back under transient data-disk faults",
            runner=_scenario_writeback_faults,
            explore=(KIND_READY,),
            digest_names=("data-image",),
        ),
        Scenario(
            name="two-instance",
            summary="two interleaved instances stay bit-isolated",
            runner=_scenario_two_instance,
            explore=(KIND_INSTANCE,),
            digest_names=("fingerprint-a", "trace-a",
                          "fingerprint-b", "trace-b"),
        ),
    )
})


def explore_scenario(
    scenario: Scenario,
    *,
    preemption_bound: int = 2,
    budget: int = 200,
    max_dispatches: int = 200_000,
    stop_on_failure: bool = True,
) -> ExplorationReport:
    """Run the bounded exploration for one scenario."""
    explorer = Explorer(
        scenario.runner,
        preemption_bound=preemption_bound,
        budget=budget,
        max_dispatches=max_dispatches,
        stop_on_failure=stop_on_failure,
        explore=scenario.explore,
    )
    return explorer.run()


__all__ = [
    "SCENARIOS",
    "Scenario",
    "explore_scenario",
]
