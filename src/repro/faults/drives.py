"""Drive-level fault execution: whole-drive death and flapping.

Per-sector faults live in the :class:`~repro.faults.FaultInjector`
that the drive consults inside its service loop; drive-*level* faults
(the whole unit dying or bouncing) are instead driven from outside by
a background simulation process, because they must fire at plan time
even when the drive is idle.

The schedule is a pure function of the :class:`~repro.faults.FaultPlan`
(:func:`drive_fault_schedule`) — same plan, same fail/revive edge
sequence, no randomness needed — which keeps the PR 2 determinism
contract: attaching the same plan to the same workload reproduces the
identical simulation outcome.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.faults.plan import FaultPlan
from repro.sim import Event, Process, Simulation

if TYPE_CHECKING:  # pragma: no cover — circular at runtime: the
    # drive module imports repro.faults.plan, which initializes this
    # package; DiskDrive is needed here only as an annotation.
    from repro.disk.drive import DiskDrive

#: One scheduled drive-level fault edge: (sim time in ms, action),
#: where action is ``"fail"`` or ``"revive"``.
DriveFaultEdge = Tuple[float, str]


def drive_fault_schedule(plan: FaultPlan) -> List[DriveFaultEdge]:
    """The fail/revive edge sequence a plan's drive-level faults yield.

    Flap cycle ``k`` fails the drive at ``flap_at_ms + k * (down + up)``
    and revives it ``flap_down_ms`` later.  A permanent death at
    ``death_at_ms`` truncates the schedule: no edge at or after the
    death survives, because nothing revives a cleanly dead drive.
    Tests use this pure function as the oracle for what
    :func:`start_drive_faults` will do.
    """
    edges: List[DriveFaultEdge] = []
    if plan.flap_at_ms is not None:
        at = plan.flap_at_ms
        for _ in range(plan.flap_cycles):
            edges.append((at, "fail"))
            edges.append((at + plan.flap_down_ms, "revive"))
            at += plan.flap_down_ms + plan.flap_up_ms
    if plan.death_at_ms is not None:
        edges = [edge for edge in edges if edge[0] < plan.death_at_ms]
        edges.append((plan.death_at_ms, "fail"))
    edges.sort(key=lambda edge: edge[0])
    return edges


def start_drive_faults(
    sim: Simulation, drive: DiskDrive, plan: FaultPlan,
) -> Optional[Process]:
    """Launch ``plan``'s drive-level fault schedule against ``drive``.

    Returns the background process executing the schedule, or ``None``
    when the plan has no drive-level faults (the common case — the
    process then costs nothing, not even a kernel event).  Edge times
    are absolute simulated times; edges already in the past fire
    immediately.
    """
    schedule = drive_fault_schedule(plan)
    if not schedule:
        return None
    return sim.process(_execute(sim, drive, schedule),
                       name=f"drive-faults:{drive.name}")


def _execute(
    sim: Simulation, drive: DiskDrive, schedule: List[DriveFaultEdge],
) -> Generator[Event, Any, None]:
    for at_ms, action in schedule:
        if at_ms > sim.now:
            yield sim.timeout(at_ms - sim.now)
        if action == "fail":
            drive.fail()
        else:
            drive.revive()
