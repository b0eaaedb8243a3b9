"""Ready-made system assemblies for experiments and examples.

Every benchmark needs the same scaffolding — a simulation, drive
models matching the paper's testbed, a formatted/mounted driver — so
it lives here once.  Each ``build_*`` function builds its drives from
specs and hands them to the :class:`~repro.core.instance.TrailInstance`
or :class:`~repro.core.instance.BaselineInstance` facade, so every
benchmark gets a proper isolated instance with the ``sim`` /
``driver`` / ``data_drives`` surface (plus ``log_drive`` for Trail).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.baselines.lfs import LfsDriver
from repro.baselines.standard import StandardDriver
from repro.core.config import TrailConfig
from repro.core.instance import BaselineInstance, TrailInstance
from repro.disk.drive import DiskDrive
from repro.disk.presets import DriveSpec, st41601n, wd_caviar_10gb
from repro.sim import Simulation
from repro.units import Sectors


def build_trail_system(
    data_disk_count: int = 1,
    config: Optional[TrailConfig] = None,
    log_spec: Optional[DriveSpec] = None,
    data_spec: Optional[DriveSpec] = None,
    mount: bool = True,
    phase_drift: Optional[Callable[[float], float]] = None,
) -> TrailInstance[DiskDrive]:
    """The paper's testbed: one ST41601N log disk, WD Caviar data disks.

    With ``mount=True`` the simulation is advanced through format +
    mount so the returned driver is ready for requests.
    """
    sim = Simulation()
    log_drive = (log_spec or st41601n()).make_drive(
        sim, "trail-log", phase_drift=phase_drift)
    return TrailInstance(
        sim, log_drive, _data_drives(sim, data_disk_count, data_spec),
        config, mount=mount)


def build_standard_system(
    data_disk_count: int = 1,
    data_spec: Optional[DriveSpec] = None,
) -> BaselineInstance[DiskDrive]:
    """The paper's baseline: the same data disks behind a plain driver."""
    sim = Simulation()
    data_drives = _data_drives(sim, data_disk_count, data_spec)
    return BaselineInstance(sim, StandardDriver(sim, data_drives),
                            data_drives)


def build_lfs_system(
    data_spec: Optional[DriveSpec] = None,
    segment_sectors: Sectors = 512,
) -> BaselineInstance[DiskDrive]:
    """The related-work comparator: one disk behind the LFS driver."""
    sim = Simulation()
    data_drives = {0: (data_spec or wd_caviar_10gb()).make_drive(sim, "lfs0")}
    driver = LfsDriver(sim, data_drives, segment_sectors=segment_sectors)
    return BaselineInstance(sim, driver, data_drives)


def _data_drives(sim: Simulation, count: int,
                 spec: Optional[DriveSpec]) -> Dict[int, DiskDrive]:
    """``count`` data drives (WD Caviar unless ``spec``): data0, data1…"""
    return {disk_id: (spec or wd_caviar_10gb()).make_drive(
                sim, f"data{disk_id}")
            for disk_id in range(count)}
