"""Reproduction of *Track-Based Disk Logging* (Chiueh & Huang, DSN 2002).

Trail is a disk subsystem that makes synchronous writes cost roughly
data-transfer time plus command overhead: every write is first appended
to a dedicated log disk at the sector about to pass under the head,
acknowledged, and propagated to its real location asynchronously.

Quick start::

    from repro import build_trail_system

    system = build_trail_system()
    sim, trail = system.sim, system.driver

    def app():
        latency = yield trail.write(1000, b"hello world")
        data = yield trail.read(1000, 1)

    sim.run_until(sim.process(app()))

Package map:

- :mod:`repro.sim` — discrete-event simulation kernel
- :mod:`repro.disk` — mechanically explicit disk simulator
- :mod:`repro.core` — the Trail driver (the paper's contribution)
- :mod:`repro.baselines` — standard driver, group commit, LFS comparator
- :mod:`repro.db` / :mod:`repro.tpcc` — transaction engine + TPC-C
- :mod:`repro.workloads` — §5.1 synthetic microbenchmarks
- :mod:`repro.analysis` — experiment scaffolding and tables
"""

from repro.analysis import (
    build_lfs_system, build_standard_system, build_trail_system)
from repro.baselines import (
    GroupCommitPolicy, LfsDriver, StandardDriver, SyncCommitPolicy)
from repro.blockdev import BlockDevice
from repro.core import (
    HeadPositionPredictor, RecoveryManager, RecoveryReport,
    StripedTrailDriver, TrailConfig, TrailDriver)
from repro.disk import (
    DiskDrive, DiskGeometry, st41601n, tiny_test_disk, wd_caviar_10gb)
from repro.fs import FileSystem
from repro.raid import Raid5Array
from repro.sim import Simulation
from repro.tpcc import TpccRunConfig, TpccRunResult, run_tpcc
from repro.workloads import (
    ArrivalMode, SyncWriteWorkload, run_sync_write_workload)

__version__ = "0.1.0"

__all__ = [
    "ArrivalMode",
    "BlockDevice",
    "DiskDrive",
    "DiskGeometry",
    "FileSystem",
    "GroupCommitPolicy",
    "HeadPositionPredictor",
    "LfsDriver",
    "Raid5Array",
    "RecoveryManager",
    "RecoveryReport",
    "Simulation",
    "StandardDriver",
    "StripedTrailDriver",
    "SyncCommitPolicy",
    "SyncWriteWorkload",
    "TpccRunConfig",
    "TpccRunResult",
    "TrailConfig",
    "TrailDriver",
    "build_lfs_system",
    "build_standard_system",
    "build_trail_system",
    "run_sync_write_workload",
    "run_tpcc",
    "st41601n",
    "tiny_test_disk",
    "wd_caviar_10gb",
    "__version__",
]
