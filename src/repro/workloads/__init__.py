"""Synthetic workload generators for the §5.1 microbenchmarks."""

from repro.workloads.synthetic import (
    ArrivalMode, SyncWriteWorkload, WorkloadResult, run_sync_write_workload)

__all__ = [
    "ArrivalMode",
    "SyncWriteWorkload",
    "WorkloadResult",
    "run_sync_write_workload",
]
