"""Unit tests for the §5.1 synthetic workload generator."""

import pytest

from repro.analysis import build_standard_system, build_trail_system
from repro.core.config import TrailConfig
from repro.disk.presets import tiny_test_disk
from repro.errors import WorkloadError
from repro.units import KiB
from repro.workloads import (
    ArrivalMode, SyncWriteWorkload, run_sync_write_workload)


def tiny_trail():
    return build_trail_system(
        config=TrailConfig(idle_reposition_interval_ms=0),
        log_spec=tiny_test_disk(cylinders=40),
        data_spec=tiny_test_disk(cylinders=120, heads=4,
                                 sectors_per_track=32))


def tiny_standard():
    return build_standard_system(
        data_spec=tiny_test_disk(cylinders=120, heads=4,
                                 sectors_per_track=32))


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            SyncWriteWorkload(requests_per_process=0)
        with pytest.raises(WorkloadError):
            SyncWriteWorkload(write_bytes=0)
        with pytest.raises(WorkloadError):
            SyncWriteWorkload(processes=0)
        with pytest.raises(WorkloadError):
            SyncWriteWorkload(mode=ArrivalMode.SPARSE, sparse_gap_ms=0)

    def test_span_too_small(self):
        system = tiny_standard()
        workload = SyncWriteWorkload(write_bytes=KiB(4),
                                     target_span_sectors=4)
        with pytest.raises(WorkloadError):
            run_sync_write_workload(system.sim, system.driver, workload)


class TestExecution:
    def test_runs_requested_count(self):
        system = tiny_standard()
        workload = SyncWriteWorkload(requests_per_process=20,
                                     processes=2, seed=1)
        started_at = system.sim.now
        result = run_sync_write_workload(system.sim, system.driver,
                                         workload)
        assert result.requests == 40
        assert result.latencies.count == 40
        assert result.makespan_ms == system.sim.now - started_at > 0
        assert result.throughput_per_s > 0

    def test_seed_reproducible(self):
        def mean(seed):
            system = tiny_standard()
            workload = SyncWriteWorkload(requests_per_process=15, seed=seed)
            return run_sync_write_workload(
                system.sim, system.driver, workload).mean_latency_ms

        assert mean(3) == mean(3)
        assert mean(3) != mean(4)

    def test_sparse_slower_wall_clock_than_clustered(self):
        def makespan(mode):
            system = tiny_standard()
            workload = SyncWriteWorkload(requests_per_process=10,
                                         mode=mode, sparse_gap_ms=5.0)
            return run_sync_write_workload(
                system.sim, system.driver, workload).makespan_ms

        assert makespan(ArrivalMode.SPARSE) \
            > makespan(ArrivalMode.CLUSTERED)


class TestPaperShape:
    def test_trail_faster_than_standard(self):
        workload = SyncWriteWorkload(requests_per_process=30,
                                     write_bytes=KiB(1), seed=7)
        trail_system = tiny_trail()
        trail = run_sync_write_workload(trail_system.sim,
                                        trail_system.driver, workload)
        standard_system = tiny_standard()
        standard = run_sync_write_workload(
            standard_system.sim, standard_system.driver, workload)
        assert trail.mean_latency_ms < standard.mean_latency_ms

    def test_standard_indifferent_to_arrival_mode(self):
        """Figure 3: the baseline's latency is the same under sparse
        and clustered arrivals."""
        def mean(mode):
            system = tiny_standard()
            workload = SyncWriteWorkload(requests_per_process=40,
                                         mode=mode, seed=5)
            return run_sync_write_workload(
                system.sim, system.driver, workload).mean_latency_ms

        sparse, clustered = (mean(ArrivalMode.SPARSE),
                             mean(ArrivalMode.CLUSTERED))
        assert abs(sparse - clustered) / sparse < 0.25

    def test_trail_clustered_slower_than_sparse(self):
        """Figure 3: Trail's track-switch overhead is visible to
        clustered arrivals but masked by sparse gaps."""
        def mean(mode):
            system = tiny_trail()
            workload = SyncWriteWorkload(requests_per_process=40,
                                         mode=mode, seed=5,
                                         sparse_gap_ms=6.0)
            return run_sync_write_workload(
                system.sim, system.driver, workload).mean_latency_ms

        assert mean(ArrivalMode.CLUSTERED) > mean(ArrivalMode.SPARSE)
