"""Cross-driver integration tests: the paper's comparative claims at
test scale (the benchmarks reproduce them at the paper's run lengths)."""

import pytest

from repro.analysis import (
    build_lfs_system, build_standard_system, build_trail_system)
from repro.core.config import TrailConfig
from repro.units import KiB
from repro.workloads import (
    ArrivalMode, SyncWriteWorkload, run_sync_write_workload)


def run_on(kind, workload):
    if kind == "trail":
        system = build_trail_system(
            config=TrailConfig(idle_reposition_interval_ms=0))
    elif kind == "standard":
        system = build_standard_system()
    else:
        system = build_lfs_system()
    return run_sync_write_workload(system.sim, system.driver, workload)


@pytest.fixture(scope="module")
def latencies_1k():
    workload = SyncWriteWorkload(requests_per_process=40,
                                 write_bytes=KiB(1), seed=2)
    return {kind: run_on(kind, workload).mean_latency_ms
            for kind in ("trail", "standard", "lfs")}


class TestLatencyOrdering:
    def test_trail_beats_standard_severalfold(self, latencies_1k):
        """§5.1: Trail is up to ~12x faster; on the full-size drive
        models we expect a large multiple for 1 KB writes."""
        assert latencies_1k["standard"] / latencies_1k["trail"] > 4.0

    def test_trail_beats_lfs(self, latencies_1k):
        """§2: LFS removes most seeking but still pays rotational
        latency; Trail removes both."""
        assert latencies_1k["trail"] < latencies_1k["lfs"]

    def test_lfs_beats_standard(self, latencies_1k):
        """Appending beats in-place random writes."""
        assert latencies_1k["lfs"] < latencies_1k["standard"]

    def test_trail_latency_near_transfer_plus_overhead(self):
        """§5.1: '(a) 4-KByte disk write takes less than 1.5 msec' — on
        our ST41601N model, overhead 1.27 ms + 9 sectors transfer
        ~1.1 ms; allow the sub-0.5 ms residual rotation the paper
        reports.  1-sector writes land near 1.5 ms."""
        workload = SyncWriteWorkload(requests_per_process=50,
                                     write_bytes=512, seed=3)
        result = run_on("trail", workload)
        assert result.mean_latency_ms < 2.2

    def test_advantage_shrinks_with_write_size(self):
        """Figure 3: as transfer time dominates, the Trail/standard
        ratio falls."""
        def ratio(size):
            workload = SyncWriteWorkload(requests_per_process=25,
                                         write_bytes=size, seed=4)
            return (run_on("standard", workload).mean_latency_ms
                    / run_on("trail", workload).mean_latency_ms)

        assert ratio(KiB(1)) > ratio(KiB(64))


class TestMultiprogramming:
    def test_queueing_amplifies_trail_advantage(self):
        """Figure 3(b): with five processes, the standard subsystem's
        queueing delay blows up while Trail absorbs the load."""
        def mean(kind, processes):
            workload = SyncWriteWorkload(
                requests_per_process=20, processes=processes,
                write_bytes=KiB(1), mode=ArrivalMode.CLUSTERED, seed=6)
            return run_on(kind, workload).mean_latency_ms

        ratio_1 = mean("standard", 1) / mean("trail", 1)
        ratio_5 = mean("standard", 5) / mean("trail", 5)
        assert ratio_5 > ratio_1


class TestReadYourWrites:
    def test_all_drivers_read_back_written_data(self):
        for kind in ("trail", "standard", "lfs"):
            if kind == "trail":
                system = build_trail_system(
                    config=TrailConfig(idle_reposition_interval_ms=0))
            elif kind == "standard":
                system = build_standard_system()
            else:
                system = build_lfs_system()
            sim, driver = system.sim, system.driver

            def body():
                yield driver.write(5000, b"P" * 1024)
                data = yield driver.read(5000, 2)
                return data

            data = sim.run_until(sim.process(body()))
            assert data == b"P" * 1024, kind
