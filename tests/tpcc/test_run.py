"""End-to-end tests for the TPC-C harness (small runs)."""

import pytest

from types import SimpleNamespace

from repro.errors import DeadlockError, WorkloadError
from repro.tpcc.metrics import TpccMetrics
from repro.tpcc.run import TpccRunConfig, TpccRunResult, run_tpcc
from repro.tpcc.terminal import Terminal, _SharedCountdown


@pytest.fixture(scope="module")
def results():
    out = {}
    for system in ("trail", "ext2", "ext2+gc"):
        config = TpccRunConfig(system=system, transactions=80,
                               concurrency=1, seed=5, pool_pages=9000)
        out[system] = run_tpcc(config)
    return out


class TestRunMechanics:
    def test_all_transactions_complete(self, results):
        for system, result in results.items():
            attempted = (result.transactions_completed
                         + round(result.abort_rate
                                 * (result.transactions_completed or 1)
                                 / max(1e-9, 1 - result.abort_rate)))
            assert result.transactions_completed > 70, system

    def test_mix_has_every_type(self, results):
        # 80 transactions at the standard mix: new_order and payment
        # are certain; minor types usually appear.
        for result in results.values():
            assert "new_order" in result.by_type
            assert "payment" in result.by_type

    def test_positive_throughput_and_response(self, results):
        for result in results.values():
            assert result.tpmc > 0
            assert result.avg_response_s > 0
            assert result.makespan_s > 0

    def test_trail_extras_present_only_for_trail(self, results):
        assert results["trail"].mean_sync_write_ms is not None
        assert results["trail"].log_physical_writes > 0
        assert results["ext2"].mean_sync_write_ms is None

    def test_group_commit_batches(self, results):
        assert results["ext2+gc"].group_commits \
            < results["ext2"].group_commits

    def test_sync_systems_flush_per_commit(self, results):
        for system in ("trail", "ext2"):
            result = results[system]
            assert result.group_commits \
                >= result.transactions_completed * 0.9

    def test_invalid_config_rejected(self):
        with pytest.raises(WorkloadError):
            TpccRunConfig(system="raid")
        with pytest.raises(WorkloadError):
            TpccRunConfig(transactions=0)
        with pytest.raises(WorkloadError):
            TpccRunConfig(concurrency=0)


class TestPaperShape:
    """Directional Table 2 assertions at small scale (the run at the
    paper's length lives in benchmarks/)."""

    def test_trail_beats_ext2_throughput(self, results):
        assert results["trail"].tpmc > results["ext2"].tpmc

    def test_trail_best_response(self, results):
        assert (results["trail"].avg_response_s
                < results["ext2"].avg_response_s)
        assert (results["trail"].avg_response_s
                < results["ext2+gc"].avg_response_s)

    def test_group_commit_worst_response(self, results):
        """Delayed durability makes GC's response time the worst by far
        (paper: 0.90 s vs 0.097 s)."""
        assert (results["ext2+gc"].avg_response_s
                > 3 * results["ext2"].avg_response_s)

    def test_trail_logging_io_not_inflated(self, results):
        """At this tiny scale the logging-I/O comparison is noisy; at
        the paper's length the direction (Trail lower, paper: -42%) is
        asserted in benchmarks/bench_table2_tpcc.py.  Here: Trail must
        at least not materially inflate logging I/O."""
        assert (results["trail"].logging_io_s
                < results["ext2"].logging_io_s * 1.2)


def test_concurrency_runs_to_completion():
    config = TpccRunConfig(system="trail", transactions=60, concurrency=4,
                           seed=9, pool_pages=9000)
    result = run_tpcc(config)
    assert result.transactions_completed >= 55
    assert result.mean_track_utilization is not None


def test_multi_warehouse_runs():
    """w=2 exercises the remote-warehouse order lines (1% of New-Order
    stock updates target the other warehouse)."""
    config = TpccRunConfig(system="ext2", transactions=120,
                           concurrency=2, warehouses=2, seed=11,
                           pool_pages=12_000)
    result = run_tpcc(config)
    assert result.transactions_completed >= 110
    assert result.by_type.get("new_order", 0) > 0


def test_exhausted_deadlock_retries_are_counted_not_raised(sim):
    def victim(_body):
        raise DeadlockError("retries exhausted")
        yield

    metrics = TpccMetrics(sim)
    terminal = Terminal(
        sim, SimpleNamespace(run_transaction=victim),
        SimpleNamespace(choose_type=lambda: "payment",
                        make=lambda tx_type, warehouse: None),
        metrics, _SharedCountdown(2), 1)
    sim.run_until(sim.process(terminal.run()))
    assert metrics.deadlock_failures == 2 and metrics.completed == 0
