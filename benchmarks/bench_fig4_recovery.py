"""Figure 4: data-recovery overhead on the full-size log disk.

(a) Breakdown of recovery time into its three steps — locate the
    youngest record (binary search over tracks, ~450 ms on the paper's
    5400 RPM disk), rebuild the pending chain via prev_sect, write the
    pending records back to the data disk — as the number of pending
    records Q grows from 32 to 256.
(b) Recovery with the write-back step included vs bypassed: the paper
    measures >3.5x slower with write-back at Q=256, because that step
    makes random accesses to the data disk while the other two read
    the log disk largely sequentially.

Also covers two DESIGN.md ablations: binary search vs sequential scan
for the locate step, and the log_head bound for the rebuild step.

Setup: a mounted Trail driver whose write-back scheduler is stopped, so
every acknowledged write remains a pending record; then a crash.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.analysis import build_trail_system
from repro.core.config import TrailConfig
from repro.core.instance import TrailInstance
from repro.core.recovery import RecoveryReport
from repro.disk.presets import st41601n, wd_caviar_10gb
from repro.sim import Simulation

PENDING_COUNTS = [32, 64, 128, 256]


def crashed_disks_with_pending(pending: int):
    """Produce (log snapshot, data snapshot) with ``pending`` records."""
    system = build_trail_system(
        config=TrailConfig(idle_reposition_interval_ms=0))
    sim, driver = system.sim, system.driver
    driver.writeback.stop()  # nothing commits: all writes stay pending

    def workload():
        for index in range(pending):
            yield driver.write(index * 64, bytes([index % 255 + 1]) * 2048)

    sim.run_until(sim.process(workload()))
    driver.crash()
    sim.run(until=sim.now + 100)
    return (system.log_drive.store.snapshot(),
            system.data_drives[0].store.snapshot())


def recover(log_snapshot, data_snapshot,
            config: TrailConfig) -> RecoveryReport:
    sim = Simulation()
    log_drive = st41601n().make_drive(sim, "log")
    data_drive = wd_caviar_10gb().make_drive(sim, "data0")
    log_drive.store.restore(log_snapshot)
    data_drive.store.restore(data_snapshot)
    # format_log=False: the restored snapshot *is* the formatted,
    # crashed log image the recovery pass has to make sense of.
    instance = TrailInstance(sim, log_drive, {0: data_drive}, config,
                             format_log=False)
    assert instance.driver.last_recovery is not None
    return instance.driver.last_recovery


@pytest.fixture(scope="module")
def snapshots():
    return {pending: crashed_disks_with_pending(pending)
            for pending in PENDING_COUNTS}


@pytest.fixture(scope="module")
def with_writeback(snapshots) -> Dict[int, RecoveryReport]:
    config = TrailConfig(idle_reposition_interval_ms=0)
    return {pending: recover(*snapshots[pending], config)
            for pending in PENDING_COUNTS}


@pytest.fixture(scope="module")
def without_writeback(snapshots) -> Dict[int, RecoveryReport]:
    config = TrailConfig(idle_reposition_interval_ms=0,
                         recovery_writeback=False)
    return {pending: recover(*snapshots[pending], config)
            for pending in PENDING_COUNTS}


def test_figure4a_report(with_writeback, paper_numbers):
    paper_numbers.check(
        "fig4a",
        ["Q (pending)", "locate (ms)", "rebuild (ms)", "write-back (ms)",
         "total (ms)"],
        [[pending, report.locate_ms, report.rebuild_ms,
          report.writeback_ms, report.total_ms]
         for pending, report in sorted(with_writeback.items())],
        title=("Figure 4(a): recovery-time breakdown [paper: locate "
               "~450 ms, constant; other steps grow with Q]"))


def test_figure4b_report(with_writeback, without_writeback, paper_numbers):
    big = PENDING_COUNTS[-1]
    assert (with_writeback[big].total_ms
            > 2.0 * without_writeback[big].total_ms)
    paper_numbers.check(
        "fig4b",
        ["Q (pending)", "with write-back (ms)", "bypassed (ms)",
         "ratio (x)"],
        [[pending, with_writeback[pending].total_ms,
          without_writeback[pending].total_ms,
          with_writeback[pending].total_ms
          / without_writeback[pending].total_ms]
         for pending in PENDING_COUNTS],
        title=("Figure 4(b): write-back included vs bypassed "
               "[paper: >3.5x at Q=256]"))


def test_locate_roughly_constant_in_q(with_writeback):
    """Binary search cost depends on the track count, not on Q."""
    locates = [with_writeback[q].locate_ms for q in PENDING_COUNTS]
    assert max(locates) < 2.0 * min(locates)


def test_locate_magnitude_near_paper(with_writeback):
    """Paper: ~450 ms to locate on a 35,717-track 5400 RPM disk (~20
    track scans).  Same drive model here, so the magnitude should be
    comparable."""
    locate = with_writeback[PENDING_COUNTS[0]].locate_ms
    assert 100 < locate < 1500, locate
    assert with_writeback[PENDING_COUNTS[0]].tracks_scanned <= 30


def test_rebuild_and_writeback_grow_with_q(with_writeback):
    small = with_writeback[PENDING_COUNTS[0]]
    large = with_writeback[PENDING_COUNTS[-1]]
    assert large.rebuild_ms > small.rebuild_ms
    assert large.writeback_ms > small.writeback_ms


def test_writeback_dominates_at_large_q(with_writeback):
    """Random data-disk access makes step 3 the bulk of recovery."""
    report = with_writeback[PENDING_COUNTS[-1]]
    assert report.writeback_ms > report.locate_ms
    assert report.writeback_ms > report.rebuild_ms


def test_bypass_preserves_pending_chain(without_writeback):
    for pending, report in without_writeback.items():
        assert report.records_found == pending
        assert len(report.pending) == pending
        assert not report.writeback_performed


def test_all_records_found(with_writeback):
    for pending, report in with_writeback.items():
        assert report.records_found == pending
        assert report.sectors_replayed == pending * 4  # 2 KB writes


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §5)

def test_ablation_binary_search_vs_sequential(snapshots, paper_numbers):
    log_snapshot, data_snapshot = snapshots[64]
    binary = recover(log_snapshot, data_snapshot,
                     TrailConfig(idle_reposition_interval_ms=0,
                                 recovery_writeback=False))
    sequential = recover(log_snapshot, data_snapshot,
                         TrailConfig(idle_reposition_interval_ms=0,
                                     recovery_writeback=False,
                                     binary_search_recovery=False))
    assert binary.records_found == sequential.records_found
    assert binary.tracks_scanned < sequential.tracks_scanned / 100
    assert binary.locate_ms < sequential.locate_ms / 50
    paper_numbers.check(
        "fig4_locate_ablation",
        ["strategy", "tracks scanned", "locate (ms)"],
        [["binary search", binary.tracks_scanned, binary.locate_ms],
         ["sequential scan", sequential.tracks_scanned,
          sequential.locate_ms]],
        title="Ablation: locating the youngest record "
              "(O(lg N) vs O(N) track scans)")


def test_ablation_log_head_bound(snapshots):
    """Without the log_head bound, rebuild walks the entire prev_sect
    chain; with it, only the active portion.  Here nothing ever
    committed, so the two agree — the bound's value shows once records
    commit (covered in tests/core/test_recovery.py); this ablation
    checks the bound never loses records."""
    log_snapshot, data_snapshot = snapshots[128]
    bounded = recover(log_snapshot, data_snapshot,
                      TrailConfig(idle_reposition_interval_ms=0,
                                  recovery_writeback=False))
    unbounded = recover(log_snapshot, data_snapshot,
                        TrailConfig(idle_reposition_interval_ms=0,
                                    recovery_writeback=False,
                                    log_head_bound_enabled=False))
    assert bounded.records_found == unbounded.records_found == 128
