"""The TRAILSAN=1 runtime sanitizer: env gating, tear detection, and
the session switch that keeps tier-1 checked.

The static pass proves the committed code keeps its atomic groups in
one segment; these tests prove the *runtime* net actually catches a
violation when one is forced — by deliberately tearing driver and
write-back state from a hostile process — and stays silent (while
demonstrably checking) on healthy workloads.
"""

from __future__ import annotations

from typing import Any, Generator

import pytest

from repro.core.config import TrailConfig
from repro.core.driver import LiveRecord, TrailDriver
from repro.errors import SanitizerError
from repro.sim import Event, Simulation, TrailSanitizer, sanitizer_from_env

from tests.conftest import drive_to_completion, make_tiny_drive


def make_trail(sim: Simulation) -> TrailDriver:
    log_drive = make_tiny_drive(sim, "log", cylinders=30)
    data = {0: make_tiny_drive(sim, "data0", cylinders=80, heads=4,
                               sectors_per_track=32)}
    config = TrailConfig(idle_reposition_interval_ms=0)
    TrailDriver.format_disk(log_drive)
    driver = TrailDriver(sim, log_drive, data, config)
    drive_to_completion(sim, driver.mount(), name="mount")
    return driver


def test_env_gating(monkeypatch) -> None:
    for off in ("", "0"):
        monkeypatch.setenv("TRAILSAN", off)
        assert sanitizer_from_env() is None
    monkeypatch.delenv("TRAILSAN")
    assert sanitizer_from_env() is None
    for on in ("1", "yes"):
        monkeypatch.setenv("TRAILSAN", on)
        assert isinstance(sanitizer_from_env(), TrailSanitizer)


def test_components_register_groups(sim: Simulation) -> None:
    make_trail(sim)
    assert sim.sanitizer is not None
    names = sim.sanitizer.group_names
    assert "tail-chain" in names
    assert "pinned-accounting" in names
    assert "wb-counters" in names


def test_crashed_driver_retires_its_groups(sim: Simulation) -> None:
    """Host memory died with the crash: a remount on the same simulation
    must not keep probing the dead driver next to its replacement."""
    sanitizer = sim.sanitizer
    assert sanitizer is not None
    driver = make_trail(sim)
    sanitizer.add_invariant("bystander", lambda: None)
    before = sorted(sanitizer.group_names)
    driver.crash()
    assert sanitizer.group_names == ["bystander"]
    driver.log_drive.power_on()
    driver.data_disks[0].power_on()
    remounted = TrailDriver(sim, driver.log_drive, driver.data_disks,
                            driver.config)
    drive_to_completion(sim, remounted.mount(), name="remount")
    assert sorted(sanitizer.group_names) == before
    remounted.buffers.pinned_bytes += 77  # the live driver is still watched
    with pytest.raises(SanitizerError, match="pinned-accounting"):
        sim.run_until(sim.timeout(1.0))


def test_clean_workload_passes_with_checks(sim: Simulation) -> None:
    driver = make_trail(sim)

    def workload() -> Generator[Event, Any, None]:
        for i in range(6):
            yield driver.write(i * 64, bytes([i]) * 512)
        yield driver.read(0, 1)
        yield from driver.flush()

    drive_to_completion(sim, workload(), name="workload")
    assert sim.sanitizer is not None
    # Every acknowledged write costs at least the log drive's two
    # dispatches (segment timeout, completion) plus the writer's own
    # resume, each followed by a check — a floor that follows the
    # workload, not the engine's event count of the day.
    acknowledged = driver.stats.sync_writes.count
    assert acknowledged == 6
    assert sim.sanitizer.checks >= 3 * acknowledged


def test_torn_tail_chain_is_caught(sim: Simulation) -> None:
    """Registering a live record without moving the chain link — the
    exact shape of the pre-fix ``_emit_record`` bug — must raise at
    the next context switch."""
    driver = make_trail(sim)

    def hostile() -> Generator[Event, Any, None]:
        yield driver.write(0, b"a" * 512)
        sequence = driver._next_sequence
        driver._next_sequence += 1
        driver._live_records[sequence] = LiveRecord(
            sequence_id=sequence, track=1, header_lba=999, nsectors=1)
        # ... and park without updating _last_record_lba: the pair is
        # now observably torn at this context switch.
        yield sim.timeout(1.0)

    with pytest.raises(SanitizerError, match="tail-chain"):
        drive_to_completion(sim, hostile(), name="hostile")


def test_pinned_accounting_drift_is_caught(sim: Simulation) -> None:
    """The pre-fix ``pin()`` re-pin drift (counter diverges from the
    pinned pages) trips the pinned-accounting invariant."""
    driver = make_trail(sim)

    def hostile() -> Generator[Event, Any, None]:
        yield driver.write(0, b"a" * 512)
        driver.buffers.pinned_bytes += 77
        yield sim.timeout(1.0)

    with pytest.raises(SanitizerError, match="pinned-accounting"):
        drive_to_completion(sim, hostile(), name="hostile")


def test_torn_writeback_counters_are_caught(sim: Simulation) -> None:
    driver = make_trail(sim)

    def hostile() -> Generator[Event, Any, None]:
        yield driver.write(0, b"a" * 512)
        driver.writeback.pages_written += 1  # without sectors_written
        yield sim.timeout(1.0)

    with pytest.raises(SanitizerError, match="wb-counters"):
        drive_to_completion(sim, hostile(), name="hostile")


def test_sanitizer_does_not_change_the_schedule(monkeypatch) -> None:
    """TRAILSAN only reads state: a sanitized run replays the exact
    event order of a plain run."""

    def traced_run() -> list:
        sim = Simulation()
        driver = make_trail(sim)
        trace = sim.enable_trace()

        def workload() -> Generator[Event, Any, None]:
            for i in range(4):
                yield driver.write(i * 32, bytes([i + 1]) * 512)
            yield from driver.flush()

        drive_to_completion(sim, workload(), name="workload")
        return list(trace)

    monkeypatch.delenv("TRAILSAN", raising=False)
    plain = traced_run()
    monkeypatch.setenv("TRAILSAN", "1")
    sanitized = traced_run()
    assert plain == sanitized


def test_sanitizer_off_by_default(monkeypatch) -> None:
    monkeypatch.delenv("TRAILSAN", raising=False)
    assert Simulation().sanitizer is None


def test_tier1_session_is_sanitized() -> None:
    """``tests/conftest.py`` turns the sanitizer on for every session."""
    assert Simulation().sanitizer is not None
