"""Tests for the multiple-log-disk extension (§5.1's final
optimization)."""

import random

import pytest

from repro.core.multilog import StripedTrailDriver
from repro.errors import TrailError
from repro.faults.oracle import DurabilityOracle
from tests.conftest import (
    cold_restart, drive_to_completion, make_striped, make_tiny_drive,
    write_until_crash)

SECTOR = 512


class TestBasics:
    def test_needs_a_log_disk(self, sim):
        with pytest.raises(TrailError):
            StripedTrailDriver(sim, [], {0: make_tiny_drive(sim, "d")})

    def test_mounts_all_stripes(self):
        _sim, driver, _logs, _data = make_striped()
        assert driver.mounted
        assert all(stripe.mounted for stripe in driver.stripes)

    def test_write_read_round_trip(self):
        sim, driver, _logs, _data = make_striped()

        def body():
            yield driver.write(100, b"M" * 1024)
            data = yield driver.read(100, 2)
            return data

        assert drive_to_completion(sim, body()) == b"M" * 1024

    def test_page_affinity_is_stable(self):
        _sim, driver, _logs, _data = make_striped()
        for lba in (0, 17, 999, 12345):
            first = driver._stripe_of(0, lba)
            assert all(driver._stripe_of(0, lba) is first
                       for _ in range(5))

    def test_writes_spread_across_stripes(self):
        sim, driver, _logs, _data = make_striped()

        def body():
            for lba in range(0, 400, 8):
                yield driver.write(lba, bytes(SECTOR))

        drive_to_completion(sim, body())
        per_stripe = [stripe.stats.logical_writes
                      for stripe in driver.stripes]
        assert all(count > 0 for count in per_stripe), per_stripe

    def test_flush_commits_everything(self):
        sim, driver, _logs, data = make_striped()
        expected = {}

        def body():
            for index in range(30):
                lba = index * 16
                payload = bytes([index + 1]) * SECTOR
                yield driver.write(lba, payload)
                expected[lba] = payload
            yield from driver.flush()

        drive_to_completion(sim, body())
        for lba, payload in expected.items():
            assert data[0].store.read_sector(lba) == payload


class TestOrderingAndDurability:
    def test_same_page_rewrites_keep_order(self):
        """Page affinity: repeated writes to one extent are serialized
        through one stripe, so the final data-disk content is the last
        acknowledged version."""
        sim, driver, _logs, data = make_striped()

        def body():
            for version in range(1, 21):
                yield driver.write(64, bytes([version]) * SECTOR)
            yield from driver.flush()

        drive_to_completion(sim, body())
        assert data[0].store.read_sector(64) == bytes([20]) * SECTOR

    def test_crash_recovery_across_stripes(self):
        sim, driver, logs, data = make_striped()
        rng = random.Random(3)
        oracle = DurabilityOracle()
        write_until_crash(sim, driver, oracle,
                          [(rng.randrange(0, 2000), index + 1)
                           for index in range(40)], 90.0)
        restart = cold_restart(logs, data)
        assert any(report is not None for report in restart.report)
        audit = restart.audit(oracle)
        assert audit.ok, audit


class TestLatencyHiding:
    def test_two_log_disks_hide_repositioning_for_clustered_writes(self):
        """The optimization's point: back-to-back writes to *different*
        pages stop waiting behind track switches."""
        def mean_clustered_latency(stripes):
            sim, driver, _logs, _data = make_striped(stripes=stripes)
            latencies = []

            def body():
                rng = random.Random(11)
                for _ in range(60):
                    lba = rng.randrange(0, 3000)
                    start = sim.now
                    yield driver.write(lba, bytes(2 * SECTOR))
                    latencies.append(sim.now - start)

            drive_to_completion(sim, body())
            return sum(latencies) / len(latencies)

        single = mean_clustered_latency(1)
        double = mean_clustered_latency(2)
        assert double < single
