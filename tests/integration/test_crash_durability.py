"""The paper's central integrity claim, as a property-based test.

"Trail provides the same level of data integrity guarantee as
traditional synchronous disk write implementations" (§4.1): every
write acknowledged before a power failure must be readable from the
data disks after recovery, and recovery must not invent data, for
*any* workload and *any* crash instant.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.core.recovery
from repro.faults.oracle import DurabilityOracle
from tests.conftest import cold_restart, make_tiny_trail, write_until_crash


def audit_restart(oracle, restart):
    assert restart.report is not None  # crash_var was 0: recovery ran
    return restart.audit(oracle)


def crash_schedule(seed, crash_at_ms, gap_ms):
    """40 random single-sector writes, a crash, a remount: the audit."""
    sim, driver, log, data = make_tiny_trail()
    rng = random.Random(seed)
    oracle = DurabilityOracle()
    writes = [(rng.randrange(0, 2000), (seed + index) % 255 + 1)
              for index in range(40)]
    write_until_crash(sim, driver, oracle, writes, crash_at_ms, gap_ms)
    return audit_restart(oracle, cold_restart(log, data))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       crash_at_ms=st.floats(min_value=30.0, max_value=400.0),
       gap_ms=st.sampled_from([0.0, 0.5, 2.0]))
def test_acknowledged_writes_survive_any_crash_instant(
        seed, crash_at_ms, gap_ms):
    audit = crash_schedule(seed, crash_at_ms, gap_ms)
    assert audit.ok and not audit.excused, audit


def test_never_invents_half_catches_torn_youngest_replay(monkeypatch):
    """With recovery's payload CRC disabled, a torn youngest record is
    replayed as if intact (the historical replay bug).  Its sectors were
    never acknowledged, so an acked-only check sees nothing: only the
    oracle's never-invents half catches the garbage it writes."""
    monkeypatch.setattr(repro.core.recovery, "payload_crc32",
                        lambda _payload: mock.ANY)
    audits = []
    for seed in range(40):
        rng = random.Random(seed)
        audits.append(crash_schedule(seed, rng.uniform(30.0, 400.0),
                                     rng.choice([0.0, 0.5, 2.0])))
    assert not any(audit.lost for audit in audits)
    assert any(audit.invented for audit in audits)


def test_double_crash_still_recovers():
    """Crash, recover, write more, crash again: both epochs survive."""
    sim, driver, log, data = make_tiny_trail()
    oracle = DurabilityOracle()
    write_until_crash(sim, driver, oracle,
                      [(index * 4, index + 1) for index in range(15)],
                      80.0)
    # Second epoch: mount (runs recovery), write more, crash again.
    second = cold_restart(log, data)
    write_until_crash(second.sim, second.driver, oracle,
                      [(1000 + index * 4, index + 1) for index in range(15)],
                      400.0)
    audit = audit_restart(oracle, cold_restart(second.log, second.data))
    assert audit.ok and not audit.excused, audit
