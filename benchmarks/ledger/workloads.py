"""The four benchmark workloads.

Each function assembles a fresh stack through public constructors,
runs one closed-loop pass (every client waits for its reply before it
sends the next request), checks the outputs, and returns a
:class:`PassResult`.  All inputs derive from ``seed``; ``scale``
multiplies operation counts and never changes the mix.

Why these four (the one-line versions live in ``BENCHMARK.json``):

* ``sync-sparse`` — the paper's headline path with nothing contending;
* ``burst-rw`` — what ``sync-sparse`` bypasses: batching, track
  switches, buffer dedup/cancel, read priority, a write-back backlog;
* ``tpcc-trail`` — the only one where ``repro.db``/``repro.tpcc`` do
  most of the work, against a database larger than the buffer pool;
* ``crash-recover`` — the §4.1 contract and the only one that runs
  ``core/recovery.py``.
"""

from __future__ import annotations

import random
import struct
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Set

from repro.analysis.experiments import build_trail_system
from repro.errors import ReproError
from repro.sim import LatencyRecorder

from benchmarks.ledger.layers import Stack, collect

#: Write targets stay inside 128 MiB of the data disk: an unbounded
#: span made every pass fault in fresh 16 KiB ``SectorStore`` chunks
#: until RSS passed 570 MB, and the first-touch cost swamped the engine.
SPAN_SECTORS = 262_144

PAGE_SECTORS = 8
PAGE_BYTES = PAGE_SECTORS * 512
ZERO_PAGE = bytes(PAGE_BYTES)

BURST_WRITERS = 6
BURST_READERS = 2
#: ``burst-rw`` writes land in 48 MiB (2,048 pages per writer): the
#: write-back backlog is bounded by the span, ~10k pending pages at
#: the last ack, and re-writes of a still-pending page exercise dedup.
BURST_PAGES_PER_WRITER = 2_048
#: ``burst-rw`` cold reads come from 1 GiB that is never written,
#: starting right above the sync-sparse write span.
COLD_BASE = SPAN_SECTORS
COLD_PAGES = 262_144

CRASH_WRITERS = 4
CRASH_SLOTS_PER_WRITER = SPAN_SECTORS // 2 // CRASH_WRITERS

_HEADER = struct.Struct(">II")


@dataclass
class PassResult:
    """Everything one pass of one workload measured."""

    #: Host-throughput unit of the workload (see each docstring).
    ops: int
    #: Operations whose outcome was checked, and how many failed.
    attempted: int
    failed: int
    #: Host seconds assembling the stack (format, mount, TPC-C load).
    assembly_s: float
    #: Host seconds of the measured region (run, drain, audit).
    wall_s: float
    #: Sim-clock end-to-end metrics; identical for identical seeds.
    sim: Dict[str, float]
    #: Sim-clock per-layer metrics read from public stats objects.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Host seconds inside ``remount()`` calls (``crash-recover`` only).
    recovery_host_s: float = 0.0


def _scaled(count: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, round(count * scale))


def _subseed(seed: int, stream: int) -> int:
    """One independent RNG stream per client, all derived from ``seed``."""
    return seed * 1_000_003 + stream


def _payload(writer: int, sequence: int, nbytes: int) -> bytes:
    """Unique, self-describing contents of one write."""
    return _HEADER.pack(writer, sequence) * (nbytes // _HEADER.size)


def _sim_metrics(latencies: LatencyRecorder, ops_per_s: float,
                 **extra: float) -> Dict[str, float]:
    """Sim-clock end-to-end metrics of the primary operation.

    Latencies are quantised by sector time, so a percentile sits on
    the same quantum for every seed; the mean and the mean of the
    slowest tenth are what moves with the inputs, and those two are
    the bounded metrics.  The percentiles are reported beside them.
    """
    ordered = sorted(latencies.samples)
    tail = ordered[-max(1, len(ordered) // 10):]
    metrics = {
        "sim_lat_ms_mean": latencies.mean,
        "sim_lat_ms_tail10": sum(tail) / len(tail),
        "sim_lat_ms_p50": latencies.percentile(50),
        "sim_lat_ms_p99": latencies.percentile(99),
        "sim_lat_samples": float(latencies.count),
        "sim_ops_per_s": ops_per_s,
        "sim_read_ms_p50": 0.0,
        "sim_read_ms_p99": 0.0,
        "sim_drain_ms": 0.0,
        "sim_recovery_ms_p50": 0.0,
        "sim_recovery_ms_p90": 0.0,
    }
    metrics.update(extra)
    return metrics


# ----------------------------------------------------------------------
# sync-sparse


def sync_sparse(seed: int, scale: float = 1.0,
                inject_loss: bool = False) -> PassResult:
    """Fig. 3 sparse mode: 2 writers x 30,000 synchronous 1 KB writes.

    A gap of 5 ms +- 10 % (seeded) after each ack, random targets in a
    128 MiB span of one data disk, default ``TrailConfig``.  One op =
    one acked write.  Output check: every write is acknowledged and no
    device event raises.

    The writers are the harness's own rather than
    ``run_sync_write_workload``: with its fixed gap the two writers
    stay in lockstep and nothing on the ack path depends on the seed
    (targets only steer write-back), so every seed gave bit-identical
    latencies.  The jittered gap decouples them.
    """
    per_writer = _scaled(30_000, scale)
    began = time.perf_counter()
    system = build_trail_system()
    assembled = time.perf_counter()
    sim, driver = system.sim, system.driver
    write_lat = LatencyRecorder(keep_samples=True)
    state = {"pending": 0}

    def writer(index: int):
        rng = random.Random(_subseed(seed, index))
        for sequence in range(per_writer):
            lba = rng.randrange(SPAN_SECTORS - 2)
            try:
                latency = yield driver.write(
                    lba, _payload(index, sequence, 1024))
            except ReproError:
                continue  # counted below: this write was never acked
            write_lat.record(latency)
            state["pending"] = driver.buffers.pending_pages
            yield sim.timeout(rng.uniform(4.5, 5.5))

    started_ms = sim.now
    writers = [sim.process(writer(i), name=f"sparse-writer-{i}")
               for i in range(2)]
    sim.run_until(sim.all_of(writers))
    makespan_ms = sim.now - started_ms
    finished = time.perf_counter()

    attempted = 2 * per_writer
    expected_acks = attempted + (1 if inject_loss else 0)
    stack = Stack(sim, system.log_drive, list(system.data_drives.values()),
                  [driver], pending_pages_at_last_ack=state["pending"])
    return PassResult(
        ops=write_lat.count, attempted=attempted,
        failed=expected_acks - write_lat.count,
        assembly_s=assembled - began, wall_s=finished - assembled,
        sim=_sim_metrics(write_lat,
                         write_lat.count / (makespan_ms / 1000.0)),
        layers=collect(stack))


# ----------------------------------------------------------------------
# burst-rw


def burst_rw(seed: int, scale: float = 1.0,
             inject_loss: bool = False) -> PassResult:
    """Page writes beside reads on one driver, then a drain and audit.

    6 writers x 12,000 4 KB writes (exponential think time, mean 5 ms;
    writer *i* owns the pages congruent to *i* mod 6, so the last acked
    value per LBA is unambiguous) and 2 back-to-back readers x 12,000
    4 KB reads (25 % re-read one of the last 64 acked LBAs, 75 % come
    from a never-written region and must hit the data disk).  Then
    ``driver.flush()`` drains write-back and every written LBA is
    compared with the data drive's store.  One op = one acked write or
    completed read.
    """
    writes_each = _scaled(12_000, scale)
    reads_each = _scaled(12_000, scale)
    began = time.perf_counter()
    system = build_trail_system()
    assembled = time.perf_counter()
    sim, driver = system.sim, system.driver

    acked: Dict[int, int] = {}  # lba -> sequence of its last acked write
    recent: Deque[int] = deque(maxlen=64)
    write_lat = LatencyRecorder(keep_samples=True)
    read_lat = LatencyRecorder(keep_samples=True)
    state = {"failed": 0, "last_ack_ms": sim.now, "pending": 0}

    def writer(index: int):
        rng = random.Random(_subseed(seed, index))
        for sequence in range(writes_each):
            page = rng.randrange(BURST_PAGES_PER_WRITER) * BURST_WRITERS \
                + index
            lba = page * PAGE_SECTORS
            try:
                latency = yield driver.write(
                    lba, _payload(index, sequence, PAGE_BYTES))
            except ReproError:
                state["failed"] += 1
                continue
            write_lat.record(latency)
            acked[lba] = sequence
            recent.append(lba)
            state["last_ack_ms"] = sim.now
            state["pending"] = driver.buffers.pending_pages
            yield sim.timeout(rng.expovariate(1.0 / 5.0))

    def reader(index: int):
        rng = random.Random(_subseed(seed, 100 + index))
        for _ in range(reads_each):
            if recent and rng.random() < 0.25:
                lba = recent[rng.randrange(len(recent))]
                floor: Optional[int] = acked[lba]
            else:
                lba = COLD_BASE + rng.randrange(COLD_PAGES) * PAGE_SECTORS
                floor = None
            issued = sim.now
            try:
                data = yield driver.read(lba, PAGE_SECTORS)
            except ReproError:
                state["failed"] += 1
                continue
            read_lat.record(sim.now - issued)
            if not _read_ok(data, lba, floor):
                state["failed"] += 1

    started_ms = sim.now
    clients = [sim.process(writer(i), name=f"burst-writer-{i}")
               for i in range(BURST_WRITERS)]
    clients += [sim.process(reader(i), name=f"burst-reader-{i}")
                for i in range(BURST_READERS)]
    sim.run_until(sim.all_of(clients))
    sim.run_until(sim.process(driver.flush(), name="burst-drain"))
    drain_ms = sim.now - state["last_ack_ms"]

    store = system.data_drives[0].store
    lost = 0
    for position, (lba, sequence) in enumerate(acked.items()):
        expected = _payload(lba // PAGE_SECTORS % BURST_WRITERS, sequence,
                            PAGE_BYTES)
        if inject_loss and position == 0:
            expected = _flip_first_byte(expected)
        if store.read(lba, PAGE_SECTORS) != expected:
            lost += 1
    finished = time.perf_counter()

    attempted = BURST_WRITERS * writes_each + BURST_READERS * reads_each
    stack = Stack(sim, system.log_drive, list(system.data_drives.values()),
                  [driver], pending_pages_at_last_ack=state["pending"])
    return PassResult(
        ops=write_lat.count + read_lat.count, attempted=attempted,
        failed=state["failed"] + lost,
        assembly_s=assembled - began, wall_s=finished - assembled,
        sim=_sim_metrics(
            write_lat,
            write_lat.count / ((state["last_ack_ms"] - started_ms) / 1000.0),
            sim_read_ms_p50=read_lat.percentile(50),
            sim_read_ms_p99=read_lat.percentile(99),
            sim_drain_ms=drain_ms),
        layers=collect(stack))


def _read_ok(data: bytes, lba: int, floor: Optional[int]) -> bool:
    """A cold read is zeros; a re-read is a whole page written by the
    LBA's owner, no older than the write acked before the read."""
    if floor is None:
        return data == ZERO_PAGE
    writer, sequence = _HEADER.unpack_from(data)
    return (writer == lba // PAGE_SECTORS % BURST_WRITERS
            and sequence >= floor
            and data == _payload(writer, sequence, PAGE_BYTES))


def _flip_first_byte(value: bytes) -> bytes:
    """The ``--inject-loss`` self-test: corrupt one expected value."""
    return bytes([value[0] ^ 0xFF]) + value[1:]


# ----------------------------------------------------------------------
# tpcc-trail


@dataclass
class TpccCapture:
    """Layer objects of one ``run_tpcc`` call, captured from outside."""

    instance: Any = None
    engine: Any = None
    metrics: Any = None
    #: Host clock at ``begin_run`` (end of load + warm + mount).
    run_began: float = 0.0
    pending_at_end: int = 0


@contextmanager
def capture_tpcc() -> Iterator[TpccCapture]:
    """Capture ``run_tpcc``'s layer objects without forking it.

    Wraps the three constructors ``repro.tpcc.run`` calls by name; the
    run itself is untouched (test_ledger.py holds the captured run's
    tpmC equal to a plain ``run_tpcc`` of the same config).
    """
    import repro.tpcc.run as tpcc_run

    capture = TpccCapture()
    originals = (tpcc_run.TrailInstance, tpcc_run.TransactionEngine,
                 tpcc_run.TpccMetrics)
    instance_cls, engine_cls, metrics_cls = originals

    def make_instance(*args: Any, **kwargs: Any) -> Any:
        capture.instance = instance_cls(*args, **kwargs)
        return capture.instance

    def make_engine(*args: Any, **kwargs: Any) -> Any:
        capture.engine = engine_cls(*args, **kwargs)
        return capture.engine

    class Metrics(metrics_cls):  # type: ignore[misc, valid-type]
        def begin_run(self) -> None:
            capture.metrics = self
            capture.run_began = time.perf_counter()
            super().begin_run()

        def end_run(self) -> None:
            super().end_run()
            capture.pending_at_end = \
                capture.instance.driver.buffers.pending_pages

    tpcc_run.TrailInstance = make_instance  # type: ignore[assignment]
    tpcc_run.TransactionEngine = make_engine  # type: ignore[assignment]
    tpcc_run.TpccMetrics = Metrics  # type: ignore[misc]
    try:
        yield capture
    finally:
        (tpcc_run.TrailInstance, tpcc_run.TransactionEngine,
         tpcc_run.TpccMetrics) = originals  # type: ignore[misc]


def tpcc_trail(seed: int, scale: float = 1.0,
               inject_loss: bool = False) -> PassResult:
    """The §5.2 stack: 6,000 TPC-C transactions on Trail, 4 terminals.

    One warehouse (~77 MB) against the default 9,000-page pool, so the
    database is larger than the cache.  One op = one completed
    transaction; latency is response to the durability point.  Output
    check: completed + spec-mandated rollbacks account for every
    attempted transaction and none failed on a deadlock.
    """
    from repro.tpcc.run import TpccRunConfig, run_tpcc

    attempted = _scaled(6_000, scale, minimum=40)
    began = time.perf_counter()
    with capture_tpcc() as capture:
        run_tpcc(TpccRunConfig(system="trail", transactions=attempted,
                               concurrency=4, warehouses=1, seed=seed))
    finished = time.perf_counter()
    metrics = capture.metrics
    expected = attempted + (1 if inject_loss else 0)
    unaccounted = expected - (metrics.completed + metrics.rolled_back
                              + metrics.deadlock_failures)
    instance = capture.instance
    stack = Stack(instance.sim, instance.log_drive,
                  list(instance.data_drives.values()), [instance.driver],
                  pending_pages_at_last_ack=capture.pending_at_end,
                  engine=capture.engine, tpcc=metrics)
    return PassResult(
        ops=metrics.completed, attempted=attempted,
        failed=metrics.deadlock_failures + abs(unaccounted),
        assembly_s=capture.run_began - began,
        wall_s=finished - capture.run_began,
        sim=_sim_metrics(metrics.response,
                         metrics.completed / metrics.makespan_s),
        layers=collect(stack))


# ----------------------------------------------------------------------
# crash-recover


def crash_recover(seed: int, scale: float = 1.0,
                  inject_loss: bool = False) -> PassResult:
    """100 crash + recover cycles on one ``TrailInstance``.

    Each cycle: 4 clustered writers of 1 KB (disjoint LBA classes) run
    for a seeded 200-600 simulated ms, power is cut mid-flight, 50 ms
    settle, ``remount()`` runs locate -> rebuild -> write-back.  After
    the last cycle every acknowledged write is compared with the data
    drive's store.  One op = one crash + recover cycle; latency and
    ``sim_ops_per_s`` are over the acknowledged writes of the bursts
    (recovery time excluded).
    """
    cycles = _scaled(100, scale)
    rng = random.Random(_subseed(seed, 999))
    began = time.perf_counter()
    system = build_trail_system()
    assembled = time.perf_counter()
    sim = system.sim

    acked: Dict[int, bytes] = {}
    #: lba -> values an unacknowledged in-flight write may have left.
    tolerated: Dict[int, Set[bytes]] = {}
    in_flight: Dict[int, tuple] = {}
    write_lat = LatencyRecorder(keep_samples=True)
    writer_rngs = [random.Random(_subseed(seed, i))
                   for i in range(CRASH_WRITERS)]
    sequences = [0] * CRASH_WRITERS

    def writer(index: int, driver: Any):
        rng_w = writer_rngs[index]
        while True:
            slot = rng_w.randrange(CRASH_SLOTS_PER_WRITER) * CRASH_WRITERS \
                + index
            lba = slot * 2
            sequences[index] += 1
            payload = _payload(index, sequences[index], 1024)
            in_flight[index] = (lba, payload)
            try:
                latency = yield driver.write(lba, payload)
            except ReproError:
                return  # power failed under this write (or right after)
            del in_flight[index]
            write_lat.record(latency)
            acked[lba] = payload
            tolerated.pop(lba, None)

    drivers: List[Any] = []
    reports: List[Any] = []
    damaged = 0
    burst_ms_total = 0.0
    recovery_host_s = 0.0
    pending = 0
    for _ in range(cycles):
        driver = system.driver
        drivers.append(driver)
        burst_ms = rng.uniform(200.0, 600.0)
        in_flight.clear()
        for index in range(CRASH_WRITERS):
            sim.process(writer(index, driver), name=f"crash-writer-{index}")
        sim.run(until=sim.now + burst_ms)
        burst_ms_total += burst_ms
        pending = driver.buffers.pending_pages
        system.crash()
        unacked_sectors = set()
        for lba, payload in in_flight.values():
            tolerated.setdefault(lba, set()).add(payload)
            unacked_sectors.update(((0, lba), (0, lba + 1)))
        sim.run(until=sim.now + 50.0)
        remount_began = time.perf_counter()
        report = system.remount()
        recovery_host_s += time.perf_counter() - remount_began
        if report is None:
            damaged += 1
            continue
        reports.append(report)
        # ``report.damaged`` is also set by a legally torn youngest
        # record, so the check is sharper: nothing corrupt, the chain
        # intact, and every dropped sector belongs to a write that was
        # still unacknowledged when the power went.
        if (report.corrupt_records or report.chain_broken
                or not unacked_sectors.issuperset(report.dropped_sectors)):
            damaged += 1
    drivers.append(system.driver)

    store = system.data_drives[0].store
    lost = 0
    for position, (lba, payload) in enumerate(acked.items()):
        if inject_loss and position == 0:
            payload = _flip_first_byte(payload)
        found = store.read(lba, 2)
        if found != payload and found not in tolerated.get(lba, ()):
            lost += 1
    finished = time.perf_counter()

    recovery_ms = LatencyRecorder(keep_samples=True)
    for report in reports:
        recovery_ms.record(report.total_ms)
    stack = Stack(sim, system.log_drive, list(system.data_drives.values()),
                  drivers, pending_pages_at_last_ack=pending,
                  recoveries=reports)
    return PassResult(
        ops=cycles, attempted=cycles + write_lat.count,
        failed=damaged + lost,
        assembly_s=assembled - began, wall_s=finished - assembled,
        sim=_sim_metrics(
            write_lat, write_lat.count / (burst_ms_total / 1000.0),
            sim_recovery_ms_p50=recovery_ms.percentile(50),
            sim_recovery_ms_p90=recovery_ms.percentile(90)),
        layers=collect(stack), recovery_host_s=recovery_host_s)


WORKLOADS: Dict[str, Callable[..., PassResult]] = {
    "sync-sparse": sync_sparse,
    "burst-rw": burst_rw,
    "tpcc-trail": tpcc_trail,
    "crash-recover": crash_recover,
}

#: Workloads that must never execute ``repro.db`` / ``repro.tpcc`` code.
DB_FREE = ("sync-sparse", "burst-rw", "crash-recover")
