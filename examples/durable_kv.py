#!/usr/bin/env python3
"""A durable key-value store on Trail vs on a plain disk.

Every ``put`` is forced through the write-ahead log before it is
acknowledged — the classic durability tax.  On Trail the force costs
~2 ms; in place it costs ~15 ms.  Then we pull the plug and show that
the store rebuilds itself from the log region, running Trail's own
block-level recovery first.

Run:  python examples/durable_kv.py
"""

from repro import Simulation, TrailConfig, TrailDriver, \
    build_standard_system, st41601n, wd_caviar_10gb
from repro.db import DurableKv
from repro.sim import Interrupt


def benchmark_puts() -> None:
    print("Part 1 — durable put latency (100 puts, 256 B values):")
    for label in ("trail", "standard"):
        sim = Simulation()
        if label == "trail":
            log_drive = st41601n().make_drive(sim, "log")
            data_drive = wd_caviar_10gb().make_drive(sim, "data")
            TrailDriver.format_disk(log_drive)
            device = TrailDriver(sim, log_drive, {0: data_drive})
            sim.run_until(sim.process(device.mount()))
        else:
            device = build_standard_system().driver
            sim = device.sim
        kv = DurableKv(sim, device, capacity_sectors=4096)

        def load():
            start = sim.now
            for index in range(100):
                yield from kv.put(b"user:%04d" % index,
                                  (b"profile-%d " % index) * 16)
            return (sim.now - start) / 100

        mean_ms = sim.run_until(sim.process(load()))
        print(f"  {label:>8}: {mean_ms:6.2f} ms per durable put")
    print()


def crash_and_recover() -> None:
    print("Part 2 — crash recovery:")
    sim = Simulation()
    log_drive = st41601n().make_drive(sim, "log")
    data_drive = wd_caviar_10gb().make_drive(sim, "data")
    config = TrailConfig()
    TrailDriver.format_disk(log_drive)
    trail = TrailDriver(sim, log_drive, {0: data_drive}, config)
    kv = DurableKv(sim, trail, capacity_sectors=4096)
    acked = {}

    def workload():
        try:
            yield sim.process(trail.mount())
            for index in range(500):
                key = b"key:%04d" % index
                value = b"v%d" % (index * index)
                yield from kv.put(key, value)
                acked[key] = value
        except (Interrupt, Exception):
            return

    process = sim.process(workload())

    def power_cut():
        yield sim.timeout(150.0)
        if process.is_alive:
            process.interrupt()
        trail.crash()

    sim.process(power_cut())
    sim.run()
    print(f"  acknowledged before the power cut: {len(acked)} puts")

    # New machine, same platters.
    sim2 = Simulation()
    log2 = st41601n().make_drive(sim2, "log")
    data2 = wd_caviar_10gb().make_drive(sim2, "data")
    log2.store.restore(log_drive.store.snapshot())
    data2.store.restore(data_drive.store.snapshot())
    trail2 = TrailDriver(sim2, log2, {0: data2}, config)
    kv2 = DurableKv(sim2, trail2, capacity_sectors=4096)

    def recover():
        report = yield sim2.process(trail2.mount())
        replayed = yield from kv2.recover()
        return report, replayed

    report, replayed = sim2.run_until(sim2.process(recover()))
    print(f"  Trail block recovery: {report.records_found} log records "
          f"replayed to the data disk")
    print(f"  KV log replay       : {replayed} records")
    lost = [key for key, value in acked.items() if kv2.get(key) != value]
    if lost:
        raise SystemExit(f"LOST {len(lost)} acknowledged puts!")
    print(f"  verified            : all {len(acked)} acknowledged puts "
          "present after recovery")


def main() -> None:
    benchmark_puts()
    crash_and_recover()


if __name__ == "__main__":
    main()
