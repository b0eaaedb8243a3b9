"""Command-line interface: profiling, fault demos, RAID rebuild, model checking.

    python -m repro profile  <scenario> [--scale 1.0] [--top 20]
    python -m repro faults   <scenario> [--seed 0]
    python -m repro raid-rebuild [--seed 0] [--smoke] [--intensities 4,2,1]
    python -m repro mc       [scenario ...] [--budget 250] [--bound 3]

Each command builds the simulated testbed, runs one scenario, and
prints a table.  ``profile`` runs one of the canonical perf scenarios
(see ``repro.analysis.perf``) under cProfile and prints the hottest
functions — the workflow behind every optimization in
docs/PERFORMANCE.md.  The paper's tables come from ``benchmarks/``:
``pytest benchmarks/bench_<name>.py -s`` prints one.

Exit status: 0 ok, 1 a failed audit, 2 a usage error, and 3 and up a
library error, one code per error class (:data:`EXIT_CODES`).
"""

from __future__ import annotations

import argparse
import sys
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Type

from repro.analysis import render_table
from repro.errors import (
    LogDiskFullError, LogFormatError, NotATrailDiskError,
    RecordChecksumError, RecoveryError, ReproError, TrailError)


class UsageError(Exception):
    """A command-line value argparse cannot check (an unknown scenario,
    a malformed list): the message goes to stderr and the exit status
    is 2, as for argparse's own usage errors."""


#: Exit status of a command that a library error ended, keyed by the
#: most specific class in the error's MRO.  1 is a failed audit and 2
#: a usage error, so these start at 3.
EXIT_CODES: Mapping[Type[ReproError], int] = MappingProxyType({
    ReproError: 3,
    TrailError: 4,
    LogFormatError: 5,
    RecordChecksumError: 6,
    LogDiskFullError: 7,
    RecoveryError: 8,
    NotATrailDiskError: 9,
})


def _hotspot_rows(stats, sort: str, top: int) -> List[List]:
    """Top-``top`` functions from a pstats.Stats, one row per function."""
    key = 3 if sort == "cumulative" else 2  # (cc, nc, tottime, cumtime)
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][key], reverse=True)
    rows: List[List] = []
    for (filename, lineno, funcname), row in entries[:top]:
        _cc, ncalls, tottime, cumtime, _callers = row
        if filename.startswith("<"):
            where = f"{filename}:{funcname}"
        else:
            short = "/".join(filename.split("/")[-2:])
            where = f"{short}:{lineno}:{funcname}"
        rows.append([round(cumtime * 1e3, 2), round(tottime * 1e3, 2),
                     ncalls, where])
    return rows


def _alloc_rows(scenario: str, scale: float, top: int) -> List[List]:
    """Top-N allocation sites of one scenario run (tracemalloc)."""
    import tracemalloc

    from repro.analysis.perf import SCENARIOS

    func = SCENARIOS[scenario]
    tracemalloc.start(10)
    try:
        func(scale)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    rows: List[List] = []
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        short = "/".join(frame.filename.split("/")[-2:])
        rows.append([round(stat.size / 1024, 1), stat.count,
                     f"{short}:{frame.lineno}"])
    return rows


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a canonical perf scenario (cProfile, top-N hotspot table)."""
    import cProfile
    import json
    import pstats

    from repro.analysis.perf import SCENARIOS, run_scenario

    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise UsageError(
            f"unknown scenario {args.scenario!r} (known: {known})")
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_scenario(args.scenario, args.scale)
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = _hotspot_rows(stats, args.sort, args.top)
    alloc_rows = (_alloc_rows(args.scenario, args.scale, args.top)
                  if args.alloc else None)
    if args.json:
        payload: Dict[str, Any] = {
            "scenario": args.scenario,
            "scale": args.scale,
            "ops": result.ops,
            "wall_s": round(result.wall_s, 4),
            "ops_per_sec": round(result.ops_per_sec, 2),
            "sort": args.sort,
            "hotspots": [
                {"cum_ms": cum, "tot_ms": tot, "ncalls": ncalls,
                 "function": where}
                for cum, tot, ncalls, where in rows
            ],
        }
        if alloc_rows is not None:
            payload["allocations"] = [
                {"size_kb": size_kb, "blocks": count, "site": site}
                for size_kb, count, site in alloc_rows
            ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{args.scenario}: {result.ops} ops in {result.wall_s:.3f} s "
          f"({result.ops_per_sec:,.0f} ops/s, under profiler)\n")
    print(render_table(
        ["cum (ms)", "tot (ms)", "calls", "function"], rows,
        title=(f"top {len(rows)} by {args.sort} — "
               f"{args.scenario} @ scale {args.scale}")))
    if alloc_rows is not None:
        print()
        print(render_table(
            ["size (KiB)", "blocks", "allocation site"], alloc_rows,
            title=(f"top {len(alloc_rows)} allocation sites "
                   f"(tracemalloc, separate run)")))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run a fault-injection scenario and print the damage report."""
    # Imported lazily: scenarios pulls in the whole Trail stack.
    from repro.faults.scenarios import SCENARIOS, run_fault_scenario

    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise UsageError(
            f"unknown fault scenario {args.scenario!r} (known: {known})")
    result = run_fault_scenario(args.scenario, seed=args.seed)
    print(f"{result.name}: {result.description}")
    for note in result.notes:
        print(f"  - {note}")
    print()
    print(render_table(
        ["drive", "transient errs", "retries", "read errs",
         "write errs", "remapped", "spikes"],
        result.drive_rows,
        title=f"drive error counters (seed {args.seed})"))
    if result.injector_rows:
        print()
        print(render_table(
            ["drive", "bad sectors", "grown", "corrupted", "remapped",
             "spares left"],
            result.injector_rows,
            title="injector audit trail"))
    print()
    print(render_table(["metric", "value"], result.driver_rows,
                       title="Trail driver"))
    if result.recovery is not None:
        report = result.recovery
        print()
        print(render_table(
            ["metric", "value"],
            [["records found", report.records_found],
             ["sectors replayed", report.sectors_replayed],
             ["torn records dropped", report.torn_records_dropped],
             ["corrupt records", report.corrupt_records],
             ["unreadable sectors", report.unreadable_sectors],
             ["prev_sect chain broken",
              "yes" if report.chain_broken else "no"],
             ["sectors dropped", len(report.dropped_sectors)]],
            title="recovery report"))
    audit = result.audit
    if not audit.ok:
        print(f"\ndurability audit FAILED: lost {audit.lost}, "
              f"invented {audit.invented}")
        return 1
    return 0


def cmd_raid_rebuild(args: argparse.Namespace) -> int:
    """Kill a RAID member under load; report rebuild time and latency."""
    # Imported lazily: the scenario pulls in the whole Trail stack.
    from dataclasses import replace

    from repro.raid.scenario import RaidRebuildConfig, run_raid_rebuild

    base = (RaidRebuildConfig.smoke(seed=args.seed) if args.smoke
            else RaidRebuildConfig(seed=args.seed))
    if args.intensities:
        try:
            intensities = [float(value) for value
                           in args.intensities.split(",")]
        except ValueError:
            raise UsageError(
                f"bad --intensities value {args.intensities!r}") from None
    else:
        intensities = [base.interarrival_ms]
    all_ok = True
    summary = []
    for interarrival in intensities:
        result = run_raid_rebuild(
            replace(base, interarrival_ms=interarrival))
        all_ok = all_ok and result.ok
        degraded = next(
            (row for row in result.phase_rows if row[0] == "degraded"),
            None)
        summary.append([
            f"{interarrival:g}",
            f"{result.rebuild_ms:.0f}",
            f"{result.stripes_rebuilt}/{result.stripes_total}",
            "-" if degraded is None else f"{degraded[2]:.2f}",
            "-" if degraded is None else f"{degraded[3]:.2f}",
            str(result.foreground_errors),
            "yes" if result.ok else "NO",
        ])
        print(f"interarrival {interarrival:g} ms "
              f"(seed {base.seed}): rebuild "
              f"{result.rebuild_status} in {result.rebuild_ms:.0f} ms, "
              f"{result.writes_acked} writes / {result.reads_served} "
              f"reads, {result.rebuild_deferrals} write-backs deferred, "
              f"amplification {result.amplification:.2f}")
        print(render_table(
            ["phase", "ops", "p50 (ms)", "p99 (ms)", "mean (ms)"],
            [[phase, str(count), f"{p50:.2f}", f"{p99:.2f}",
              f"{mean:.2f}"]
             for phase, count, p50, p99, mean in result.phase_rows],
            title="foreground latency by phase"))
        print(f"audit: {result.verified_sectors} sectors verified, "
              f"{result.mismatched_sectors} mismatched, parity "
              f"{'clean' if result.parity_clean else 'BROKEN'}, "
              f"{result.lost_sectors} sectors lost  "
              f"[fingerprint {result.fingerprint}]")
        for note in result.notes:
            print(f"  - {note}")
        print()
    if len(intensities) > 1:
        print(render_table(
            ["interarrival (ms)", "rebuild (ms)", "stripes",
             "degraded p50", "degraded p99", "errors", "ok"],
            summary, title="rebuild vs traffic intensity"))
    return 0 if all_ok else 1


def cmd_mc(args: argparse.Namespace) -> int:
    """Bounded schedule exploration over the model-checked scenarios."""
    # Imported lazily: pulls in the whole stack plus the explorer.
    from repro.mc import SCENARIOS, explore_scenario

    if args.list:
        for scenario in SCENARIOS.values():
            print(f"{scenario.name:18} {scenario.summary} "
                  f"[{', '.join(scenario.explore)}]")
        return 0

    names = args.scenarios or list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise UsageError(f"unknown scenario(s): {', '.join(unknown)} "
                         f"(try: repro mc --list)")

    rows = []
    all_ok = True
    total_schedules = 0
    for name in names:
        report = explore_scenario(SCENARIOS[name], budget=args.budget,
                                  preemption_bound=args.bound)
        stats = report.stats
        all_ok = all_ok and report.ok
        total_schedules += stats.schedules
        rows.append([
            name, str(stats.schedules), str(stats.choice_points),
            str(stats.max_preemptions),
            str(len(report.divergences)), str(len(report.failures)),
            "ok" if report.ok else "BROKEN",
        ])
        for issue in (report.failures + report.divergences)[:3]:
            what = issue.failure or "digest divergence"
            print(f"mc: {name} schedule {list(issue.decisions)}: {what}")
    print(render_table(
        ["scenario", "schedules", "choice pts", "preempt", "div", "fail",
         "result"],
        rows, title="bounded schedule exploration"))
    print(f"total: {total_schedules} schedules explored")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Track-Based Disk Logging (DSN 2002) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help=cmd_profile.__doc__)
    profile.add_argument("scenario",
                         help="perf scenario name (e.g. kernel-churn, "
                              "sector-churn, fig3-sparse, tpcc-small, "
                              "crash-recover)")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="scenario size multiplier")
    profile.add_argument("--top", type=int, default=20,
                         help="number of rows to print")
    profile.add_argument("--sort", choices=["cumulative", "tottime"],
                         default="cumulative",
                         help="stat ordering (default: cumulative)")
    profile.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of tables")
    profile.add_argument("--alloc", action="store_true",
                         help="also report top allocation sites "
                              "(tracemalloc, adds a second run)")
    profile.set_defaults(func=cmd_profile)

    faults = sub.add_parser("faults", help=cmd_faults.__doc__)
    faults.add_argument("scenario",
                        help="fault scenario name (flaky-data-disk, "
                             "dying-log-disk, corrupt-log-crash, "
                             "latency-spikes)")
    faults.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (same seed, same faults)")
    faults.set_defaults(func=cmd_faults)

    raid = sub.add_parser("raid-rebuild", help=cmd_raid_rebuild.__doc__)
    raid.add_argument("--seed", type=int, default=0,
                      help="workload/fault seed (same seed, same run)")
    raid.add_argument("--smoke", action="store_true",
                      help="small fast variant for CI")
    raid.add_argument("--intensities", default="",
                      help="comma-separated mean interarrival times in "
                           "ms; runs the experiment once per value "
                           "(e.g. 4,2,1)")
    raid.set_defaults(func=cmd_raid_rebuild)

    mc = sub.add_parser("mc", help=cmd_mc.__doc__)
    mc.add_argument("scenarios", nargs="*",
                    help="scenario names (default: all; see --list)")
    mc.add_argument("--budget", type=int, default=250,
                    help="max schedules to execute per scenario")
    mc.add_argument("--bound", type=int, default=3,
                    help="preemption bound (non-default picks per "
                         "schedule)")
    mc.add_argument("--list", action="store_true",
                    help="list scenarios and exit")
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: a usage or library error ends the command with
    one line on stderr and status 2 or its :data:`EXIT_CODES` status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"repro: {type(error).__name__}: {error}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(error).__mro__
                    if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
