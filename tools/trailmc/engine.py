"""trailmc front-end: collect footprints, report the relation.

Unlike the four lint passes, trailmc has no findings and no rule
codes — it *extracts* a model (per-segment footprints plus the
pairwise independence relation) for the bounded schedule explorer to
consume.  It therefore binds to the shared ``tools/analysis`` runtime
at the file-resolution layer only (:func:`tools.analysis.engine.walk`,
the same skip-dirs and path semantics as every analyzer).  Its report
CLI takes positional paths, ``--format human|json`` (``--json``
sugar) and ``--root``; exit 0 on success, 2 on usage or I/O error.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from tools.analysis.engine import walk
from tools.trailmc.footprints import (
    SegKey, Segment, commutes, delegated_targets, merge_segments,
    module_segments, oracle_payload, refine_escapes)

NAME = "trailmc"
DEFAULT_PATHS: Tuple[str, ...] = ("src",)


def collect(paths: Sequence[str] = DEFAULT_PATHS,
            root: Optional[str] = None) -> Dict[SegKey, Segment]:
    """Parse ``paths`` and return the merged segment map.

    Files that fail to read or parse are skipped with a note on
    stderr — the explorer treats their segments as unknown (never
    pruned), so a skip degrades pruning, not correctness.
    """
    base = os.path.abspath(root) if root else os.getcwd()
    segments: List[Segment] = []
    delegated: Set[str] = set()
    for path, relpath, _explicit in walk(base, paths, ()):
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=relpath)
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            print(f"{NAME}: skipping {relpath}: {exc}", file=sys.stderr)
            continue
        segments.extend(module_segments(relpath, tree, source))
        delegated |= delegated_targets(tree)
    refine_escapes(segments, delegated)
    return merge_segments(segments)


def build_oracle_payload(
        paths: Sequence[str] = DEFAULT_PATHS,
        root: Optional[str] = None) -> Dict[SegKey, Dict[str, object]]:
    """One-call plain-data payload for
    ``IndependenceOracle.from_segments``."""
    return oracle_payload(collect(paths, root))


def independence_stats(
        merged: Mapping[SegKey, Segment]) -> Dict[str, int]:
    """Pairwise commutativity counts over every ordered-once pair."""
    ordered = [merged[key] for key in sorted(merged)]
    pairs = commuting = 0
    for i, left in enumerate(ordered):
        for right in ordered[i + 1:]:
            pairs += 1
            if commutes(left, right):
                commuting += 1
    return {"pairs": pairs, "commuting": commuting,
            "conflicting": pairs - commuting}


def _report_human(merged: Mapping[SegKey, Segment],
                  stats: Mapping[str, int]) -> None:
    functions = {seg.function for seg in merged.values()}
    touching = [seg for _, seg in sorted(merged.items())
                if seg.reads or seg.writes]
    print(f"{NAME}: {len(functions)} generator functions, "
          f"{len(merged)} yield segments "
          f"({len(touching)} touching annotated state)")
    for seg in touching:
        file, qualname, line = seg.key
        marks = []
        if seg.writes:
            marks.append("w:" + ",".join(sorted(seg.writes)))
        if seg.reads - seg.writes:
            marks.append("r:" + ",".join(sorted(seg.reads - seg.writes)))
        if seg.locks:
            marks.append("locked:" + ",".join(sorted(seg.locks)))
        if seg.escapes:
            marks.append("escapes")
        print(f"  {file}:{line} {qualname}#{seg.index} "
              f"{' '.join(marks)}")
    pairs = stats["pairs"]
    share = (100.0 * stats["commuting"] / pairs) if pairs else 100.0
    print(f"{NAME}: independence: {stats['commuting']}/{pairs} "
          f"segment pairs commute ({share:.1f}%)")


def _json_key(key: SegKey) -> str:
    return f"{key[0]}:{key[1]}:{key[2]}"


def _report_json(merged: Mapping[SegKey, Segment],
                 stats: Mapping[str, int]) -> None:
    payload = {
        "tool": NAME,
        "segments": {
            _json_key(key): {
                "function": seg.function,
                "segment": seg.index,
                "reads": sorted(seg.reads),
                "writes": sorted(seg.writes),
                "locks": dict(sorted(seg.locks.items())),
                "escapes": seg.escapes,
            }
            for key, seg in sorted(merged.items())
        },
        "independence": dict(stats),
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=NAME,
        description="static schedule-interference analysis: per-yield-"
                    "segment footprints over annotated shared state "
                    "and the segment independence relation")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to analyze "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="output format")
    parser.add_argument("--json", dest="format", action="store_const",
                        const="json", help="shorthand for --format json")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths "
                             "(default: cwd)")
    args = parser.parse_args(argv)

    try:
        merged = collect(args.paths, args.root)
    except FileNotFoundError as exc:
        print(f"{NAME}: {exc}", file=sys.stderr)
        return 2
    stats = independence_stats(merged)
    if args.format == "json":
        _report_json(merged, stats)
    else:
        _report_human(merged, stats)
    return 0


__all__ = ["build_oracle_payload", "collect", "independence_stats",
           "main"]
