"""Shared infrastructure for the benchmark suite.

Each benchmark module reproduces one table or figure from the paper at
the paper's run lengths: it runs the experiment on simulated hardware,
prints the result in the paper's layout next to the paper's numbers,
and asserts the *shape* claims (orderings, ratios, crossovers).
Absolute milliseconds differ from the authors' 2002 testbed; shapes
should not.

Every printed table is also pinned: the ``paper_numbers`` fixture
requires its title, headers and rows to equal the entry of the same
name in ``paper_numbers.json`` exactly, and ``test_paper_numbers.py``
requires each EXPERIMENTS.md block to be that entry's rendering.  The
simulation is deterministic, so any moved number is a model change.
Means over float lists use ``math.fsum``, which rounds the same on
every CPython (``sum`` over floats changed in 3.12), so the snapshot
holds on 3.11 and 3.12 alike.

Re-capturing: at its end, a session writes what it measured, over the
committed entries it did not re-run, to ``paper_numbers.measured.json``
(gitignored).  A deliberate model change copies that file over
``paper_numbers.json``, pastes the blocks the failures print into
EXPERIMENTS.md, and says why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import pytest

from repro.analysis import format_cell, render_table

SNAPSHOT = Path(__file__).with_name("paper_numbers.json")
MEASURED = Path(__file__).with_name("paper_numbers.measured.json")


def load_snapshot() -> Dict[str, Dict[str, Any]]:
    with SNAPSHOT.open(encoding="utf-8") as handle:
        return json.load(handle)


def render_entry(entry: Dict[str, Any]) -> str:
    """The table an entry prints: what EXPERIMENTS.md's block holds."""
    return render_table(entry["headers"], entry["rows"],
                        title=entry["title"])


def _cell_diff(expected: Optional[Dict[str, Any]],
               measured: Dict[str, Any]) -> List[str]:
    if expected is None:
        return ["  no entry of that name in paper_numbers.json"]
    lines = [f"  {key}: {expected[key]!r} -> {measured[key]!r}"
             for key in ("title", "headers")
             if expected[key] != measured[key]]
    old_rows, new_rows = expected["rows"], measured["rows"]
    if len(old_rows) != len(new_rows):
        lines.append(f"  rows: {len(old_rows)} -> {len(new_rows)}")
    headers = measured["headers"]
    for index, (old, new) in enumerate(zip(old_rows, new_rows)):
        for column, (was, now) in enumerate(zip(old, new)):
            if was != now:
                lines.append(
                    f"  row {index} [{format_cell(new[0])}] "
                    f"{headers[column]!r}: {was!r} -> {now!r}")
    return lines


class PaperNumbers:
    """Prints result tables and holds each to its snapshot entry."""

    def __init__(self) -> None:
        self.snapshot = load_snapshot()
        self.measured: Dict[str, Dict[str, Any]] = {}

    def check(self, name: str, headers: Sequence[str],
              rows: Sequence[Sequence[Any]], title: str) -> None:
        # Through JSON, so the comparison sees exactly what the file holds.
        measured = json.loads(json.dumps(
            {"title": title, "headers": list(headers),
             "rows": [list(row) for row in rows]}))
        self.measured[name] = measured
        rendered = render_entry(measured)
        print()
        print(rendered)
        expected = self.snapshot.get(name)
        if measured != expected:
            pytest.fail(
                f"{name!r} differs from paper_numbers.json:\n"
                + "\n".join(_cell_diff(expected, measured))
                + f"\nEXPERIMENTS.md block once {MEASURED.name} is "
                  f"copied over paper_numbers.json:\n{rendered}",
                pytrace=False)

    def write_measured(self) -> None:
        with MEASURED.open("w", encoding="utf-8") as handle:
            json.dump({**self.snapshot, **self.measured}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def paper_numbers():
    numbers = PaperNumbers()
    yield numbers
    numbers.write_measured()
