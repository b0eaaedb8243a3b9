"""EXPERIMENTS.md shows every pinned table, rendered from its snapshot.

Each entry of ``paper_numbers.json`` appears in EXPERIMENTS.md exactly
once, as a block::

    <!-- paper-numbers: NAME -->
    ```text
    <render_table output of the entry>
    ```

so the document cannot drift from the numbers the benchmarks check.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

from benchmarks.conftest import load_snapshot, render_entry

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- paper-numbers: (\S+) -->\n```text\n(.*?)\n```",
                   re.DOTALL)

SNAPSHOT = load_snapshot()
BLOCKS = BLOCK.findall(EXPERIMENTS.read_text(encoding="utf-8"))


def test_every_entry_has_exactly_one_block():
    counts = Counter(name for name, _text in BLOCKS)
    assert {name: counts[name] for name in SNAPSHOT
            if counts[name] != 1} == {}
    assert sorted(set(counts) - set(SNAPSHOT)) == []


@pytest.mark.parametrize("name,text", BLOCKS,
                         ids=[name for name, _text in BLOCKS])
def test_block_is_the_rendered_snapshot(name, text):
    expected = render_entry(SNAPSHOT[name])
    assert text == expected, (
        f"EXPERIMENTS.md block {name!r} is not the rendering of "
        f"paper_numbers.json; expected block:\n{expected}")
