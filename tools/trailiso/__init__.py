"""trailiso — cross-instance isolation analysis.

Several Trail stacks can share one interpreter (``TrailInstance``)
only if nothing in ``repro.*`` leaks state between them.  trailiso
checks that statically: module-level mutable containers and counters
(TIS001) and ambient-singleton reads — ``random.*`` module functions,
``time.*``, ``os.environ`` — outside the sanitizer and perf
perimeters (TIS004).  Its runtime twin in tier-1 is the interleaved
multi-instance harness in ``tests/integration/test_two_instances.py``,
which proves solo and concurrent runs byte-identical.

Run it with every other analyzer through ``python -m tools.analysis``
(``make analyzers``).  A deliberately shared mutable binding needs a
suppression with a reason (``# trailiso: disable=TIS001 -- reason``);
the swept tree carries none.  ``TIS000`` is the code for unreadable
files and suppression hygiene.
"""

from __future__ import annotations

import ast

from tools.analysis.engine import (
    Comments, FileContext, ParsedFile, ToolSpec)
from tools.trailiso.model import collect_state
from tools.trailiso.rules import REGISTRY

__all__ = ["IsoContext", "REGISTRY", "SPEC"]


class IsoContext(FileContext):
    """Per-file context: the isolation model every TIS rule reads."""

    def __init__(self, path: str, comments: Comments,
                 tree: ast.Module) -> None:
        super().__init__(path, comments, tree)
        self.model = collect_state(tree)


class TrailisoSpec(ToolSpec):
    """trailiso: cross-instance isolation analysis."""

    name = "trailiso"
    prefix = "TIS"
    error_code = "TIS000"
    hygiene_code = "TIS000"
    registry = REGISTRY

    def make_context(self, parsed: ParsedFile,
                     shared: object) -> IsoContext:
        assert parsed.tree is not None
        return IsoContext(parsed.relpath, parsed.comments, parsed.tree)


SPEC = TrailisoSpec()
