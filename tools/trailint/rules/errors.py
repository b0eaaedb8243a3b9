"""TRL004: broad ``except`` clauses that flatten the error taxonomy.

``repro.errors`` distinguishes media faults, power loss, format
corruption and driver shutdown precisely so degraded-mode handling can
react differently to each.  ``except Exception`` (or a bare
``except``) erases that distinction.  A handler is allowed to be broad
only when it re-raises the original exception unchanged (a bare
``raise``) — converting to a new exception type from a broad catch
still collapses the taxonomy and must instead name the exceptions it
means to translate.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analysis.engine import FileContext
from tools.analysis.findings import Finding

from ..registry import REGISTRY, Rule, dotted_name

_BROAD = frozenset({"Exception", "BaseException"})


@REGISTRY.register
class BroadExceptRule(Rule):
    code = "TRL004"
    name = "no-broad-except"
    summary = ("no bare/broad except swallowing the repro.errors "
               "taxonomy unless it re-raises unchanged")
    scope = ("src/repro/*",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node)
            if not broad:
                continue
            if self._reraises_unchanged(node):
                continue
            yield ctx.finding(
                node, self.code,
                f"{broad} swallows the repro.errors taxonomy; catch "
                f"the specific exceptions this code can translate, or "
                f"re-raise with a bare `raise`")

    @staticmethod
    def _broad_name(handler: ast.ExceptHandler) -> str:
        """'bare except' / 'except Exception' / '' when specific."""
        if handler.type is None:
            return "bare except"
        exprs = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        for expr in exprs:
            name = dotted_name(expr).rpartition(".")[2]
            if name in _BROAD:
                return f"except {name}"
        return ""  # specific handler

    @staticmethod
    def _reraises_unchanged(handler: ast.ExceptHandler) -> bool:
        """True if the handler body contains a bare ``raise``."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is None:
                return True
        return False
