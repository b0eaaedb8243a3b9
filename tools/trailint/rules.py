"""The TRL rules: error-taxonomy and log-format discipline.

| code   | catches                                                   |
|--------|-----------------------------------------------------------|
| TRL004 | a broad ``except`` swallowing the ``repro.errors`` taxonomy |
| TRL008 | a decoded record consumed without its format/CRC check    |

``TRL000`` (unreadable files) and ``TRL009`` (suppression hygiene) are
reported by the shared engine, not by a rule here.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from tools.analysis.engine import FileContext
from tools.analysis.findings import Finding
from tools.analysis.registry import Registry, Rule, dotted_name

#: The global TRL rule set; rules self-register at import time.
REGISTRY = Registry("TRL")

_BROAD = frozenset({"Exception", "BaseException"})


@REGISTRY.register
class BroadExceptRule(Rule):
    """TRL004: a broad ``except`` that does not re-raise unchanged.

    ``repro.errors`` distinguishes media faults, power loss, format
    corruption and driver shutdown precisely so degraded-mode handling
    can react differently to each.  ``except Exception`` (or a bare
    ``except``) erases that distinction.  A handler may be broad only
    when it re-raises the original exception with a bare ``raise``;
    converting to a new exception type from a broad catch still
    collapses the taxonomy and must instead name the exceptions it
    means to translate.
    """

    code = "TRL004"
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


_DECODE_FNS = frozenset({"decode_record_header", "decode_disk_header",
                         "decode_geometry"})
_FORMAT_ERROR_NAMES = frozenset({"LogFormatError", "TrailError"})


@REGISTRY.register
class CrcDisciplineRule(Rule):
    """TRL008: decoded records are format-error-handled and
    CRC-verified (paper §3.2).

    The self-describing log format works only if every reader treats
    a CRC/format mismatch as "not a record".  This rule keeps decoded
    headers and restored payloads from being consumed unverified
    outside ``core/format.py``.
    """

    code = "TRL008"
    scope = ("src/repro/*",)
    exempt = ("src/repro/core/format.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_decode_protected(ctx, ctx.tree, False)
        yield from self._check_payload_verified(ctx)

    # -- part A: decode_* must sit under try/except LogFormatError ----

    def _check_decode_protected(self, ctx: FileContext, node: ast.AST,
                                protected: bool) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func).rpartition(".")[2]
            if name in _DECODE_FNS and not protected:
                yield ctx.finding(
                    node, self.code,
                    f"{name}() raises LogFormatError on CRC/format "
                    f"mismatch; call it inside try/except "
                    f"LogFormatError")
        if isinstance(node, ast.Try):
            body_protected = protected or any(
                self._catches_format_error(h) for h in node.handlers)
            for child in node.body:
                yield from self._check_decode_protected(
                    ctx, child, body_protected)
            for other in (node.handlers + node.orelse + node.finalbody):
                yield from self._check_decode_protected(
                    ctx, other, protected)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._check_decode_protected(ctx, child, protected)

    @staticmethod
    def _catches_format_error(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True  # bare except catches it (TRL004's problem)
        exprs = (handler.type.elts
                 if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        return any(dotted_name(e).rpartition(".")[2] in _FORMAT_ERROR_NAMES
                   for e in exprs)

    # -- part B: restore_payload needs a payload-CRC check in scope ---

    def _check_payload_verified(self,
                                ctx: FileContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            restores: List[ast.Call] = []
            verified = False
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = dotted_name(node.func).rpartition(".")[2]
                    if name == "restore_payload":
                        restores.append(node)
                    elif name == "payload_crc32":
                        verified = True
                if isinstance(node, ast.Attribute) \
                        and node.attr == "payload_crc":
                    verified = True
            if verified:
                continue
            for call in restores:
                yield ctx.finding(
                    call, self.code,
                    "restore_payload() without a payload_crc32 check "
                    "in the same function: corrupted payloads would be "
                    "replayed silently")
