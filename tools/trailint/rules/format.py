"""TRL008: decoded records are format-error-handled and CRC-verified
(paper §3.2).

The self-describing log format works only if every reader treats a
CRC/format mismatch as "not a record".  This rule keeps decoded
headers and restored payloads from being consumed unverified outside
``core/format.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from tools.analysis.engine import FileContext
from tools.analysis.findings import Finding

from ..registry import REGISTRY, Rule, dotted_name

_DECODE_FNS = frozenset({"decode_record_header", "decode_disk_header",
                         "decode_geometry"})
_FORMAT_ERROR_NAMES = frozenset({"LogFormatError", "TrailError"})


@REGISTRY.register
class CrcDisciplineRule(Rule):
    code = "TRL008"
    name = "crc-discipline"
    summary = ("decode_* calls must handle LogFormatError and restored "
               "payloads must be CRC-verified in the same function")
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
