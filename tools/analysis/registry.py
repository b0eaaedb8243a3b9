"""Rule base class and per-tool rule registries.

A rule is a class with a ``<PREFIX>nnn`` code, a human-readable
summary, an optional path ``scope`` (fnmatch patterns; empty means
every file) and optional ``exempt`` patterns that win over the scope.
Concrete rules implement :meth:`Rule.check`, yielding
:class:`~tools.analysis.findings.Finding` objects for one analyzed
file.

Each analyzer owns a :class:`Registry` instance (``TRL`` for trailint,
``TSN`` for trailsan, ``TUN`` for trailunits, ``TIS`` for trailiso);
rules self-register at import time via the registry's
:meth:`Registry.register` decorator.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import (
    TYPE_CHECKING, ClassVar, Dict, Iterator, List, Tuple, Type)

if TYPE_CHECKING:
    from tools.analysis.findings import Finding


class Rule:
    """One named check over a parsed source file."""

    #: Unique code: a three-letter tool prefix plus three digits.
    #: Findings carry it and suppression comments name it.
    code: ClassVar[str] = ""
    #: Short kebab-case name, for the docs catalogue.
    name: ClassVar[str] = ""
    #: One-line description of what the rule enforces.
    summary: ClassVar[str] = ""
    #: fnmatch patterns (posix-style, relative to the repo root) the
    #: rule applies to.  Empty tuple = every analyzed file.  Ignored
    #: for files passed explicitly on the command line, so known-bad
    #: fixtures can be analyzed directly.
    scope: ClassVar[Tuple[str, ...]] = ()
    #: fnmatch patterns exempted even when the scope matches.  Unlike
    #: ``scope`` these are honored for explicit files too.
    exempt: ClassVar[Tuple[str, ...]] = ()

    def applies_to(self, path: str, explicit: bool = False) -> bool:
        """True when ``path`` (posix relpath) is in this rule's remit."""
        if any(fnmatch(path, pattern) for pattern in self.exempt):
            return False
        if explicit or not self.scope:
            return True
        return any(fnmatch(path, pattern) for pattern in self.scope)

    def check(self, ctx: object) -> "Iterator[Finding]":
        """Yield findings for one file.  Subclasses override."""
        raise NotImplementedError
        yield  # pragma: no cover  (makes this a generator)


class Registry:
    """The rule set of one analyzer, keyed by code."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._rules: Dict[str, Type[Rule]] = {}

    def register(self, rule_class: Type[Rule]) -> Type[Rule]:
        """Class decorator adding ``rule_class`` to this registry."""
        code = rule_class.code
        if not (code.startswith(self.prefix) and code[3:].isdigit()
                and len(code) == 6):
            raise ValueError(
                f"bad rule code {code!r} on {rule_class.__name__}")
        if code in self._rules:
            raise ValueError(f"duplicate rule code {code}")
        self._rules[code] = rule_class
        return rule_class

    def all_rules(self) -> List[Rule]:
        """Fresh instances of every registered rule, sorted by code."""
        return [self._rules[code]() for code in sorted(self._rules)]

    def codes(self) -> List[str]:
        return sorted(self._rules)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ''.

    Shared helper for rules that match calls by their dotted target
    (``time.time``, ``datetime.datetime.now``, ``struct.pack`` ...).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""
