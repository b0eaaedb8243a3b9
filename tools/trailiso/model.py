"""The isolation model: module-scope mutable state and ambient reads.

Everything trailiso knows about one file is computed here, once, and
shared by every TIS rule through the file's context:

* **Module state** — every module-scope binding whose value is a
  mutable container (list/dict/set/bytearray and friends) or a
  process-global counter (``itertools.count``).
* **Ambient reads** — calls and attribute reads of process-global
  singletons: the :mod:`random` module RNG, the host clock and the
  process environment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.analysis.registry import dotted_name

#: Constructor calls that build a mutable container or counter.
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "deque", "defaultdict", "OrderedDict", "Counter",
    "collections.deque", "collections.defaultdict",
    "collections.OrderedDict", "collections.Counter",
    "itertools.count",
})

#: Calls whose *result* is immutable no matter what they wrap.
_FREEZERS = frozenset({
    "frozenset", "tuple", "bytes",
    "MappingProxyType", "types.MappingProxyType",
})

#: Modules whose ``from`` imports are resolved to dotted names, so
#: ``from time import perf_counter`` then ``perf_counter()`` reads as
#: ``time.perf_counter()``.
_RESOLVED_MODULES = ("itertools", "random", "time")


@dataclass
class MutableBinding:
    """A module-scope binding of a mutable container."""

    node: ast.stmt
    name: str
    kind: str                     # "list" / "dict" / "count" / ...


@dataclass
class ModuleModel:
    """Everything trailiso derived from one parsed file."""

    mutables: List[MutableBinding] = field(default_factory=list)
    ambient: List[Tuple[ast.AST, str]] = field(default_factory=list)


def _imported_names(tree: ast.Module) -> Dict[str, str]:
    """Local name -> ``module.name`` for ``from`` imports of the
    modules in :data:`_RESOLVED_MODULES`."""
    imported: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module in _RESOLVED_MODULES:
            for alias in node.names:
                imported[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return imported


def _call_name(node: ast.Call, imported: Dict[str, str]) -> str:
    name = dotted_name(node.func)
    return imported.get(name, name)


def mutable_kind(node: Optional[ast.expr],
                 imported: Dict[str, str]) -> Optional[str]:
    """The container kind of an expression, or None when immutable."""
    if node is None:
        return None
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = _call_name(node, imported)
        if name in _FREEZERS:
            return None
        if name in _MUTABLE_CALLS:
            return name.rsplit(".", maxsplit=1)[-1]
        return None
    if isinstance(node, ast.BinOp):
        return (mutable_kind(node.left, imported)
                or mutable_kind(node.right, imported))
    if isinstance(node, ast.IfExp):
        return (mutable_kind(node.body, imported)
                or mutable_kind(node.orelse, imported))
    return None


def _binding_targets(node: ast.stmt) -> List[Tuple[str, ast.expr]]:
    """(name, value) pairs for simple Assign/AnnAssign statements."""
    pairs: List[Tuple[str, ast.expr]] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs.append((target.id, node.value))
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            pairs.append((node.target.id, node.value))
    return pairs


def collect_state(tree: ast.Module) -> ModuleModel:
    """Module-scope mutable bindings and ambient reads."""
    model = ModuleModel()
    imported = _imported_names(tree)

    def scan_block(body: List[ast.stmt]) -> None:
        for stmt in body:
            for name, value in _binding_targets(stmt):
                if name.startswith("__") and name.endswith("__"):
                    continue
                kind = mutable_kind(value, imported)
                if kind is not None:
                    model.mutables.append(
                        MutableBinding(node=stmt, name=name, kind=kind))
            if isinstance(stmt, (ast.If, ast.Try)):
                # Conditional module scope (TYPE_CHECKING guards,
                # import fallbacks) still binds module names.
                scan_block([child for child in ast.iter_child_nodes(stmt)
                            if isinstance(child, ast.stmt)])

    scan_block(tree.body)
    model.ambient = list(_ambient_reads(tree, imported))
    return model


#: Module functions of :mod:`random` whose state is process-global.
_RANDOM_FNS = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "randbytes",
    "getrandbits", "betavariate", "expovariate",
})

#: Wall-clock reads in :mod:`time`.
_TIME_FNS = frozenset({
    "time", "monotonic", "perf_counter", "process_time", "time_ns",
    "monotonic_ns", "perf_counter_ns", "localtime", "gmtime",
})

_DATETIME_FNS = frozenset({
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
})


def _ambient_reads(tree: ast.Module, imported: Dict[str, str],
                   ) -> Iterator[Tuple[ast.AST, str]]:
    """(node, description) for every ambient-singleton access."""
    seen: Set[Tuple[int, int]] = set()

    def once(node: ast.AST, what: str) -> Iterator[Tuple[ast.AST, str]]:
        key = (getattr(node, "lineno", 0),
               getattr(node, "col_offset", 0))
        if key not in seen:
            seen.add(key)
            yield node, what

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node, imported)
            parts = name.split(".")
            if name == "random.Random":
                if not node.args and not node.keywords:
                    yield from once(node, "unseeded RNG 'Random()'")
            elif len(parts) == 2 and parts[0] == "random" \
                    and parts[1] in _RANDOM_FNS:
                yield from once(node, f"shared RNG '{name}()'")
            elif len(parts) == 2 and parts[0] == "time" \
                    and parts[1] in _TIME_FNS:
                yield from once(node, f"wall clock '{name}()'")
            elif name in _DATETIME_FNS:
                yield from once(node, f"wall clock '{name}()'")
            elif name == "os.getenv":
                yield from once(node, "environment read 'os.getenv()'")
        elif isinstance(node, ast.Attribute):
            if dotted_name(node) == "os.environ":
                yield from once(node, "environment read 'os.environ'")
