"""Source model for trailsan: atomic groups and yield-segmented scans.

Code between two ``yield`` points runs without any other process being
scheduled, so a shared invariant only needs to hold at yield
boundaries.  :func:`build_module_model` resolves the
``# trailsan: atomic_group(name)`` comments to per-class and
module-level groups; :class:`FunctionScan` splits one function into
*atomic segments* at every ``yield`` / ``yield from`` and records
which shared names each segment writes.

The segmentation is a linear source-order approximation of the real
CFG: each ``yield`` encountered in traversal order opens a new
segment.  Branches therefore merge their yields conservatively — if a
tear is possible on *some* path, the writes land in different
segments and the rule reports it.  Loop back-edges are likewise
approximated: a write before a loop's yield and one after it already
sit in different segments, which is exactly the interleaving window a
scheduled peer could observe.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from tools.analysis.engine import Comments

#: ``# trailsan: atomic_group(name)``
ANNOTATION_RE = re.compile(
    r"#\s*trailsan:\s*atomic_group\(\s*(?P<arg>[A-Za-z_][\w.-]*)\s*\)")

#: Method names that mutate their receiver.  A call like
#: ``self._live_records.pop(...)`` is a *write* to ``_live_records``.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "drain", "extend",
    "insert", "pop", "popitem", "popleft", "push", "put", "remove",
    "reverse", "rotate", "setdefault", "sort", "update",
})


def parse_annotations(comments: Comments) -> Dict[int, List[str]]:
    """Map line number -> atomic group names declared on that line."""
    annotations: Dict[int, List[str]] = {}
    for line, text in comments:
        for match in ANNOTATION_RE.finditer(text):
            annotations.setdefault(line, []).append(match.group("arg"))
    return annotations


@dataclass
class ClassModel:
    """Atomic groups and methods of one class."""

    #: group name -> attribute names, in declaration order.
    groups: Dict[str, List[str]] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ModuleModel:
    """Everything the rule needs to know about one parsed file."""

    classes: Dict[str, ClassModel] = field(default_factory=dict)
    #: module-level group name -> shared names.
    module_groups: Dict[str, List[str]] = field(default_factory=dict)


def _store_targets(stmt: ast.AST) -> List[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


def _is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def build_module_model(tree: ast.Module, comments: Comments) -> ModuleModel:
    """Resolve atomic-group annotations for one file."""
    annotations = parse_annotations(comments)
    model = ModuleModel()

    def declare(groups: Dict[str, List[str]], stmt: ast.AST,
                names: List[str]) -> None:
        if not names:
            return
        assert isinstance(stmt, ast.stmt)
        # Any line the statement spans, so the trailing comment of a
        # wrapped assignment still attaches.
        for line in range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1):
            for group_name in annotations.get(line, ()):
                group = groups.setdefault(group_name, [])
                group.extend(name for name in names if name not in group)

    def plain_names(stmt: ast.AST) -> List[str]:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return []
        return [target.id for target in _store_targets(stmt)
                if isinstance(target, ast.Name)]

    for node in tree.body:
        declare(model.module_groups, node, plain_names(node))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = model.classes[node.name] = ClassModel()
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                cls.methods[stmt.name] = stmt
            # Class-level declarations (dataclass fields).
            declare(cls.groups, stmt, plain_names(stmt))
        # ``self.X = ...`` declarations inside methods (typically
        # ``__init__``) carrying an annotation on the same line.
        for method in cls.methods.values():
            for stmt in ast.walk(method):
                declare(cls.groups, stmt, [
                    target.attr for target in _store_targets(stmt)
                    if _is_self_attr(target)])
    return model


@dataclass
class Touch:
    """One write of a shared attribute / module-level name."""

    name: str
    segment: int
    node: ast.AST


class FunctionScan(ast.NodeVisitor):
    """Execution-order scan of one function body.

    Collects every write of shared state with the atomic segment it
    runs in.  Values are visited before store targets, so the store of
    ``self.a = yield f()`` lands in the segment after the yield.
    """

    def __init__(self, func: ast.FunctionDef, model: ModuleModel) -> None:
        self.func = func
        #: Module-level names treated as shared state (annotated ones).
        self.module_shared: Set[str] = {
            name for names in model.module_groups.values()
            for name in names}
        self.segment = 0
        self.touches: List[Touch] = []
        for stmt in func.body:
            self.visit(stmt)

    def _touch(self, name: str, node: ast.AST) -> None:
        self.touches.append(Touch(name, self.segment, node))

    def _self_attr_base(self, node: ast.expr) -> Optional[str]:
        """``X`` when ``node``'s base chain is ``self.X[...].y...``."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if _is_self_attr(node):
                assert isinstance(node, ast.Attribute)
                return node.attr
            node = node.value
        return None

    def _skip(self, node: ast.AST) -> None:
        """Nested defs, lambdas and classes are separate scopes."""

    visit_FunctionDef = visit_AsyncFunctionDef = _skip
    visit_Lambda = visit_ClassDef = _skip

    def _assign(self, node: ast.stmt) -> None:
        value = getattr(node, "value", None)
        if value is not None:
            self.visit(value)
        for target in _store_targets(node):
            self._visit_store_target(target)

    visit_Assign = visit_AnnAssign = visit_AugAssign = _assign

    def _visit_store_target(self, target: ast.expr) -> None:
        attr = self._self_attr_base(target)
        if attr is not None:
            self._touch(attr, target)
        elif isinstance(target, ast.Name):
            if target.id in self.module_shared:
                self._touch(target.id, target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_store_target(element)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # Store through a non-self base: visit the base for yields.
            self.visit(target.value)
            if isinstance(target, ast.Subscript):
                self.visit(target.slice)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = self._self_attr_base(func.value)
            if base is None:
                self.visit(func.value)
            elif func.attr in MUTATOR_METHODS:
                # A mutating method call writes its self-attribute base.
                self._touch(base, func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self.visit(arg)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._visit_store_target(node.target)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def _yield(self, node: ast.AST) -> None:
        value = getattr(node, "value", None)
        if value is not None:
            self.visit(value)
        self.segment += 1

    visit_Yield = visit_YieldFrom = _yield
