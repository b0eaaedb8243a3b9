"""Source model for trailsan: annotations and yield-segmented CFGs.

The cooperative simulation gives every process *atomicity between
yields*: code between two ``yield`` points runs without any other
process being scheduled, so shared-state invariants only need to hold
at yield boundaries.  trailsan makes that discipline checkable:

* :func:`parse_annotations` reads the lightweight ground-truth comments
  (``# trailsan: guarded_by(lock)`` / ``# trailsan: atomic_group(name)``)
  that declare which attributes a lock protects and which attributes
  form an invariant pair that must be updated together.
* :class:`ModuleModel` resolves those annotations against the AST:
  per-class attribute maps, the set of generator (process) functions,
  and module-level shared names.
* :class:`FunctionScan` walks one generator function in execution
  order, splitting it into *atomic segments* at every ``yield`` /
  ``yield from`` and recording which shared attributes each segment
  reads and writes, which locks are held where (via the
  ``sim/resources.py`` ``request()``/``release()`` protocol), and how
  generator objects are created and consumed.

The segmentation is a linear source-order approximation of the real
CFG: each ``yield`` encountered in traversal order opens a new
segment.  Branches therefore merge their yields conservatively — if a
tear is possible on *some* path, the touches land in different
segments and the rules report it.  Loop back-edges are likewise
approximated: a write before a loop's yield and one after it already
sit in different segments, which is exactly the interleaving window a
scheduled peer could observe.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from tools.analysis.engine import Comments

#: ``# trailsan: guarded_by(name)`` / ``# trailsan: atomic_group(name)``
ANNOTATION_RE = re.compile(
    r"#\s*trailsan:\s*(?P<kind>guarded_by|atomic_group)"
    r"\(\s*(?P<arg>[A-Za-z_][\w.-]*)\s*\)")

#: Method names that mutate their receiver.  A call like
#: ``self._live_records.pop(...)`` is a *write* to ``_live_records``.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "drain", "extend",
    "insert", "pop", "popitem", "popleft", "push", "put", "remove",
    "reverse", "rotate", "setdefault", "sort", "update",
})

#: Method names that acquire a shared resource (``sim/resources.py``).
ACQUIRE_METHODS = frozenset({"request", "request_at"})

#: Yielded calls considered *bounded* waits: they complete in finite
#: simulated time on their own (timers, disk commands, event factories).
BOUNDED_YIELD_METHODS = frozenset({"timeout", "read", "write", "event",
                                   "process"})

#: Yielded calls considered *unbounded* waits: they only complete when
#: some peer process acts (queue gets, nested resource acquisition).
UNBOUNDED_YIELD_METHODS = frozenset({"get"}) | ACQUIRE_METHODS


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def parse_annotations(comments: Comments) -> Dict[int, List[Tuple[str, str]]]:
    """Map line number -> [(kind, argument), ...] for trailsan comments."""
    annotations: Dict[int, List[Tuple[str, str]]] = {}
    for line, text in comments:
        for match in ANNOTATION_RE.finditer(text):
            annotations.setdefault(line, []).append(
                (match.group("kind"), match.group("arg")))
    return annotations


def _is_generator(node: ast.AST) -> bool:
    """True when ``node`` (a function def) contains a top-level yield."""
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            # Yields inside nested functions belong to those functions.
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            if _owning_function(node, child) is node:
                return True
    return False


def _owning_function(root: ast.AST, target: ast.AST) -> Optional[ast.AST]:
    """The innermost function def containing ``target`` under ``root``."""
    owner: Optional[ast.AST] = None

    class _Finder(ast.NodeVisitor):
        def __init__(self) -> None:
            self.stack: List[ast.AST] = [root]

        def generic_visit(self, node: ast.AST) -> None:
            nonlocal owner
            if node is target:
                owner = self.stack[-1]
                return
            push = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)) and node is not root
            if push:
                self.stack.append(node)
            super().generic_visit(node)
            if push:
                self.stack.pop()

    _Finder().visit(root)
    return owner


@dataclass
class ClassModel:
    """Annotation and method facts for one class."""

    name: str
    node: ast.ClassDef
    #: attribute name -> lock name (``guarded_by``).
    guarded: Dict[str, str] = field(default_factory=dict)
    #: group name -> attribute names, in declaration order.
    groups: Dict[str, List[str]] = field(default_factory=dict)
    #: names of methods that are generator functions (sim processes).
    generator_methods: Set[str] = field(default_factory=set)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ModuleModel:
    """Everything the rules need to know about one parsed file."""

    classes: Dict[str, ClassModel] = field(default_factory=dict)
    #: module-level shared name -> lock name (``guarded_by``).
    module_guarded: Dict[str, str] = field(default_factory=dict)
    #: module-level group name -> shared names.
    module_groups: Dict[str, List[str]] = field(default_factory=dict)
    #: module-level function names that are generator functions.
    generator_functions: Set[str] = field(default_factory=set)


def _stmt_annotations(stmt: ast.stmt,
                      annotations: Dict[int, List[Tuple[str, str]]],
                      ) -> List[Tuple[str, str]]:
    """Annotations on any source line the statement spans (so the
    trailing comment of a wrapped assignment still attaches)."""
    end = getattr(stmt, "end_lineno", None) or stmt.lineno
    found: List[Tuple[str, str]] = []
    for line in range(stmt.lineno, end + 1):
        found.extend(annotations.get(line, ()))
    return found


def build_module_model(tree: ast.Module, comments: Comments) -> ModuleModel:
    """Resolve annotations and generator functions for one file."""
    annotations = parse_annotations(comments)
    model = ModuleModel()

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _is_generator(node):
            model.generator_functions.add(node.name)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                for kind, arg in _stmt_annotations(node, annotations):
                    if kind == "guarded_by":
                        model.module_guarded[name] = arg
                    else:
                        group = model.module_groups.setdefault(arg, [])
                        if name not in group:
                            group.append(name)

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = ClassModel(name=node.name, node=node)
        model.classes[node.name] = cls
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                cls.methods[stmt.name] = stmt
                if _is_generator(stmt):
                    cls.generator_methods.add(stmt.name)
            # Class-level declarations (dataclass fields).
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(stmt):
                    _apply_annotation(cls, annotations, stmt, name)
        # ``self.X = ...`` declarations inside methods (typically
        # ``__init__``) carrying an annotation on the same line.
        for method in cls.methods.values():
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign,
                                         ast.AugAssign)):
                    continue
                for attr in _self_attr_targets(stmt):
                    _apply_annotation(cls, annotations, stmt, attr)
    return model


def _apply_annotation(cls: ClassModel,
                      annotations: Dict[int, List[Tuple[str, str]]],
                      stmt: ast.stmt, attr: str) -> None:
    for kind, arg in _stmt_annotations(stmt, annotations):
        if kind == "guarded_by":
            cls.guarded[attr] = arg
        else:
            group = cls.groups.setdefault(arg, [])
            if attr not in group:
                group.append(attr)


def _assigned_names(stmt: ast.stmt) -> List[str]:
    """Plain names assigned by a module/class-level statement."""
    targets: List[ast.expr]
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _self_attr_targets(stmt: ast.stmt) -> List[str]:
    """``X`` for every ``self.X`` store target of ``stmt``."""
    if isinstance(stmt, ast.Assign):
        targets: List[ast.expr] = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    found: List[str] = []
    for target in targets:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            found.append(target.attr)
    return found


# ----------------------------------------------------------------------
# Per-function scan


@dataclass
class Touch:
    """One read or write of a shared attribute / module-level name."""

    name: str
    write: bool
    segment: int
    node: ast.AST
    #: Locks held (receiver dotted names) when the touch executes.
    held: Tuple[str, ...] = ()


@dataclass
class YieldPoint:
    """One ``yield`` / ``yield from`` — an atomic-segment boundary."""

    node: ast.AST
    segment_before: int
    is_yield_from: bool
    #: Lock dotted name this yield acquires (``yield L.request()`` or
    #: ``yield tok`` where ``tok = L.request()``), if any.
    acquires: Optional[str]
    #: True for waits with no intrinsic completion bound (queue ``get``,
    #: nested ``request``, waiting on a stored/bare event).
    unbounded: bool
    #: Locks held while parked on this yield.
    held: Tuple[str, ...] = ()


@dataclass
class GenCreation:
    """A generator object bound to a local name."""

    var: str
    callee: str
    node: ast.AST
    consumed_at: List[ast.AST] = field(default_factory=list)


@dataclass
class BareCall:
    """An expression-statement call whose result is discarded."""

    callee: str
    node: ast.AST
    #: True for ``self.X(...)``, False for module-level ``X(...)``.
    on_self: bool


class FunctionScan(ast.NodeVisitor):
    """Execution-order scan of one function body.

    Collects touches, yield points, lock spans, generator-object
    creation/consumption, and bare discarded calls.  The traversal
    visits values before store targets so that reads on the right-hand
    side of ``x = yield f(self.a)`` land in the segment *before* the
    yield and the store in the segment after it.
    """

    def __init__(self, func: ast.FunctionDef, model: ModuleModel,
                 cls: Optional[ClassModel],
                 module_shared: Optional[Set[str]] = None) -> None:
        self.func = func
        self.model = model
        self.cls = cls
        #: Module-level names treated as shared state (annotated ones).
        self.module_shared = module_shared if module_shared is not None \
            else set(model.module_guarded) | {
                name for names in model.module_groups.values()
                for name in names}
        self.segment = 0
        self.touches: List[Touch] = []
        self.yields: List[YieldPoint] = []
        self.creations: Dict[str, GenCreation] = {}
        self.all_creations: List[GenCreation] = []
        self.bare_calls: List[BareCall] = []
        #: Currently held locks, in acquisition order.
        self._held: List[str] = []
        #: Local var -> lock name for not-yet-yielded ``L.request()``.
        self._pending_requests: Dict[str, str] = {}
        for stmt in func.body:
            self.visit(stmt)

    # -- helpers -------------------------------------------------------

    def _touch(self, name: str, write: bool, node: ast.AST) -> None:
        self.touches.append(Touch(name=name, write=write,
                                  segment=self.segment, node=node,
                                  held=tuple(self._held)))

    def _self_attr_base(self, node: ast.expr) -> Optional[str]:
        """``X`` when ``node``'s base chain is ``self.X[...].y...``."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return node.attr
            node = node.value
        return None

    def _is_generator_callee(self, call: ast.Call) -> Optional[Tuple[str, bool]]:
        """(callee name, on_self) when ``call`` invokes a known generator."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.model.generator_functions:
                return func.id, False
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id == "self" and self.cls is not None
              and func.attr in self.cls.generator_methods):
            return func.attr, True
        return None

    # -- statement-order control --------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested defs are separate (non-process) scopes

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_Assign(self, node: ast.Assign) -> None:
        self._scan_request_binding(node)
        self.visit(node.value)
        for target in node.targets:
            self._visit_store_target(target)
        # Registered after the store so the target visit's
        # "reassignment resets tracking" rule frees any *previous*
        # generator bound to this name, not the one being created.
        self._scan_generator_binding(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._visit_store_target(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        # An augmented target is both read and written.
        self._visit_load_of_target(node.target)
        self._visit_store_target(node.target)

    def _visit_store_target(self, target: ast.expr) -> None:
        attr = self._self_attr_base(target)
        if attr is not None:
            self._touch(attr, True, target)
            return
        if isinstance(target, ast.Name):
            if target.id in self.module_shared:
                self._touch(target.id, True, target)
            elif target.id in self.creations:
                # Rebinding a generator variable starts a fresh object.
                del self.creations[target.id]
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_store_target(element)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            # Store through a non-self base: visit the base for reads.
            self.visit(target.value)
            if isinstance(target, ast.Subscript):
                self.visit(target.slice)

    def _visit_load_of_target(self, target: ast.expr) -> None:
        attr = self._self_attr_base(target)
        if attr is not None:
            self._touch(attr, False, target)
        elif isinstance(target, ast.Name) and target.id in self.module_shared:
            self._touch(target.id, False, target)

    def _scan_request_binding(self, node: ast.Assign) -> None:
        """Record ``tok = L.request(...)`` acquisition bindings."""
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        var = node.targets[0].id
        value = node.value
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ACQUIRE_METHODS):
            lock = dotted_name(value.func.value)
            if lock:
                self._pending_requests[var] = lock

    def _scan_generator_binding(self, node: ast.Assign) -> None:
        """Record ``gen = process_fn(...)`` generator-object bindings."""
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        if not isinstance(node.value, ast.Call):
            return
        callee = self._is_generator_callee(node.value)
        if callee is None:
            return
        creation = GenCreation(var=node.targets[0].id, callee=callee[0],
                               node=node.value)
        self.creations[creation.var] = creation
        self.all_creations.append(creation)

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            callee = self._is_generator_callee(value)
            if callee is not None:
                self.bare_calls.append(BareCall(
                    callee=callee[0], node=value, on_self=callee[1]))
        self.visit(value)

    # -- expressions ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            self._touch(node.attr, False, node)
            return
        self.visit(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        if (isinstance(node.ctx, ast.Load)
                and node.id in self.module_shared):
            self._touch(node.id, False, node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = self._self_attr_base(func.value)
            if func.attr in MUTATOR_METHODS and base is not None:
                # A mutating method call writes its self-attribute base.
                self._touch(base, True, func.value)
            elif func.attr == "release":
                lock = dotted_name(func.value)
                if lock in self._held:
                    self._held.remove(lock)
            if base is None:
                self.visit(func.value)
        elif isinstance(func, ast.Name):
            pass  # plain function call; args scanned below
        else:
            self.visit(func)
        # Generator objects passed to ``*.process(...)`` / ``Process(...)``
        # are consumed (driven) by the kernel.
        consuming = (
            (isinstance(func, ast.Attribute) and func.attr == "process")
            or (isinstance(func, ast.Name) and func.id == "Process"))
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if (consuming and isinstance(arg, ast.Name)
                    and arg.id in self.creations):
                self.creations[arg.id].consumed_at.append(arg)
            self.visit(arg)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        if (isinstance(node.iter, ast.Name)
                and node.iter.id in self.creations):
            # Iterating a generator object consumes it.
            self.creations[node.iter.id].consumed_at.append(node.iter)
        self._visit_store_target(node.target)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_Yield(self, node: ast.Yield) -> None:
        value = node.value
        acquires: Optional[str] = None
        unbounded = False
        if value is not None:
            self.visit(value)
            acquires, unbounded = self._classify_yield(value)
        else:
            unbounded = True  # bare ``yield`` waits on an external send
        self.yields.append(YieldPoint(
            node=node, segment_before=self.segment, is_yield_from=False,
            acquires=acquires, unbounded=unbounded,
            held=tuple(self._held)))
        self.segment += 1
        if acquires is not None and acquires not in self._held:
            self._held.append(acquires)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.visit(node.value)
        if (isinstance(node.value, ast.Name)
                and node.value.id in self.creations):
            self.creations[node.value.id].consumed_at.append(node.value)
        self.yields.append(YieldPoint(
            node=node, segment_before=self.segment, is_yield_from=True,
            acquires=None, unbounded=False, held=tuple(self._held)))
        self.segment += 1

    def _classify_yield(self, value: ast.expr) -> Tuple[Optional[str], bool]:
        """(acquired lock, unbounded?) for a yielded expression."""
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute):
                if func.attr in ACQUIRE_METHODS:
                    return dotted_name(func.value) or None, True
                if func.attr in UNBOUNDED_YIELD_METHODS:
                    return None, True
                return None, False
            return None, False
        if isinstance(value, ast.Name):
            lock = self._pending_requests.pop(value.id, None)
            if lock is not None:
                return lock, True
            return None, True  # waiting on an arbitrary stored event
        if isinstance(value, ast.Attribute):
            return None, True  # waiting on an event stored in shared state
        return None, False


def scan_function(func: ast.FunctionDef, model: ModuleModel,
                  cls: Optional[ClassModel]) -> FunctionScan:
    """Scan ``func`` (any function; yields recorded if present)."""
    return FunctionScan(func, model, cls)
