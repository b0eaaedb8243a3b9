"""The isolation model: module state, annotations and escape flow.

Everything trailiso knows about one file is computed here, once, and
shared by every TIS rule through the engine's context cache:

* **Module state** — every module- and class-scope binding whose value
  is a mutable container (list/dict/set/bytearray and friends), plus
  the full set of module-scope names and classes (the *sinks* the
  escape analysis checks against).
* **Annotations** — ``# trailiso: shared_immutable -- reason``
  comments, the grammar that blesses a deliberately shared constant.
  Parsing records where each annotation sits so hygiene can verify it
  is anchored to a real binding and carries a reason.
* **Escapes** — a taint flow over every function body (the same
  copy-and-join branch discipline as trailunits' dimension inference):
  values rooted in a ``Simulation``/``TrailDriver`` context that reach
  module- or class-level storage, and constructor context parameters
  stored anywhere other than ``self``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.analysis.engine import Comments
from tools.analysis.registry import dotted_name

#: The one annotation kind trailiso understands.
SHARED_IMMUTABLE = "shared_immutable"

#: ``# trailiso: <kind> [-- reason]`` — deliberately shaped so that
#: suppression comments (``# trailiso: disable=TIS001``) never match:
#: the kind may not contain ``=``.
_ANNOTATION = re.compile(
    r"#\s*trailiso:\s*(?P<kind>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$")

#: Constructor calls that build a mutable container.
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "deque", "defaultdict", "OrderedDict", "Counter",
    "collections.deque", "collections.defaultdict",
    "collections.OrderedDict", "collections.Counter",
})

#: Calls whose *result* is immutable no matter what they wrap.
_FREEZERS = frozenset({
    "frozenset", "tuple", "bytes",
    "MappingProxyType", "types.MappingProxyType",
})

#: Types whose values are bound to exactly one simulation context.
CONTEXT_TYPES = frozenset({
    "Simulation", "PerturbedSimulation", "TrailDriver", "TrailInstance",
})

#: Parameter / attribute names conventionally carrying a context.
CONTEXT_NAMES = frozenset({"sim", "driver", "simulation"})

#: Builders whose return value owns a fresh context.
_CONTEXT_BUILDERS = frozenset({
    "build_trail_system", "build_standard_system", "build_lfs_system",
    "build", "assemble",
})

#: Method names that mutate a container in place.
_MUTATORS = frozenset({
    "append", "add", "update", "insert", "extend", "setdefault",
    "appendleft", "__setitem__",
})

#: Taint lattice: clean < context-derived < constructor context param.
CLEAN = 0
CTX = 1
INIT_PARAM = 2


@dataclass
class Annotation:
    """One parsed ``# trailiso:`` annotation comment."""

    line: int
    kind: str
    reason: Optional[str]
    used: bool = False


@dataclass
class MutableBinding:
    """A module- or class-scope binding of a mutable container."""

    node: ast.stmt
    name: str
    kind: str                     # "list" / "dict" / "set" / ...
    class_name: Optional[str]     # None at module scope
    annotation: Optional[Annotation]


@dataclass
class Escape:
    """A context-derived value reaching shared storage."""

    node: ast.AST
    sink: str                     # human description of the store
    function: str                 # qualname of the escaping function
    from_init_param: bool         # source is an ``__init__`` parameter


@dataclass
class ModuleModel:
    """Everything trailiso derived from one parsed file."""

    mutables: List[MutableBinding] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)
    escapes: List[Escape] = field(default_factory=list)
    ambient: List[Tuple[ast.AST, str]] = field(default_factory=list)


def parse_annotations(comments: Comments) -> List[Annotation]:
    """Collect every ``# trailiso: <kind>`` comment in the file.

    Real comment tokens only — the grammar appearing in docstrings
    (this module documents itself) is not an annotation.
    """
    found: List[Annotation] = []
    for line, text in comments:
        match = _ANNOTATION.search(text)
        if match is None:
            continue
        found.append(Annotation(line=line, kind=match.group("kind"),
                                reason=match.group("reason")))
    return found


def mutable_kind(node: Optional[ast.expr]) -> Optional[str]:
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
        name = dotted_name(node.func)
        if name in _FREEZERS:
            return None
        if name in _MUTABLE_CALLS:
            return name.rsplit(".", maxsplit=1)[-1]
        return None
    if isinstance(node, ast.BinOp):
        return mutable_kind(node.left) or mutable_kind(node.right)
    if isinstance(node, ast.IfExp):
        return mutable_kind(node.body) or mutable_kind(node.orelse)
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


def _annotation_for(node: ast.stmt,
                    by_line: Dict[int, Annotation],
                    ) -> Optional[Annotation]:
    """The annotation anchored to a statement: same line or just above."""
    for line in (node.lineno, node.lineno - 1):
        found = by_line.get(line)
        if found is not None:
            found.used = True
            return found
    return None


def collect_state(tree: ast.Module, comments: Comments) -> ModuleModel:
    """Module/class mutable bindings, annotations and ambient reads."""
    model = ModuleModel()
    model.annotations = parse_annotations(comments)
    by_line = {ann.line: ann for ann in model.annotations}

    def scan_block(body: List[ast.stmt],
                   class_name: Optional[str]) -> None:
        for stmt in body:
            for name, value in _binding_targets(stmt):
                if name.startswith("__") and name.endswith("__"):
                    continue
                kind = mutable_kind(value)
                if kind is None:
                    # A frozen binding may still carry a documenting
                    # annotation; anchor it so hygiene sees it used.
                    _annotation_for(stmt, by_line)
                    continue
                model.mutables.append(MutableBinding(
                    node=stmt, name=name, kind=kind,
                    class_name=class_name,
                    annotation=_annotation_for(stmt, by_line)))
            if isinstance(stmt, ast.ClassDef):
                scan_block(stmt.body, stmt.name)
            elif isinstance(stmt, (ast.If, ast.Try)) and class_name is None:
                # Conditional module scope (TYPE_CHECKING guards,
                # import fallbacks) still binds module names.
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.stmt):
                        scan_block([child], None)

    scan_block(tree.body, None)
    model.ambient = list(_ambient_reads(tree))
    _EscapeScan(tree).run(model)
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


def _ambient_reads(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """(node, description) for every ambient-singleton access."""
    seen: Set[Tuple[int, int]] = set()

    def once(node: ast.AST, what: str) -> Iterator[Tuple[ast.AST, str]]:
        key = (getattr(node, "lineno", 0),
               getattr(node, "col_offset", 0))
        if key not in seen:
            seen.add(key)
            yield node, what

    # ``from time import perf_counter`` makes ``perf_counter()`` the
    # same read as ``time.perf_counter()``: resolve bare names first.
    imported: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
                "random", "time"):
            for alias in node.names:
                imported[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            name = imported.get(name, name)
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


class _EscapeScan:
    """Find context values flowing into module- or class-level storage.

    One pass collects the sink namespace (module-scope names and class
    names); a second runs a per-function taint interpreter with the
    trailunits branch discipline — copy the environment per branch,
    join by taking the highest taint seen on any path.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        self.module_names: Set[str] = set()
        self.class_names: Set[str] = set()
        for stmt in tree.body:
            for name, _value in _binding_targets(stmt):
                self.module_names.add(name)
            if isinstance(stmt, ast.ClassDef):
                self.class_names.add(stmt.name)

    def run(self, model: ModuleModel) -> None:
        for func, qualname in self._functions(self.tree.body, ""):
            flow = _FunctionFlow(self, func, qualname)
            model.escapes.extend(flow.run())

    def _functions(self, body: List[ast.stmt], prefix: str,
                   ) -> Iterator[Tuple[ast.FunctionDef, str]]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                if isinstance(stmt, ast.FunctionDef):
                    yield stmt, qualname
                yield from self._functions(stmt.body, f"{qualname}.")
            elif isinstance(stmt, ast.ClassDef):
                yield from self._functions(stmt.body, f"{stmt.name}.")


def _annotation_is_context(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    return any(ctx in text for ctx in CONTEXT_TYPES)


def _root_name(node: ast.expr) -> Optional[str]:
    """The leftmost Name of an Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FunctionFlow:
    """Taint interpretation of one function body."""

    def __init__(self, scan: _EscapeScan, func: ast.FunctionDef,
                 qualname: str) -> None:
        self.scan = scan
        self.func = func
        self.qualname = qualname
        self.is_init = func.name == "__init__"
        self.env: Dict[str, int] = {}
        self.locals: Set[str] = set()
        self.declared_global: Set[str] = set()
        self.escapes: List[Escape] = []
        args = func.args
        every = (args.posonlyargs + args.args + args.kwonlyargs
                 + ([args.vararg] if args.vararg else [])
                 + ([args.kwarg] if args.kwarg else []))
        for arg in every:
            self.locals.add(arg.arg)
            if arg.arg in CONTEXT_NAMES \
                    or _annotation_is_context(arg.annotation):
                self.env[arg.arg] = (INIT_PARAM if self.is_init
                                     else CTX)

    def run(self) -> List[Escape]:
        self._block(self.func.body)
        return self.escapes

    # -- expression taint -------------------------------------------------

    def _taint(self, node: Optional[ast.expr]) -> int:
        if node is None:
            return CLEAN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            base = self._taint(node.value)
            if base:
                return base
            if isinstance(node.value, ast.Name) \
                    and node.value.id == "self" \
                    and node.attr.lstrip("_") in CONTEXT_NAMES:
                return CTX
            return CLEAN
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            last = name.rsplit(".", maxsplit=1)[-1] if name else ""
            if last in CONTEXT_TYPES or last in _CONTEXT_BUILDERS:
                return CTX
            if isinstance(node.func, ast.Attribute):
                return self._taint(node.func.value)
            return CLEAN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return max((self._taint(e) for e in node.elts),
                       default=CLEAN)
        if isinstance(node, ast.Dict):
            values = list(node.keys) + list(node.values)
            return max((self._taint(e) for e in values if e is not None),
                       default=CLEAN)
        if isinstance(node, ast.BinOp):
            return max(self._taint(node.left), self._taint(node.right))
        if isinstance(node, ast.BoolOp):
            return max(self._taint(e) for e in node.values)
        if isinstance(node, ast.IfExp):
            return max(self._taint(node.body), self._taint(node.orelse))
        if isinstance(node, (ast.Await, ast.Starred, ast.Subscript)):
            inner = (node.value if not isinstance(node, ast.Subscript)
                     else node.value)
            return self._taint(inner)
        if isinstance(node, ast.NamedExpr):
            return self._taint(node.value)
        return CLEAN

    # -- statements -------------------------------------------------------

    def _block(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _branches(self, blocks: List[List[ast.stmt]]) -> None:
        base = dict(self.env)
        merged = dict(base)
        for block in blocks:
            self.env = dict(base)
            self._block(block)
            for name, taint in self.env.items():
                if taint > merged.get(name, CLEAN):
                    merged[name] = taint
        self.env = merged

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Global):
            self.declared_global.update(stmt.names)
        elif isinstance(stmt, ast.Assign):
            taint = self._taint(stmt.value)
            for target in stmt.targets:
                self._store(target, taint, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._store(stmt.target, self._taint(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._store(stmt.target, self._taint(stmt.value), stmt)
        elif isinstance(stmt, ast.Expr):
            self._expr_stmt(stmt.value, stmt)
        elif isinstance(stmt, ast.If):
            self._branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._taint(stmt.iter)
            self._store(stmt.target, taint, stmt)
            self._branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.While):
            self._branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._store(item.optional_vars,
                                self._taint(item.context_expr), stmt)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            blocks = [stmt.body]
            blocks.extend(handler.body for handler in stmt.handlers)
            if stmt.orelse:
                blocks.append(stmt.orelse)
            self._branches(blocks)
            self._block(stmt.finalbody)
        # Nested defs/classes are visited as their own functions.

    def _store(self, target: ast.expr, taint: int,
               stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, taint, stmt)
            return
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.declared_global:
                if taint:
                    self._escape(stmt, taint,
                                 f"assignment to global '{name}'")
                return
            self.locals.add(name)
            self.env[name] = taint
            return
        root = _root_name(target)
        if root is None or taint == CLEAN:
            return
        if root == "self":
            return
        if self._is_class_sink(target, root):
            self._escape(stmt, taint,
                         f"store on class attribute "
                         f"'{ast.unparse(target)}'")
        elif root in self.scan.module_names \
                and root not in self.locals:
            self._escape(stmt, taint,
                         f"store into module-level '{root}'")
        elif taint == INIT_PARAM \
                and self.env.get(root, CLEAN) == CLEAN:
            # Storing context state back onto a context object
            # (``sim._sequence = ...``) is intra-context wiring; only
            # a *clean* foreign object is an escape route.
            self._escape(stmt, taint,
                         f"constructor context parameter stored on "
                         f"'{ast.unparse(target)}'")

    def _is_class_sink(self, target: ast.expr, root: str) -> bool:
        if root == "cls" or root in self.scan.class_names:
            return True
        # ``type(self).attr = ...``
        node: ast.expr = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
            if isinstance(node, ast.Call) \
                    and dotted_name(node.func) == "type":
                return True
        return False

    def _expr_stmt(self, value: ast.expr, stmt: ast.stmt) -> None:
        if not isinstance(value, ast.Call) \
                or not isinstance(value.func, ast.Attribute):
            return
        if value.func.attr not in _MUTATORS:
            return
        taint = max((self._taint(arg) for arg in value.args),
                    default=CLEAN)
        for keyword in value.keywords:
            taint = max(taint, self._taint(keyword.value))
        if taint == CLEAN:
            return
        root = _root_name(value.func.value)
        if root is None:
            return
        if root in self.scan.class_names or (
                root in self.scan.module_names
                and root not in self.locals):
            self._escape(stmt, taint,
                         f"'{dotted_name(value.func)}(...)' mutates "
                         f"shared storage with a context value")

    def _escape(self, node: ast.AST, taint: int, sink: str) -> None:
        self.escapes.append(Escape(
            node=node, sink=sink, function=self.qualname,
            from_init_param=(taint == INIT_PARAM and self.is_init)))
