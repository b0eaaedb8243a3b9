"""Static per-yield-segment read/write footprints.

This is the analysis half of trailmc: it reuses trailsan's
yield-segmented view of generator functions (``tools/trailsan/model``)
to compute, for every atomic segment of every sim process, the set of
``guarded_by``/``atomic_group``-annotated state it reads and writes,
which declared lock (if any) covers each touched attribute for the
whole segment, and whether the segment can *escape* — return to a
``yield from`` caller, whose continuation then runs inside the same
dispatch with unknown extra footprint.

Two segments **commute** (their dispatch order cannot be observed)
when their footprints are disjoint on writes, or every
write-vs-read/write overlap is on an attribute both segments touch
only while holding the same declared lock, and neither escapes.  The
explorer (:mod:`repro.sim.explore`) consumes the relation to prune
redundant interleavings; because an over-approximate footprint only
*conflicts more*, any imprecision here reduces pruning but never lets
a divergent schedule go unexplored.

Segments are keyed the way the runtime sees a parked process —
``(file basename, code qualname, suspension line)``:

* segment 0 (from function entry to the first yield) anchors at the
  line an unstarted generator's frame reports: the first decorator
  line if decorated, else the ``def`` line;
* segment *k* (k >= 1) anchors at the line of the yield it follows.

Attribute names are qualified ``Class.attr`` (or ``file:name`` for
module-level state) so same-named attributes of different classes do
not alias.  Two different files can still produce the same key (same
basename, same class name); colliding segments are merged
conservatively — union of reads/writes, intersection of locks,
``or`` of escapes.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from tools.analysis.engine import read_comments
from tools.trailsan.model import (
    ClassModel, FunctionScan, ModuleModel, Touch, build_module_model)

#: Runtime park key: (file basename, code qualname, suspension line).
SegKey = Tuple[str, str, int]


@dataclass
class Segment:
    """One atomic segment's statically computed footprint."""

    key: SegKey
    #: ``file:Qualname`` of the owning generator function.
    function: str
    #: Segment number within the function (0 = entry segment).
    index: int
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: attr -> declared lock, for attrs locked at *every* touch.
    locks: Dict[str, str] = field(default_factory=dict)
    #: True when the segment may return into a ``yield from`` caller.
    escapes: bool = False

    def merge(self, other: "Segment") -> None:
        """Fold a same-key segment in, conservatively."""
        self.reads |= other.reads
        self.writes |= other.writes
        self.locks = {attr: lock for attr, lock in self.locks.items()
                      if other.locks.get(attr) == lock}
        self.escapes = self.escapes or other.escapes


def _lock_held(lock: str, held: Tuple[str, ...]) -> bool:
    """Annotation lock matches a held lock by last dotted part (the
    same matching rule trailsan's TSN001 applies)."""
    want = lock.split(".")[-1]
    return any(h.split(".")[-1] == want for h in held)


def _entry_anchor(func: ast.FunctionDef) -> int:
    """Line an *unstarted* generator frame reports (co_firstlineno):
    the first decorator's line when decorated, else the ``def`` line."""
    lines = [dec.lineno for dec in func.decorator_list]
    lines.append(func.lineno)
    return min(lines)


def _own_return_lines(func: ast.FunctionDef) -> List[int]:
    """Lines of ``return`` statements belonging to ``func`` itself."""
    lines: List[int] = []
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # returns inside nested functions are theirs
        if isinstance(node, ast.Return):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def _segment_escapes(index: int, total: int, yield_lines: List[int],
                     return_lines: List[int]) -> bool:
    """Source-order approximation of "this segment may return".

    The final segment always escapes (falling off the end returns).
    An earlier segment escapes when a ``return`` statement sits
    between its bounding yields in source order; bounds are inclusive
    so ``return (yield x)`` marks both adjacent segments.  Like the
    segmentation itself this ignores loop back-edges — acceptable
    because a spurious ``escapes`` only costs pruning, never soundness.
    """
    if index == total - 1:
        return True
    low = yield_lines[index - 1] if index > 0 else 0
    high = yield_lines[index]
    return any(low <= line <= high for line in return_lines)


def _function_segments(base: str, func: ast.FunctionDef,
                       model: ModuleModel,
                       cls: Optional[ClassModel]) -> List[Segment]:
    scan = FunctionScan(func, model, cls)
    if cls is not None:
        annotated = set(cls.guarded)
        for attrs in cls.groups.values():
            annotated.update(attrs)
        guarded = cls.guarded
        prefix = cls.name + "."
        qualname = f"{cls.name}.{func.name}"
    else:
        annotated = set(model.module_guarded)
        for names in model.module_groups.values():
            annotated.update(names)
        guarded = model.module_guarded
        prefix = base + ":"
        qualname = func.name

    total = scan.segment + 1
    yield_lines = [yp.node.lineno for yp in scan.yields]
    return_lines = _own_return_lines(func)

    by_segment: Dict[int, List[Touch]] = {}
    for touch in scan.touches:
        if touch.name in annotated:
            by_segment.setdefault(touch.segment, []).append(touch)

    segments: List[Segment] = []
    for index in range(total):
        anchor = (_entry_anchor(func) if index == 0
                  else yield_lines[index - 1])
        seg = Segment(key=(base, qualname, anchor),
                      function=f"{base}:{qualname}", index=index,
                      escapes=_segment_escapes(index, total, yield_lines,
                                               return_lines))
        for touch in by_segment.get(index, ()):
            name = prefix + touch.name
            if touch.write:
                seg.writes.add(name)
            else:
                seg.reads.add(name)
        for attr in sorted({t.name for t in by_segment.get(index, ())}):
            lock = guarded.get(attr)
            if lock is None:
                continue
            if all(_lock_held(lock, t.held)
                   for t in by_segment[index] if t.name == attr):
                seg.locks[prefix + attr] = lock.split(".")[-1]
        segments.append(seg)
    return segments


def delegated_targets(tree: ast.Module) -> Set[str]:
    """Bare names of functions delegated to via ``yield from``.

    A segment's ``escapes`` flag only matters for generators that some
    caller drives with ``yield from`` — only then does the callee's
    return resume the caller *inside the same dispatch*.  A top-level
    process generator's return merely completes its
    :class:`~repro.sim.process.Process`, whose waiters are woken as
    separate ready-queue entries the explorer sees normally.  Matching
    is by bare callee name (``self._helper()``, ``obj.method()``,
    ``helper()`` all resolve), which over-approximates across classes;
    an unresolvable target shape keeps every function delegated.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.YieldFrom):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute):
                names.add(func.attr)
                continue
            if isinstance(func, ast.Name):
                names.add(func.id)
                continue
        names.add("*")  # unresolvable: keep everything delegated
    return names


def refine_escapes(segments: Iterable[Segment],
                   delegated: Set[str]) -> None:
    """Clear ``escapes`` on segments of never-delegated functions.

    ``delegated`` must be the union over *every* analyzed file (a
    generator in one module is driven from another); pass ``{"*"}``
    to keep the fully conservative flags.
    """
    if "*" in delegated:
        return
    for seg in segments:
        bare = seg.function.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
        if bare not in delegated:
            seg.escapes = False


def module_segments(relpath: str, tree: ast.Module,
                    source: str) -> List[Segment]:
    """Footprints for every generator function/method in one file.

    ``escapes`` flags are fully conservative here (any return-bearing
    or final segment); callers with whole-corpus visibility tighten
    them via :func:`delegated_targets` + :func:`refine_escapes`.
    """
    model = build_module_model(tree, read_comments(source))
    base = os.path.basename(relpath)
    segments: List[Segment] = []
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef)
                and node.name in model.generator_functions):
            segments.extend(_function_segments(base, node, model, None))
    for cls in model.classes.values():
        for name in sorted(cls.generator_methods):
            segments.extend(
                _function_segments(base, cls.methods[name], model, cls))
    return segments


def merge_segments(segments: Iterable[Segment]) -> Dict[SegKey, Segment]:
    """Index segments by key, merging collisions conservatively."""
    merged: Dict[SegKey, Segment] = {}
    for seg in segments:
        existing = merged.get(seg.key)
        if existing is None:
            merged[seg.key] = seg
        else:
            existing.merge(seg)
    return merged


def oracle_payload(
        merged: Mapping[SegKey, Segment]) -> Dict[SegKey, Dict[str, object]]:
    """Plain-data form consumed by
    :meth:`repro.sim.explore.IndependenceOracle.from_segments`."""
    return {
        key: {
            "reads": sorted(seg.reads),
            "writes": sorted(seg.writes),
            "locks": dict(seg.locks),
            "escapes": seg.escapes,
        }
        for key, seg in merged.items()
    }


def commutes(a: Segment, b: Segment) -> bool:
    """The same commutativity test the runtime oracle applies."""
    if a.escapes or b.escapes:
        return False
    conflict = ((a.writes & (b.reads | b.writes))
                | (b.writes & (a.reads | a.writes)))
    if not conflict:
        return True
    for attr in conflict:
        lock = a.locks.get(attr)
        if lock is None or b.locks.get(attr) != lock:
            return False
    return True


__all__ = [
    "SegKey", "Segment", "commutes", "delegated_targets",
    "merge_segments", "module_segments", "oracle_payload",
    "refine_escapes",
]
