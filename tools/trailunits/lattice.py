"""The unit lattice: time dimensions, joins, and the one illegal mix.

Dimensions are interned strings.  ``UNKNOWN`` is the lattice top —
"could be anything, stay silent" — so the analysis only speaks when it
actually knows both sides of an operation.  ``SCALAR`` is a
dimensionless count or ratio; it combines freely with everything.  The
known dimensions are the three time scales: simulated time is
milliseconds everywhere, and seconds and microseconds may meet it only
through a converter.
"""

from __future__ import annotations

import ast
import re
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

MS = "ms"
S = "s"
US = "us"
SCALAR = "scalar"
UNKNOWN = "unknown"

#: The time scales: the only dimensions the analysis reasons about.
TIME_FAMILY: FrozenSet[str] = frozenset({MS, S, US})

#: Every dimension the ``# unit:`` comment grammar may name.
ALL_DIMS: FrozenSet[str] = frozenset({MS, S, US, SCALAR})


def is_known(dim: str) -> bool:
    return dim in TIME_FAMILY


def join(a: str, b: str) -> str:
    """Least upper bound used when control-flow branches merge."""
    if a == b:
        return a
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    if a == SCALAR:
        return b
    if b == SCALAR:
        return a
    return UNKNOWN


def time_mix(value: str, target: str) -> bool:
    """True when ``value`` flowing into ``target`` mixes two time
    scales (ms with s, ms with us, ...) without a converter."""
    return value != target and is_known(value) and is_known(target)


#: Converter constants: name → (source dim, Mult result, Div result).
#: ``x * MS_PER_SECOND`` turns seconds into ms; ``x / MS_PER_SECOND``
#: turns ms into seconds.
_CONVERTERS: Mapping[str, Tuple[str, str, str]] = MappingProxyType({
    "ms_per_second": (S, MS, S),
    "us_per_ms": (MS, US, MS),
})


def converter_for(name: str) -> Optional[Tuple[str, str, str]]:
    """(mul-source, mul-result, div-result) for a converter name."""
    return _CONVERTERS.get(name.lstrip("_").lower())


#: Name-suffix heuristics, applied only when no annotation, comment or
#: inferred binding gives a dimension.  Every entry is an idiom this
#: codebase already uses consistently.
_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_ms", MS),
    ("_us", US),
    ("_seconds", S),
    ("_secs", S),
)


def heuristic_dim(name: str) -> str:
    """Best-effort time dimension for a bare name; UNKNOWN when unsure."""
    bare = name.lstrip("_").rstrip("0123456789").lower()
    if "_per_" in bare:
        return UNKNOWN          # ratios carry compound dimensions
    if bare == "ms":
        return MS
    for suffix, dim in _SUFFIXES:
        if bare.endswith(suffix):
            return dim
    return UNKNOWN


#: ``repro.units`` alias name → dimension, for annotation parsing.
_ALIAS_DIMS: Mapping[str, str] = MappingProxyType({
    "Ms": MS,
    "Seconds": S,
    "Us": US,
})

_WRAPPERS = frozenset({"Optional", "Final", "ClassVar"})


def _unwrap(node: Optional[ast.AST]) -> Optional[ast.AST]:
    """Strip ``Optional``/``Final``/``ClassVar`` and string quoting off
    an annotation; None when a string annotation does not parse."""
    while True:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        elif isinstance(node, ast.Subscript) and (
                getattr(node.value, "id", None) in _WRAPPERS
                or getattr(node.value, "attr", None) in _WRAPPERS):
            node = node.slice
        else:
            return node


def annotation_dim(node: Optional[ast.AST]) -> str:
    """Dimension declared by a type annotation, or UNKNOWN.

    Recognizes the ``repro.units`` time aliases by name (``Ms``,
    ``units.Seconds``, ...) under any wrapper :func:`_unwrap` strips.
    """
    node = _unwrap(node)
    if isinstance(node, ast.Name):
        return _ALIAS_DIMS.get(node.id, UNKNOWN)
    if isinstance(node, ast.Attribute):
        return _ALIAS_DIMS.get(node.attr, UNKNOWN)
    return UNKNOWN


def is_numeric_annotation(node: Optional[ast.AST]) -> bool:
    """True when an annotation is absent or names a plain number.

    Name heuristics only make sense for quantities: ``delay_ms: float``
    deserves a guessed dimension, ``deadlines_ms: List[float]`` does
    not.
    """
    if node is None:
        return True
    node = _unwrap(node)
    return isinstance(node, ast.Name) and node.id in ("int", "float")


#: ``# unit: (name: dim, ...) -> dim`` signature comments, for code
#: where a full annotation is unwanted (generators, private helpers).
UNIT_COMMENT_RE = re.compile(
    r"#\s*unit:\s*\((?P<params>[^)]*)\)\s*(?:->\s*(?P<ret>\w+))?")

_PARAM_RE = re.compile(r"(?P<name>\w+)\s*:\s*(?P<dim>\w+)")


def parse_unit_comment(text: str) -> Optional[
        Tuple[Dict[str, str], str]]:
    """Parse one ``# unit:`` comment into (param dims, return dim).

    Unknown dimension words parse as UNKNOWN rather than erroring.
    """
    match = UNIT_COMMENT_RE.search(text)
    if match is None:
        return None
    params: Dict[str, str] = {}
    for piece in _PARAM_RE.finditer(match.group("params")):
        dim = piece.group("dim").lower()
        params[piece.group("name")] = dim if dim in ALL_DIMS else UNKNOWN
    ret = (match.group("ret") or "").lower()
    return params, ret if ret in ALL_DIMS else UNKNOWN
