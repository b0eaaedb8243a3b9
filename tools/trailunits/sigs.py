"""Repo-wide signature and attribute tables for trailunits.

Built once per run (the ToolSpec ``prepare`` hook) from every parsed
file, so units propagate *through* calls: a call site in
``core/driver.py`` is checked against the dimensions declared on the
callee in ``disk/geometry.py``.

Lookups are by bare name (module-level functions) or method name, so a
name defined with different dimensions in several classes yields
several candidate signatures.  Call-site checks only fire when every
candidate agrees the argument is wrong — imprecise but quiet, which is
the right trade for a linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from tools.analysis.engine import Comments
from tools.trailunits import lattice
from tools.trailunits.lattice import (
    UNKNOWN, annotation_dim, heuristic_dim, is_numeric_annotation,
    join, parse_unit_comment)

#: How a dimension was established, strongest first.
ANNOTATION = "annotation"
COMMENT = "comment"
HEURISTIC = "heuristic"
NONE = "none"


@dataclass
class Param:
    """One parameter's dimension and where it came from."""

    name: str
    dim: str = UNKNOWN
    how: str = NONE


@dataclass
class FuncSig:
    """Dimensions of one function or method signature."""

    qualname: str           # "name" or "Class.name"
    relpath: str
    lineno: int
    params: List[Param] = field(default_factory=list)
    ret_dim: str = UNKNOWN
    ret_how: str = NONE
    is_method: bool = False
    #: True for the repro.units converter helpers, which legitimately
    #: take raw literals (``seconds(2)`` is the idiom, not a smell).
    is_converter: bool = False

    def param(self, name: str) -> Optional[Param]:
        for param in self.params:
            if param.name == name:
                return param
        return None


#: The repro.units helpers, seeded so fixtures analyzed in isolation
#: (without units.py in the walked set) still see the converters.
_BASE_HELPERS: Tuple[Tuple[str, str, str], ...] = (
    # name, param dim, return dim
    ("seconds", lattice.S, lattice.MS),
    ("milliseconds", lattice.MS, lattice.MS),
    ("microseconds", lattice.US, lattice.MS),
    ("minutes", UNKNOWN, lattice.MS),
    ("to_seconds", lattice.MS, lattice.S),
    ("KiB", lattice.SCALAR, lattice.BYTES),
    ("MiB", lattice.SCALAR, lattice.BYTES),
    ("GiB", lattice.SCALAR, lattice.BYTES),
    ("rpm_to_rotation_ms", lattice.SCALAR, lattice.MS),
)


def _base_sigs() -> Dict[str, List[FuncSig]]:
    sigs: Dict[str, List[FuncSig]] = {}
    for name, param_dim, ret_dim in _BASE_HELPERS:
        sigs[name] = [FuncSig(
            qualname=name, relpath="src/repro/units.py", lineno=0,
            params=[Param("value", param_dim, ANNOTATION)],
            ret_dim=ret_dim, ret_how=ANNOTATION, is_converter=True)]
    # NewType wrappers: accept their own space (or the generic lba);
    # wrapping the *other* space is exactly the TUN005/TUN006 bug.
    for name, dim in (("LogLba", lattice.LOG_LBA),
                      ("DataLba", lattice.DATA_LBA)):
        sigs[name] = [FuncSig(
            qualname=name, relpath="src/repro/units.py", lineno=0,
            params=[Param("value", dim, ANNOTATION)],
            ret_dim=dim, ret_how=ANNOTATION, is_converter=True)]
    sigs["sectors_for"] = [FuncSig(
        qualname="sectors_for", relpath="src/repro/units.py", lineno=0,
        params=[Param("nbytes", lattice.BYTES, ANNOTATION),
                Param("sector_size", UNKNOWN, NONE)],
        ret_dim=lattice.SECTORS, ret_how=ANNOTATION,
        is_converter=True)]
    return sigs


class Tables:
    """Signatures plus attribute dimensions for one analysis run."""

    def __init__(self) -> None:
        self.functions: Dict[str, List[FuncSig]] = _base_sigs()
        self.attr_dims: Dict[str, str] = {}
        self._attr_sources: Dict[str, str] = {}

    # -- construction -------------------------------------------------

    def add_file(self, relpath: str, comments: Comments,
                 tree: ast.Module) -> None:
        by_line = dict(comments)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_func(relpath, by_line, node, owner=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(relpath, by_line, node)

    def _add_class(self, relpath: str, by_line: Dict[int, str],
                   cls: ast.ClassDef) -> None:
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                self._record_attr(stmt.target.id,
                                  annotation_dim(stmt.annotation))
            elif isinstance(stmt, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                self._add_func(relpath, by_line, stmt, owner=cls.name)
                self._collect_self_attrs(stmt)

    def _collect_self_attrs(self, func: ast.AST) -> None:
        for node in ast.walk(func):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"):
                self._record_attr(node.target.attr,
                                  annotation_dim(node.annotation))

    def _record_attr(self, name: str, dim: str) -> None:
        if dim == UNKNOWN:
            return
        if name in self.attr_dims:
            self.attr_dims[name] = join(self.attr_dims[name], dim)
        else:
            self.attr_dims[name] = dim

    def _add_func(self, relpath: str, by_line: Dict[int, str],
                  func: ast.AST, owner: Optional[str]) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        comment = _signature_comment(by_line, func)
        comment_params: Dict[str, str] = {}
        comment_ret = UNKNOWN
        if comment is not None:
            comment_params, comment_ret = comment

        params: List[Param] = []
        args = func.args
        all_args = (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs))
        for index, arg in enumerate(all_args):
            if index == 0 and owner is not None and arg.arg in (
                    "self", "cls"):
                continue
            dim = annotation_dim(arg.annotation)
            how = ANNOTATION if dim != UNKNOWN else NONE
            if dim == UNKNOWN and arg.arg in comment_params:
                dim, how = comment_params[arg.arg], COMMENT
            if dim == UNKNOWN and is_numeric_annotation(arg.annotation):
                dim = heuristic_dim(arg.arg)
                how = HEURISTIC if dim != UNKNOWN else NONE
            params.append(Param(arg.arg, dim, how))

        ret_dim = annotation_dim(func.returns)
        ret_how = ANNOTATION if ret_dim != UNKNOWN else NONE
        if ret_dim == UNKNOWN and comment_ret != UNKNOWN:
            ret_dim, ret_how = comment_ret, COMMENT
        if ret_dim == UNKNOWN and is_numeric_annotation(func.returns):
            ret_dim = heuristic_dim(func.name)
            ret_how = HEURISTIC if ret_dim != UNKNOWN else NONE

        qual = f"{owner}.{func.name}" if owner else func.name
        sig = FuncSig(qualname=qual, relpath=relpath,
                      lineno=func.lineno, params=params,
                      ret_dim=ret_dim, ret_how=ret_how,
                      is_method=owner is not None)
        self.functions.setdefault(func.name, []).append(sig)

    # -- lookup -------------------------------------------------------

    def candidates(self, name: str) -> List[FuncSig]:
        return self.functions.get(name, [])

    def attr_dim(self, name: str) -> str:
        dim = self.attr_dims.get(name, UNKNOWN)
        if dim != UNKNOWN:
            return dim
        return heuristic_dim(name)


def _signature_comment(by_line: Dict[int, str], func: ast.AST,
                       ) -> Optional[Tuple[Dict[str, str], str]]:
    """``# unit:`` comment on the def line(s) or the line above.

    ``by_line`` maps a line to its comment token, so a ``# unit:``
    inside a string literal (a default value, say) is not read.
    """
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    last = func.body[0].lineno - 1 if func.body else func.lineno
    for line in range(func.lineno - 1, last + 1):
        text = by_line.get(line)
        parsed = parse_unit_comment(text) if text is not None else None
        if parsed is not None:
            return parsed
    return None
