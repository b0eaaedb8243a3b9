"""Repo-wide signature and attribute tables for trailunits.

Built once per run (the ToolSpec ``prepare`` hook) from every parsed
file, so units propagate *through* calls: a call site in
``core/driver.py`` is checked against the dimensions declared on the
callee in ``disk/mechanics.py``.

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


@dataclass
class Param:
    """One parameter's dimension, and whether only its name gave it."""

    name: str
    dim: str = UNKNOWN
    guessed: bool = False


@dataclass
class FuncSig:
    """Dimensions of one function or method signature."""

    qualname: str           # "name" or "Class.name"
    relpath: str
    #: The def node; None for the seeded repro.units helpers.
    node: Optional[ast.AST]
    params: List[Param] = field(default_factory=list)
    ret_dim: str = UNKNOWN
    ret_guessed: bool = False

    def param(self, name: str) -> Optional[Param]:
        for param in self.params:
            if param.name == name:
                return param
        return None


#: The repro.units time helpers, seeded so fixtures analyzed in
#: isolation (without units.py in the walked set) still see them.
_BASE_HELPERS: Tuple[Tuple[str, str, str], ...] = (
    # name, param dim, return dim
    ("seconds", lattice.S, lattice.MS),
    ("milliseconds", lattice.MS, lattice.MS),
    ("microseconds", lattice.US, lattice.MS),
    ("minutes", UNKNOWN, lattice.MS),
    ("to_seconds", lattice.MS, lattice.S),
    ("rpm_to_rotation_ms", lattice.SCALAR, lattice.MS),
)


class Tables:
    """Signatures plus attribute dimensions for one analysis run."""

    def __init__(self) -> None:
        self.functions: Dict[str, List[FuncSig]] = {
            name: [FuncSig(qualname=name, relpath="src/repro/units.py",
                           node=None, params=[Param("value", param_dim)],
                           ret_dim=ret_dim)]
            for name, param_dim, ret_dim in _BASE_HELPERS}
        self.attr_dims: Dict[str, str] = {}

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
        comment_params, comment_ret = (
            _signature_comment(by_line, func) or ({}, UNKNOWN))

        params: List[Param] = []
        args = func.args
        all_args = (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs))
        for index, arg in enumerate(all_args):
            if index == 0 and owner is not None and arg.arg in (
                    "self", "cls"):
                continue
            param = Param(arg.arg, annotation_dim(arg.annotation))
            if param.dim == UNKNOWN:
                param.dim = comment_params.get(arg.arg, UNKNOWN)
            if param.dim == UNKNOWN and is_numeric_annotation(
                    arg.annotation):
                param.dim = heuristic_dim(arg.arg)
                param.guessed = param.dim != UNKNOWN
            params.append(param)

        qual = f"{owner}.{func.name}" if owner else func.name
        sig = FuncSig(qualname=qual, relpath=relpath, node=func,
                      params=params,
                      ret_dim=annotation_dim(func.returns))
        if sig.ret_dim == UNKNOWN:
            sig.ret_dim = comment_ret
        if sig.ret_dim == UNKNOWN and is_numeric_annotation(func.returns):
            sig.ret_dim = heuristic_dim(func.name)
            sig.ret_guessed = sig.ret_dim != UNKNOWN
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
