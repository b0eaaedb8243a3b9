"""Flow-sensitive time-dimension inference over one function body.

A small abstract interpreter: the abstract value of every expression
is a dimension from :mod:`tools.trailunits.lattice`, environments map
local names to dimensions, and control-flow joins merge environments
with the lattice join.  The interpreter is deliberately optimistic —
``UNKNOWN`` absorbs everything silently — so every issue it emits is
backed by two *known* time scales meeting without a converter.

Issues are collected as data (dimensions + location) and rendered as
TUN004 findings by :mod:`tools.trailunits.rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import reduce
from typing import (
    Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union)

from tools.trailunits import lattice
from tools.trailunits.lattice import (
    SCALAR, UNKNOWN, converter_for, heuristic_dim, is_known, join,
    time_mix)
from tools.trailunits.sigs import FuncSig, Tables

_PROPAGATING_BUILTINS = frozenset({"int", "float", "abs", "min", "max",
                                   "round"})


@dataclass
class Issue:
    """One time-scale conflict, before rule mapping."""

    node: ast.AST
    value_dim: str
    target_dim: str
    detail: str


def _callable_name(func: ast.AST) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _converter_operand(node: ast.AST) -> Optional[Tuple[str, str, str]]:
    """Converter triple when ``node`` names a conversion constant."""
    name = _callable_name(node)
    return converter_for(name) if name else None


class FunctionFlow:
    """Interprets one function body, accumulating issues."""

    def __init__(self, func: ast.AST, sig: Optional[FuncSig],
                 tables: Tables, issues: List[Issue]) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        self.func = func
        self.sig = sig
        self.tables = tables
        self.issues = issues
        self.env: Dict[str, str] = {}
        self.declared: Dict[str, str] = {}
        if sig is not None:
            for param in sig.params:
                if param.dim != UNKNOWN:
                    self.env[param.name] = param.dim
                    self.declared[param.name] = param.dim

    # -- driver -------------------------------------------------------

    def run(self) -> None:
        self._block(self.func.body)

    def _check_flow(self, value_dim: str, target_dim: str, node: ast.AST,
                    detail: str) -> None:
        if time_mix(value_dim, target_dim):
            self.issues.append(Issue(node, value_dim, target_dim, detail))

    # -- statements ---------------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value_dim = self._expr(stmt.value)
            for target in stmt.targets:
                self._assign(target, value_dim, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            declared = lattice.annotation_dim(stmt.annotation)
            value_dim = UNKNOWN
            if stmt.value is not None:
                value_dim = self._expr(stmt.value)
                self._check_flow(value_dim, declared, stmt,
                                 self._target_text(stmt.target))
            if isinstance(stmt.target, ast.Name):
                dim = declared if declared != UNKNOWN else value_dim
                self.env[stmt.target.id] = dim
                if declared != UNKNOWN:
                    self.declared[stmt.target.id] = declared
        elif isinstance(stmt, ast.AugAssign):
            target_dim = self._target_dim(stmt.target)
            value_dim = self._expr(stmt.value)
            result = self._binop_dims(target_dim, stmt.op, value_dim,
                                      stmt)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = result
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value_dim = self._expr(stmt.value)
                if self.sig is not None:
                    self._check_flow(
                        value_dim, self.sig.ret_dim, stmt,
                        f"return value of '{self.func.name}'")
        elif isinstance(stmt, (ast.Expr, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                self._expr(child)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self._branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self._branches([stmt.body, []])
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            handler_blocks = [handler.body for handler in stmt.handlers]
            self._branches(handler_blocks + [stmt.orelse])
            self._block(stmt.finalbody)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Nested defs/classes are analyzed as their own functions;
        # import/global/pass need nothing.

    def _branches(self, blocks: Sequence[Sequence[ast.stmt]]) -> None:
        """Run each block on a copy of the env, then join the copies."""
        base = dict(self.env)
        outcomes: List[Dict[str, str]] = []
        for block in blocks:
            self.env = dict(base)
            self._block(block)
            outcomes.append(self.env)
        merged = dict(base)
        for outcome in outcomes:
            for name, dim in outcome.items():
                merged[name] = join(merged[name], dim) \
                    if name in merged else dim
        self.env = merged

    def _for(self, stmt: ast.stmt) -> None:
        assert isinstance(stmt, (ast.For, ast.AsyncFor))
        iter_dim = UNKNOWN
        if (isinstance(stmt.iter, ast.Call)
                and _callable_name(stmt.iter.func) == "range"):
            iter_dim = reduce(join, [self._expr(arg)
                                     for arg in stmt.iter.args], SCALAR)
        else:
            self._expr(stmt.iter)
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = iter_dim
        self._branches([stmt.body, []])
        self._block(stmt.orelse)

    # -- assignment ---------------------------------------------------

    def _target_text(self, target: ast.AST) -> str:
        if isinstance(target, ast.Name):
            return f"'{target.id}'"
        if isinstance(target, ast.Attribute):
            return f"'.{target.attr}'"
        return "assignment target"

    def _target_dim(self, target: ast.AST) -> str:
        if isinstance(target, ast.Name):
            if target.id in self.declared:
                return self.declared[target.id]
            if target.id in self.env:
                return self.env[target.id]
            return heuristic_dim(target.id)
        if isinstance(target, ast.Attribute):
            return self.tables.attr_dim(target.attr)
        return UNKNOWN

    def _assign(self, target: ast.AST, value_dim: str,
                stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            declared = self.declared.get(
                target.id, heuristic_dim(target.id))
            if declared != UNKNOWN:
                self._check_flow(value_dim, declared, stmt,
                                 self._target_text(target))
                self.env[target.id] = declared
            else:
                self.env[target.id] = value_dim
        elif isinstance(target, ast.Attribute):
            self._check_flow(value_dim, self.tables.attr_dim(target.attr),
                             stmt, self._target_text(target))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, UNKNOWN, stmt)
        elif isinstance(target, ast.Subscript):
            self._expr(target.value)
            self._expr(target.slice)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, UNKNOWN, stmt)

    # -- expressions --------------------------------------------------

    def _expr(self, node: Optional[ast.AST]) -> str:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Constant):
            number = not isinstance(node.value, bool) and isinstance(
                node.value, (int, float))
            return SCALAR if number else UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return heuristic_dim(node.id)
        if isinstance(node, ast.Attribute):
            self._expr(node.value)
            if _converter_operand(node) is not None:
                return UNKNOWN
            return self.tables.attr_dim(node.attr)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.BoolOp):
            return reduce(join, [self._expr(value)
                                 for value in node.values])
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            return join(self._expr(node.body), self._expr(node.orelse))
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.UnaryOp):
            dim = self._expr(node.operand)
            return UNKNOWN if isinstance(node.op, ast.Not) else dim
        if isinstance(node, ast.NamedExpr):
            dim = self._expr(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = dim
            return dim
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        # Containers, subscripts, comprehensions, f-strings, yields:
        # visit children for their side-effect checks, no dimension.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
        return UNKNOWN

    # -- operators ----------------------------------------------------

    def _binop(self, node: ast.BinOp) -> str:
        op = node.op
        left_conv = _converter_operand(node.left)
        right_conv = _converter_operand(node.right)
        if right_conv is not None and left_conv is None:
            other = self._expr(node.left)
            return self._apply_converter(other, op, right_conv, node)
        if left_conv is not None and right_conv is None:
            if isinstance(op, ast.Mult):
                other = self._expr(node.right)
                return self._apply_converter(other, op, left_conv, node)
            return UNKNOWN
        left = self._expr(node.left)
        right = self._expr(node.right)
        return self._binop_dims(left, op, right, node)

    def _apply_converter(self, other: str, op: ast.operator,
                         conv: Tuple[str, str, str],
                         node: ast.AST) -> str:
        source, mul_result, div_result = conv
        if isinstance(op, ast.Mult):
            expected, result = source, mul_result
        elif isinstance(op, (ast.Div, ast.FloorDiv, ast.Mod)):
            expected, result = mul_result, (
                mul_result if isinstance(op, ast.Mod) else div_result)
        else:
            return UNKNOWN
        self._check_flow(other, expected, node,
                         "conversion applied to the wrong dimension")
        return result

    def _binop_dims(self, left: str, op: ast.operator, right: str,
                    node: ast.AST) -> str:
        if isinstance(op, (ast.Add, ast.Sub)):
            return self._additive(left, right, node)
        if isinstance(op, ast.Mult):
            # Only a literal SCALAR preserves the other operand's
            # dimension.  UNKNOWN factors are usually coefficients with
            # their own hidden dimension (ms-per-cylinder seek curves)
            # — the product is anyone's guess.
            if left == SCALAR:
                return right
            if right == SCALAR:
                return left
            return UNKNOWN      # compound dimension, untracked
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if right == SCALAR:
                return left
            if left == right and is_known(left):
                return SCALAR   # ratio of same dimension
            return UNKNOWN
        if isinstance(op, ast.Mod):
            if right in (SCALAR, UNKNOWN) or left == right:
                return left
            return UNKNOWN
        return UNKNOWN

    def _additive(self, left: str, right: str, node: ast.AST) -> str:
        if left == UNKNOWN:
            return right if right != SCALAR else UNKNOWN
        if right == UNKNOWN:
            return left if left != SCALAR else UNKNOWN
        if left == SCALAR:
            return right
        if right == SCALAR or left == right:
            return left
        self._check_flow(left, right, node, "operands of '+'/'-' disagree")
        return UNKNOWN

    def _compare(self, node: ast.Compare) -> str:
        previous = self._expr(node.left)
        for op, comparator in zip(node.ops, node.comparators):
            current = self._expr(comparator)
            if not isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)):
                self._check_flow(previous, current, node,
                                 "comparison operands disagree")
            previous = current
        return UNKNOWN

    # -- calls --------------------------------------------------------

    def _call(self, node: ast.Call) -> str:
        name = _callable_name(node.func)
        if isinstance(node.func, ast.Attribute):
            self._expr(node.func.value)

        arg_dims = [self._expr(arg) for arg in node.args]
        kwarg_dims = {kw.arg: self._expr(kw.value)
                      for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self._expr(kw.value)

        if name in _PROPAGATING_BUILTINS:
            return reduce(join, arg_dims, SCALAR)
        if not name:
            return UNKNOWN

        candidates = self.tables.candidates(name)
        if not candidates:
            return heuristic_dim(name)
        for index, arg_node in enumerate(node.args):
            if not isinstance(arg_node, ast.Starred):
                self._check_arg(name, candidates, arg_node,
                                arg_dims[index], index)
        for kw in node.keywords:
            if kw.arg is not None:
                self._check_arg(name, candidates, kw.value,
                                kwarg_dims[kw.arg], kw.arg)
        # The candidates' one declared return scale, if they agree.
        known = {sig.ret_dim for sig in candidates} - {UNKNOWN}
        return known.pop() if len(known) == 1 else UNKNOWN

    def _check_arg(self, name: str, candidates: List[FuncSig],
                   arg_node: ast.AST, arg_dim: str,
                   where: Union[int, str]) -> None:
        """Report an argument only when every candidate signature that
        accepts it (by position or keyword) declares another scale."""
        targets: List[str] = []
        mixes: Set[bool] = set()
        for sig in candidates:
            if isinstance(where, str):
                param = sig.param(where)
            else:
                param = sig.params[where] if where < len(sig.params) \
                    else None
            if param is not None:
                targets.append(param.dim)
                mixes.add(time_mix(arg_dim, param.dim))
        if mixes != {True}:
            return
        first = candidates[0].params
        label = where if isinstance(where, str) else (
            first[where].name if where < len(first) else "?")
        self.issues.append(Issue(arg_node, arg_dim, targets[0],
                                 f"argument '{label}' of {name}()"))


def analyze_functions(tree: ast.Module, tables: Tables) -> List[Issue]:
    """Run the flow analysis over every function in one module."""
    issues: List[Issue] = []
    for func in _functions(tree.body):
        sig = next((sig for sig in tables.candidates(func.name)
                    if sig.node is func), None)
        FunctionFlow(func, sig, tables, issues).run()
    return issues


def _functions(body: Sequence[ast.stmt]) -> Iterator[
        Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """Every function of a module or class body, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            yield from _functions(node.body)
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body)

