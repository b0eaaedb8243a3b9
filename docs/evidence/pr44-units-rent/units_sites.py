"""Where did trailunits compare two time scales, and which gate runs there?

    python units_sites.py dump TREE OUT.json
    python units_sites.py table SITES.json BENCH.json TIER1.json

``dump`` runs the default-scope analyzer sweep (``make analyzers``) of
TREE, a checkout that still has ``tools/trailunits``, with
``FunctionFlow._check_flow`` and ``FunctionFlow._check_arg`` wrapped.
Every call whose two dimensions are both time scales (``ms``, ``s``,
``us``) is a *site*: a place where a mix would have been reported.
A site is recorded with the function it sits in and that function's
qualified name, keyed the way ``docs/evidence/pr28-census/census.py``
keys a reached frame:
``(file under src/, first line including decorators, name)``.
``_check_arg`` counts when the argument and at least one candidate
parameter are time scales.

``table`` joins the sites with two census outputs (``census.py
pytest OUT ...`` over ``benchmarks/`` and over tier-1, both run on
TREE) and prints one row per function: its sites, whether ``make
bench`` enters it, and whether tier-1 does.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from typing import Dict, List, Tuple

Key = Tuple[str, int, str]


def _src_rel(path: str) -> str:
    """``repro/...`` for a path anywhere under a ``src`` directory."""
    marker = f"{os.sep}src{os.sep}"
    return path[path.rindex(marker) + len(marker):] if marker in path \
        else path


def cmd_dump(tree: str, out: str) -> int:
    tree = os.path.abspath(tree)
    sys.path.insert(0, tree)
    from tools.analysis.driver import run_all
    from tools.trailunits import UnitsContext
    from tools.trailunits.infer import FunctionFlow
    from tools.trailunits.lattice import TIME_FAMILY

    sites: List[Dict[str, object]] = []
    current: Dict[str, object] = {"path": "", "qualnames": {}}

    def qualnames(tree):
        names = {}

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    names[id(child)] = prefix + child.name
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)
        walk(tree, "")
        return names

    def record(flow, node, value, targets, kind):
        func = flow.func
        first = min([func.lineno] + [d.lineno for d in func.decorator_list])
        sites.append({
            "file": current["path"], "first": first, "name": func.name,
            "qualname": current["qualnames"][id(func)],
            "line": getattr(node, "lineno", func.lineno), "kind": kind,
            "value": value, "targets": sorted(set(targets)),
            "mix": any(value != target for target in targets)})

    real_issues = UnitsContext.issues
    real_flow = FunctionFlow._check_flow
    real_arg = FunctionFlow._check_arg

    def issues(ctx):
        current["path"] = ctx.path
        current["qualnames"] = qualnames(ctx.tree)
        return real_issues(ctx)

    def check_flow(self, value_dim, target_dim, node, detail):
        if value_dim in TIME_FAMILY and target_dim in TIME_FAMILY:
            record(self, node, value_dim, [target_dim], "flow")
        return real_flow(self, value_dim, target_dim, node, detail)

    def check_arg(self, name, candidates, arg_node, arg_dim, where):
        targets = []
        for sig in candidates:
            param = sig.param(where) if isinstance(where, str) else (
                sig.params[where] if where < len(sig.params) else None)
            if param is not None and param.dim in TIME_FAMILY:
                targets.append(param.dim)
        if arg_dim in TIME_FAMILY and targets:
            record(self, arg_node, arg_dim, targets, f"arg of {name}()")
        return real_arg(self, name, candidates, arg_node, arg_dim, where)

    UnitsContext.issues = issues
    FunctionFlow._check_flow = check_flow
    FunctionFlow._check_arg = check_arg
    report = run_all(root=tree)
    run = report.tool("trailunits")
    sites.sort(key=lambda s: (s["file"], s["line"], s["kind"]))
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(f'{{"trailunits_findings": {len(run.findings)}, '
                     f'"sites": [\n')
        handle.write(",\n".join(json.dumps(site) for site in sites))
        handle.write("\n]}\n")
    functions = {(s["file"], s["first"], s["name"]) for s in sites}
    print(f"{len(sites)} sites in {len(functions)} functions, "
          f"{sum(bool(s['mix']) for s in sites)} mixes, "
          f"{len(run.findings)} trailunits findings")
    return 0


def _reached(path: str) -> set:
    with open(path, encoding="utf-8") as handle:
        return {(_src_rel(file), first, name)
                for file, first, name in json.load(handle)["reached"]}


def cmd_table(sites_path: str, bench_path: str, tier1_path: str) -> int:
    with open(sites_path, encoding="utf-8") as handle:
        sites = json.load(handle)["sites"]
    bench, tier1 = _reached(bench_path), _reached(tier1_path)
    per_function: Dict[Key, int] = {}
    qualname: Dict[Key, str] = {}
    for site in sites:
        key = (_src_rel(site["file"]), site["first"], site["name"])
        per_function[key] = per_function.get(key, 0) + 1
        qualname[key] = site["qualname"]
    print("| function | sites | bench | tier-1 |")
    print("|---|---|---|---|")
    for key in sorted(per_function):
        file, first, _name = key
        print(f"| `{file}:{first}` `{qualname[key]}` | "
              f"{per_function[key]} | "
              f"{'yes' if key in bench else 'no'} | "
              f"{'yes' if key in tier1 else 'no'} |")
    keys = set(per_function)
    print(f"\n{sum(per_function.values())} sites in {len(keys)} functions;"
          f" bench reaches {len(keys & bench)}, tier-1 {len(keys & tier1)},"
          f" tier-1 but not bench {len((keys & tier1) - bench)},"
          f" neither {len(keys - bench - tier1)}")
    return 0


def main(argv: List[str]) -> int:
    if len(argv) == 3 and argv[0] == "dump":
        return cmd_dump(argv[1], argv[2])
    if len(argv) == 4 and argv[0] == "table":
        return cmd_table(argv[1], argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
