"""Print every (tree, tool) where two ``replay.py run`` outputs differ.

    python diff.py BEFORE.json AFTER.json

``replay.py compare`` only says *that* a tree differs; this lists the
``(path, line, code)`` findings each side has alone and both sides'
suppressed counts, so a difference can be traced to one rule code.
"""

import json
import sys


def main(before: str, after: str) -> int:
    old_trees = json.load(open(before, encoding="utf-8"))["trees"]
    new_trees = json.load(open(after, encoding="utf-8"))["trees"]
    codes = set()
    for old, new in zip(old_trees, new_trees):
        for tool, row in old["tools"].items():
            other = new["tools"][tool]
            mine = {tuple(f) for f in row["findings"]}
            theirs = {tuple(f) for f in other["findings"]}
            if mine == theirs and row["suppressed"] == other["suppressed"]:
                continue
            codes |= {f[2] for f in mine ^ theirs}
            print(f"{old['tree'][:40]:<40} {tool}: "
                  f"before only {sorted(mine - theirs)}, "
                  f"after only {sorted(theirs - mine)}, "
                  f"suppressed {row['suppressed']} -> {other['suppressed']}")
    print("codes that differ anywhere: " + (", ".join(sorted(codes))
                                            or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
