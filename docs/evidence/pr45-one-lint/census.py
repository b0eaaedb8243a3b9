"""Suppression census over the commits that carried the grammar.

    python docs/evidence/pr45-one-lint/census.py [FIRST [LAST]]

For each commit from FIRST (default a608e10, PR 29) to LAST (default
c769d2e, the last commit with ``tools/analysis``), ``git grep`` finds
every file of ``src/`` and ``tools/`` with the text
``# <tool>: disable``; each such file is then tokenized, and a match
counts as a suppression only when a comment token matches the old
runtime's grammar (``tools/analysis/suppressions.py`` at c769d2e, for
each of the four tools that had one).  Text matches inside docstrings
or comments that document the grammar are listed but are not
suppressions.
"""

from __future__ import annotations

import io
import re
import subprocess
import sys
import tokenize
from typing import List

PATTERN = r"#[[:space:]]*(trailint|trailiso|trailsan|trailunits):[[:space:]]*disable"
_GRAMMAR = tuple(re.compile(
    rf"#\s*{tool}:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    rf"(?P<codes>{prefix}\d{{3}}(?:\s*,\s*{prefix}\d{{3}})*)"
    rf"(?:\s*--\s*(?P<reason>\S.*?))?\s*$")
    for tool, prefix in (("trailint", "TRL"), ("trailiso", "TIS"),
                         ("trailsan", "TSN"), ("trailunits", "TUN")))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def comment_hits(commit: str, path: str) -> int:
    source = git("show", f"{commit}:{path}")
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(1 for tok in tokens if tok.type == tokenize.COMMENT
               and any(grammar.search(tok.string) for grammar in _GRAMMAR))


def main(argv: List[str]) -> int:
    first = argv[0] if argv else "a608e10"
    last = argv[1] if len(argv) > 1 else "c769d2e"
    commits = git("rev-list", "--reverse", f"{first}~1..{last}").split()
    print(f"{'commit':<8} {'text hits':>9} {'comments':>8}  files with text hits")
    total = 0
    for commit in commits:
        grep = subprocess.run(
            ["git", "grep", "-E", "-c", PATTERN, commit, "--", "src", "tools"],
            capture_output=True, text=True).stdout.split()
        counts = {line.split(":")[1]: int(line.split(":")[2]) for line in grep}
        comments = sum(comment_hits(commit, path) for path in counts)
        total += comments
        print(f"{commit[:7]:<8} {sum(counts.values()):>9} {comments:>8}  "
              + ", ".join(sorted(counts)))
    print(f"{len(commits)} commits, {total} suppression comments in src/ "
          f"and tools/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
