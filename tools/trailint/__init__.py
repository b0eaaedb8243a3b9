"""trailint — repo-native lint for the Trail reproduction.

Two rules hold properties the test suite can only check after the
fact:

* **Error-taxonomy discipline** — no broad/bare ``except`` that
  swallows the ``repro.errors`` hierarchy (TRL004).
* **Log-format discipline** (paper §3.2) — decoded records are
  format-error-handled and CRC-verified on every call path (TRL008).

TRL009 keeps suppressions honest (unknown, unused or reason-less
codes are findings too).  Run it with every other analyzer through
``python -m tools.analysis`` (``make analyzers``).  A finding is
suppressed per line with a trailing
``# trailint: disable=TRL004 -- <why>`` comment, or per file with
``# trailint: disable-file=TRL004 -- <why>`` on a comment line of its
own.
"""

from . import rules as _rules  # noqa: F401  (rule modules populate REGISTRY)
from .engine import SPEC
from .registry import REGISTRY, Rule

__all__ = ["REGISTRY", "Rule", "SPEC"]
