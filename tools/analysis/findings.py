"""The one :class:`Finding` shape every analyzer reports.

``render`` is the human report's line and ``as_dict`` the ``--json``
report's entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}
