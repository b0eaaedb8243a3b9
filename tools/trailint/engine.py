"""trailint's binding to the shared analyzer runtime."""

from __future__ import annotations

from tools.analysis.engine import ToolSpec

from .registry import REGISTRY

__all__ = ["SPEC", "TrailintSpec"]


class TrailintSpec(ToolSpec):
    """trailint: error-taxonomy and log-format lint."""

    name = "trailint"
    prefix = "TRL"
    error_code = "TRL000"
    hygiene_code = "TRL009"
    extra_known_codes = ("TRL000",)
    paths = ("src", "tests", "tools")
    registry = REGISTRY

    def load_rules(self) -> None:
        from . import rules  # noqa: F401  (populates the registry)


SPEC = TrailintSpec()
