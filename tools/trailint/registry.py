"""trailint's rule registry, hosted on the shared analyzer runtime.

The :class:`~tools.analysis.registry.Rule` base class and
:class:`~tools.analysis.registry.Registry` mechanics live in
:mod:`tools.analysis`; this module pins trailint's ``TRL`` registry
instance.  Rules self-register at import time via
``@REGISTRY.register``; ``tools.trailint.rules`` imports every rule
module so that importing it is enough to populate the registry.
"""

from __future__ import annotations

from tools.analysis.registry import Registry, Rule, dotted_name

__all__ = ["REGISTRY", "Rule", "dotted_name"]

#: The global TRL rule set.
REGISTRY = Registry("TRL")
