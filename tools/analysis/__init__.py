"""Shared analyzer runtime for trailint and trailiso.

The two repo-native analyzers differ only in their rules and per-file
models; everything operational is defined once here:

* :class:`~tools.analysis.findings.Finding` — the one diagnostic shape.
* :class:`~tools.analysis.registry.Registry` /
  :class:`~tools.analysis.registry.Rule` — per-tool rule sets.
* :mod:`~tools.analysis.suppressions` — the
  ``# <tool>: disable=CODE -- reason`` grammar and hygiene policing.
* :mod:`~tools.analysis.engine` — walking, parsing, the one
  :func:`~tools.analysis.engine.read_comments` pass every suppression
  and annotation grammar reads, scope matching, and the
  :class:`~tools.analysis.engine.ToolSpec` each tool fills in.
* :mod:`~tools.analysis.driver` — :func:`~tools.analysis.driver.run_all`
  and the one command line, ``python -m tools.analysis``.
* :mod:`~tools.analysis.fixtures` — fixture helpers for the test
  suites.
"""
