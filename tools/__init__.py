"""Repo-native analysis tools.

``tools.analysis`` is the shared runtime and the one command line,
``python -m tools.analysis``, for the four lint passes built on it
(``tools.trailint``, ``tools.trailsan``, ``tools.trailunits``,
``tools.trailiso``).
"""
