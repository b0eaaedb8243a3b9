"""Repo-native analysis tools.

``tools.analysis`` is the shared runtime and the one command line,
``python -m tools.analysis``, for the three lint passes built on it
(``tools.trailint``, ``tools.trailunits``, ``tools.trailiso``).
"""
