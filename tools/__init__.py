"""Repo-native analysis tools.

``tools.lint`` is the repo's one lint pass and its command line,
``python -m tools.lint`` (``make analyzers``).
"""
