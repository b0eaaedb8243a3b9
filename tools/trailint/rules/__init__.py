"""Rule modules self-register on import; import them all here."""

from . import errors, format, general

__all__ = ["errors", "format", "general"]
