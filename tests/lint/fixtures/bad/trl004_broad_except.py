"""Fixture: broad except swallowing the error taxonomy (TRL004)."""


def swallow(action) -> object:
    try:
        return action()
    except Exception:  # expect: TRL004
        return None


def swallow_bare(action) -> object:
    try:
        return action()
    except:  # noqa: E722  # expect: TRL004
        return None
