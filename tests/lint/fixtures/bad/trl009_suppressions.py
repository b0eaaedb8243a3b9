"""Fixture: unknown, unused and reason-less suppressions (TRL009)."""

value = 1  # trailint: disable=TRL004 -- nothing here to suppress
other = 2  # trailint: disable=TRL099 -- no such rule


def swallow(action) -> object:
    try:
        return action()
    except Exception:  # trailint: disable=TRL004
        return None
