"""Fixture: a justified suppression of a real finding is not TRL009."""


def last_resort(action) -> object:
    try:
        return action()
    except Exception:  # trailint: disable=TRL004 -- fixture: the caller logs and exits
        return None
