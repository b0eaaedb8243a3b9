"""Fixture: every way a trailunits suppression can go wrong (TUN000).

In order: a *used* suppression with no ``-- reason``; an unused
suppression (nothing fires on its line); and a suppression naming a
rule code that does not exist.
"""

from repro.units import Ms, Seconds


def quota_ms(limit: Seconds) -> Ms:
    return limit  # trailunits: disable=TUN004


def quota_seconds(limit: Seconds) -> Seconds:
    return limit  # trailunits: disable=TUN004 -- nothing fires here


def quota_typo(limit: Seconds) -> Seconds:
    return limit  # trailunits: disable=TUN999 -- no such rule
