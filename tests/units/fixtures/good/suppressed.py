"""Fixture: a justified suppression is clean and counts as used."""

from repro.units import Ms, Seconds


def legacy_timeout(limit: Seconds) -> Ms:
    return limit  # trailunits: disable=TUN004 -- legacy API reports raw seconds; callers convert
