"""Fixture: time-correct code the analyzer must stay quiet on.

Every legal idiom the rule must not misfire on: the ``repro.units``
converters, ``MS_PER_SECOND``/``US_PER_MS`` arithmetic in both
directions, a ratio of two times scaling a third, and scalars mixing
freely with every scale.
"""

from repro.units import (
    MS_PER_SECOND, US_PER_MS, Ms, Seconds, Us, microseconds, seconds,
    to_seconds)


def timeout_ms(budget: Seconds) -> Ms:
    return seconds(budget)


def report_seconds(elapsed: Ms) -> Seconds:
    return to_seconds(elapsed)


def nvram_cost(cost: Us) -> Ms:
    return microseconds(cost)


def by_hand(budget: Seconds, cost: Us) -> Ms:
    return budget * MS_PER_SECOND + cost / US_PER_MS


def share(part: Ms, whole: Ms, window: Ms) -> Ms:
    return part / whole * window


def doubled(delay: Ms) -> Ms:
    return 2 * delay + 1.5
