"""Fixture: seconds or microseconds meeting milliseconds unconverted
(TUN004), once in every flow the analysis checks: arithmetic, a
comparison, an annotated assignment, a call argument, a return value
and a converter applied to the wrong scale.
"""

from repro.units import MS_PER_SECOND, Ms, Seconds, Us


def total_latency(budget: Seconds, overhead: Ms) -> Ms:
    return budget + overhead  # expect: TUN004


def overdue(elapsed: Ms, deadline: Seconds) -> bool:
    return elapsed > deadline  # expect: TUN004


def settle(nvram_cost: Us) -> None:
    cost: Ms = nvram_cost  # expect: TUN004


def wait(delay: Ms) -> None:
    raise NotImplementedError


def back_off(pause: Seconds) -> None:
    wait(pause)  # expect: TUN004


def _run_time(timeout_seconds: float) -> Ms:
    return timeout_seconds  # expect: TUN004


def stretch(delay: Ms) -> Ms:
    return delay * MS_PER_SECOND  # expect: TUN004
