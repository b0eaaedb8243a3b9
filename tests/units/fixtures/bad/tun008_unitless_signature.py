"""Fixture: public signatures whose names advertise a time scale that
nothing declares (TUN008) — exactly the code the flow analysis cannot
check.
"""


def schedule_flush(delay_ms, budget_seconds):  # expect: TUN008
    return delay_ms, budget_seconds


def settle_us():  # expect: TUN008
    return 25.0
