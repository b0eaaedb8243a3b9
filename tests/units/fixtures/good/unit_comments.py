"""Fixture: ``# unit:`` signature comments seed dims like annotations.

The comment grammar is the annotation escape hatch for signatures
that cannot (or should not) carry ``repro.units`` aliases; the flow
analysis must honor it, including the ``-> scalar`` override for a
misleading name.
"""

from repro.units import seconds


def deadline(start, budget):
    # unit: (start: ms, budget: s) -> ms
    return start + seconds(budget)


def load_ms(busy_ms, window_ms):
    # unit: (busy_ms: ms, window_ms: ms) -> scalar
    return busy_ms / window_ms
