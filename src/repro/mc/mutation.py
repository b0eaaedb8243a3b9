"""Seeded mutations: reintroduced bugs the checker must catch.

A model checker that never fails is indistinguishable from one that
never looks.  Each mutation here surgically reintroduces a historical
concurrency bug as a reversible monkeypatch; ``repro mc --mutate``
runs a scenario under the mutation and *expects* the explorer to
flag it, failing the build if the bug sails through.

``tail-chain-tear`` recreates the PR 4 era bug the ``tail-chain``
atomic group was annotated for: the driver published a record into
``_live_records`` in a different atomic segment than the
``_last_record_lba`` chain link, so a context switch between the two
saw a live tail whose chain didn't include it — recovery scanning
that snapshot would drop an acknowledged write.  The mutated
``_emit_record`` publishes the record *before* the platter write
(whose yield is a context switch), which the sanitizer's tail-chain
transition check catches on every schedule.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Callable, Deque, Generator, Iterator, List, Mapping, Tuple

from repro.core.buffer import LiveRecord
from repro.core.driver import TrailDriver
from repro.units import LogLba


@contextmanager
def tail_chain_tear() -> Iterator[None]:
    """Publish the live record one atomic segment too early."""
    original = TrailDriver._emit_record

    def torn(self: TrailDriver, header_lba: int, track: int,
             spans: List[Any], total: int,
             pending: Deque[Any]) -> Generator[Any, Any, Any]:
        record = LiveRecord(sequence_id=self._next_sequence,
                            track=track,
                            header_lba=LogLba(header_lba),
                            nsectors=total)
        self._live_records[record.sequence_id] = record
        result = yield from original(self, header_lba, track, spans,
                                     total, pending)
        return result

    TrailDriver._emit_record = torn  # type: ignore[method-assign]
    try:
        yield
    finally:
        TrailDriver._emit_record = original  # type: ignore[method-assign]


#: Registry for ``repro mc --mutate``.
MUTATIONS: Mapping[str, Callable[[], "Any"]] = MappingProxyType({
    "tail-chain-tear": tail_chain_tear,
})


__all__ = ["MUTATIONS", "tail_chain_tear"]
