"""The traced pass: host ledger, event count and boundary spans.

Everything here is installed *from the harness* around public
functions and removed again when the pass ends; nothing under
``src/`` knows it is being traced.  Three instruments run together in
one full-size pass:

* ``cProfile`` — self time and call count of every function, bucketed
  by the package of its file into the host ledger
  (:data:`LEDGER_LAYERS`).  The profiler inflates Python-call-heavy
  code more than native code, so the ledger gives *shares* and
  deterministic call counts, never end-to-end numbers.
* ``Simulation.enable_trace()`` — switched on for every simulation the
  pass creates; its length is the number of dispatched events.
* boundary spans — thin wrappers around the calls *into* each layer.
  A span starts at the call and ends when the returned event or
  process fires (or the wrapped generator returns).  Its parent is the
  open span of the calling sim process, or the span whose call spawned
  that process; spans of one request share ``op_id`` (the id of their
  root).  ``host_self_s`` is the host time of the synchronous call
  itself minus nested wrapped calls — the submission cost; the ledger,
  not the spans, is the authority for host time per layer.

None of the instruments creates or reorders a simulation event: the
traced pass must reproduce the untraced pass's sim-clock metrics
bit-for-bit, and protocol.py fails the run if it does not.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core.driver import TrailDriver
from repro.disk.drive import DiskDrive
from repro.sim import Process, Simulation

#: Host-ledger buckets.  ``other`` is the rest of ``repro``
#: (workloads, baselines, blockdev, units, ...), ``bench`` is this
#: directory, ``stdlib`` is builtins and the standard library.
LEDGER_LAYERS = ("sim", "disk", "core", "db", "tpcc", "other", "bench",
                 "stdlib")

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

# Span record layout (a list per span keeps the traced pass light).
_ID, _PARENT, _OP, _LAYER, _NAME, _START, _END, _HOST = range(8)
SPAN_FIELDS = ("span_id", "parent_id", "op_id", "layer", "name",
               "sim_start_ms", "sim_end_ms", "host_self_s")


def layer_of_file(filename: str) -> str:
    """The host-ledger bucket of a source file."""
    at = filename.find(_REPRO_MARK)
    if at >= 0:
        package = filename[at + len(_REPRO_MARK):].split(os.sep, 1)[0]
        return package if package in LEDGER_LAYERS[:5] else "other"
    if filename.startswith(_BENCH_DIR):
        return "bench"
    return "stdlib"


def host_ledger(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self seconds and calls per layer from a finished profile."""
    ledger = {layer: {"host_self_s": 0.0, "calls": 0.0}
              for layer in LEDGER_LAYERS}
    for entry in profile.getstats():
        code = entry.code
        layer = (layer_of_file(code.co_filename)
                 if hasattr(code, "co_filename") else "stdlib")
        ledger[layer]["host_self_s"] += entry.inlinetime
        ledger[layer]["calls"] += entry.callcount
    return ledger


class SpanTracer:
    """Records one span per call across a wrapped layer boundary."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        #: process -> the span whose call spawned it.
        self._spawned_by: Dict[Any, List[Any]] = {}
        #: process -> generator spans it currently runs inside.
        self._open: Dict[Any, List[List[Any]]] = {}
        #: Host seconds of nested wrapped calls, per open sync call.
        self._nested: List[float] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _begin(self, sim: Simulation, layer: str, name: str) -> List[Any]:
        process = sim.active_process
        stack = self._open.get(process)
        parent = stack[-1] if stack else self._spawned_by.get(process)
        span_id = len(self.spans)
        span = [span_id,
                None if parent is None else parent[_ID],
                span_id if parent is None else parent[_OP],
                layer, name, sim.now, None, 0.0]
        self.spans.append(span)
        return span

    def _wrap_event(self, layer: str, name: Callable[[Any], str],
                    function: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a method that returns an event or a process."""
        tracer = self

        def traced(obj: Any, *args: Any, **kwargs: Any) -> Any:
            sim = obj.sim
            span = tracer._begin(sim, layer, name(obj))
            nested = tracer._nested
            nested.append(0.0)
            began = time.perf_counter()
            try:
                result = function(obj, *args, **kwargs)
            except BaseException:
                span[_END] = sim.now
                raise
            finally:
                took = time.perf_counter() - began
                span[_HOST] = took - nested.pop()
                if nested:
                    nested[-1] += took
            if isinstance(result, Process):
                tracer._spawned_by[result] = span

            def finished(_event: Any) -> None:
                span[_END] = sim.now
                tracer._spawned_by.pop(result, None)

            result.add_callback(finished)
            return result

        return traced

    def _wrap_generator(self, layer: str, name: str,
                        function: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a generator method that a sim process runs inline."""
        tracer = self

        def traced(obj: Any, *args: Any, **kwargs: Any) -> Any:
            sim = obj.sim
            span = tracer._begin(sim, layer, name)
            process = sim.active_process
            stack = tracer._open.setdefault(process, [])
            stack.append(span)
            try:
                return (yield from function(obj, *args, **kwargs))
            finally:
                span[_END] = sim.now
                stack.remove(span)
                if not stack:
                    tracer._open.pop(process, None)

        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner: Any, attribute: str, layer: str,
               name: Any = None) -> None:
        function = owner.__dict__[attribute]
        label = f"{owner.__name__}.{attribute}"
        if inspect.isgeneratorfunction(function):
            wrapped = self._wrap_generator(layer, name or label, function)
        else:
            wrapped = self._wrap_event(
                layer, name or (lambda _obj: label), function)
        self._restore.append((owner, attribute, function))
        setattr(owner, attribute, wrapped)

    def install(self, with_db: bool) -> None:
        """Wrap the layer boundaries (the DB ones only for TPC-C)."""
        for attribute in ("write", "read", "flush", "mount"):
            self._patch(TrailDriver, attribute, "core")
        # One wrapper serves log and data drives; the span name says
        # which ("trail-log.submit", "data0.submit", "ide1.submit").
        self._patch(DiskDrive, "submit", "disk",
                    lambda drive: f"{drive.name}.submit")
        if with_db:
            from repro.db.engine import TransactionEngine
            from repro.db.locks import LockManager
            from repro.db.pages import BufferPool
            from repro.db.wal import WriteAheadLog

            for owner, attributes in (
                    (WriteAheadLog, ("commit", "force")),
                    (BufferPool, ("fetch_miss", "flush_all")),
                    (LockManager, ("acquire_slow",)),
                    (TransactionEngine, ("run_transaction", "commit"))):
                for attribute in attributes:
                    self._patch(owner, attribute, "db")

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, function = self._restore.pop()
            setattr(owner, attribute, function)

    # -- reporting -----------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))))
                handle.write("\n")

    def summary(self) -> Dict[str, Any]:
        """Counts per boundary and sim-clock self time per layer.

        A span's self time is its duration minus the part of that
        interval its child spans cover.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span[_PARENT] is not None and span[_END] is not None:
                children.setdefault(span[_PARENT], []).append(
                    (span[_START], span[_END]))
        counts: Dict[str, int] = {}
        self_ms: Dict[str, float] = {}
        unfinished = 0
        for span in self.spans:
            label = f"{span[_LAYER]}:{span[_NAME]}"
            counts[label] = counts.get(label, 0) + 1
            if span[_END] is None:
                unfinished += 1
                continue
            start, end = span[_START], span[_END]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span[_ID], ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            layer = span[_LAYER]
            self_ms[layer] = self_ms.get(layer, 0.0) + (end - start) - covered
        return {"spans": len(self.spans), "unfinished": unfinished,
                "counts": counts, "sim_self_ms_by_layer": self_ms}


@dataclass
class TracedPass:
    """Result of :func:`run_traced`."""

    result: Any
    ledger: Dict[str, Dict[str, float]]
    events_dispatched: int
    tracer: SpanTracer


def run_traced(run_pass: Callable[[], Any], with_db: bool) -> TracedPass:
    """Run one pass under the profiler, event trace and span wrappers."""
    tracer = SpanTracer()
    traces: List[List[Any]] = []
    plain_init = Simulation.__init__

    def traced_init(sim: Simulation, *args: Any, **kwargs: Any) -> None:
        plain_init(sim, *args, **kwargs)
        traces.append(sim.enable_trace())

    profile = cProfile.Profile()
    Simulation.__init__ = traced_init  # type: ignore[method-assign]
    tracer.install(with_db)
    try:
        profile.enable()
        try:
            result = run_pass()
        finally:
            profile.disable()
    finally:
        tracer.uninstall()
        Simulation.__init__ = plain_init  # type: ignore[method-assign]
    return TracedPass(result, host_ledger(profile),
                      sum(len(trace) for trace in traces), tracer)
