"""Discrete-event simulation kernel.

This package is the substrate replacing the Linux kernel's block layer
and real wall-clock time in the Trail reproduction: generator-based
processes, one-shot events, shared FIFO resources, and measurement
probes.
"""

from repro.sim.control import ControlledReady, DispatchPolicy
from repro.sim.events import Event, Timeout, Condition, all_of, any_of
from repro.sim.explore import Explorer, ExplorationReport, ScheduleController
from repro.sim.kernel import Simulation
from repro.sim.process import Interrupt, Process, ProcessGenerator
from repro.sim.resources import Request, Resource, Store
from repro.sim.sanitizer import TrailSanitizer, sanitizer_from_env
from repro.sim.monitor import LatencyRecorder, PhasedLatencyRecorder

__all__ = [
    "Condition",
    "ControlledReady",
    "DispatchPolicy",
    "Event",
    "ExplorationReport",
    "Explorer",
    "Interrupt",
    "LatencyRecorder",
    "PhasedLatencyRecorder",
    "Process",
    "ProcessGenerator",
    "Request",
    "Resource",
    "ScheduleController",
    "Simulation",
    "Store",
    "Timeout",
    "TrailSanitizer",
    "all_of",
    "any_of",
    "sanitizer_from_env",
]
