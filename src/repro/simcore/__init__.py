"""Discrete-event simulation core.

This subpackage provides the clocked substrate every other component runs
on: a :class:`~repro.simcore.simulator.Simulator` with a priority event
queue, generator-based :class:`~repro.simcore.process.Process` coroutines,
one-shot :class:`~repro.simcore.process.Signal` synchronization, and
deterministic named random streams
(:class:`~repro.simcore.rng.RandomStreams`).

The engine is deliberately small and dependency-free; all DNS behavior in
this library (resolvers, servers, clients, attacks) is expressed as either
scheduled callbacks or generator processes on top of it.
"""

from repro.simcore.events import (
    DEFAULT_QUEUE_BACKEND,
    QUEUE_BACKENDS,
    Event,
    EventQueue,
    SimulationError,
    make_queue,
    resolve_queue_backend,
)
from repro.simcore.process import AnyOf, Process, Signal, Timeout
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import SimProfile, Simulator

__all__ = [
    "AnyOf",
    "DEFAULT_QUEUE_BACKEND",
    "Event",
    "EventQueue",
    "Process",
    "QUEUE_BACKENDS",
    "RandomStreams",
    "Signal",
    "SimProfile",
    "SimulationError",
    "Simulator",
    "Timeout",
    "make_queue",
    "resolve_queue_backend",
]
