"""Discrete-event simulation core.

This subpackage provides the clocked substrate every other component runs
on: a :class:`~repro.simcore.simulator.Simulator` with a priority event
queue and deterministic named random streams
(:class:`~repro.simcore.rng.RandomStreams`).

The engine is deliberately small and dependency-free; all DNS behavior in
this library (resolvers, servers, clients, attacks) is expressed as
scheduled callbacks on top of it.
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
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import SimProfile, Simulator

__all__ = [
    "DEFAULT_QUEUE_BACKEND",
    "Event",
    "EventQueue",
    "QUEUE_BACKENDS",
    "RandomStreams",
    "SimProfile",
    "SimulationError",
    "Simulator",
    "make_queue",
    "resolve_queue_backend",
]
