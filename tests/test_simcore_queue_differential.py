"""Cross-engine differential tests: both queues are the same queue.

The heap engine is the always-correct reference; the native kernel, when
built, must replay any trace of operations with byte-identical
observable behavior — the same ``(time, seq)`` fire sequence, the same
clock, the same live/dead accounting. These tests replay seeded random
traces against it and diff them against the reference, then check the
property end to end: a full experiment run is unchanged by which engine
the build selected.
"""

import random

import pytest

from repro.simcore import simulator as simulator_module
from repro.simcore.events import (
    DEFAULT_QUEUE_BACKEND,
    QUEUE_BACKENDS,
    make_queue,
    resolve_queue_backend,
)
from repro.simcore.simulator import Simulator

BACKENDS = sorted(QUEUE_BACKENDS)
ALTERNATES = [name for name in BACKENDS if name != "heap"]


# ----------------------------------------------------------------------
# Raw queue protocol: seeded push/cancel/pop/pop_due/peek traces
# ----------------------------------------------------------------------
def _replay_queue_trace(backend: str, seed: int):
    """Apply one seeded operation trace; return every observable output.

    Times never go below the latest popped time (the simulator clock is
    monotone, and ``Simulator.at`` enforces it), but pushes *at* already
    -served instants are generated on purpose — that is the zero-delay
    reschedule shape that must still fire after everything already queued
    at that instant.
    """
    rng = random.Random(seed)
    queue = make_queue(backend)
    live = []
    floor = 0.0
    log = []
    for _ in range(2000):
        op = rng.random()
        if op < 0.45:
            time = floor + rng.choice((0.0, rng.random() * 50.0))
            event = queue.push(time, lambda: None)
            live.append(event)
            log.append(("push", event.time, event.seq))
        elif op < 0.60 and live:
            event = live.pop(rng.randrange(len(live)))
            event.cancel()
            event.cancel()  # idempotence must hold mid-trace too
            log.append(("cancel", event.time, event.seq))
        elif op < 0.75:
            event = queue.pop()
            if event is not None:
                floor = event.time
                log.append(("pop", event.time, event.seq))
            else:
                log.append(("pop", None))
        elif op < 0.90:
            limit = floor + rng.random() * 20.0
            event = queue.pop_due(limit)
            if event is not None:
                floor = event.time
                log.append(("pop_due", event.time, event.seq))
            else:
                log.append(("pop_due", None))
        else:
            log.append(("peek", queue.peek_time(), len(queue)))
    while (event := queue.pop()) is not None:
        log.append(("drain", event.time, event.seq))
    log.append(("final", len(queue), queue.peek_time()))
    return log


@pytest.mark.parametrize("backend", ALTERNATES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_queue_trace_matches_heap_reference(backend, seed):
    assert _replay_queue_trace(backend, seed) == _replay_queue_trace(
        "heap", seed
    )


# ----------------------------------------------------------------------
# Simulator drain path: each engine's run loop vs the reference
# ----------------------------------------------------------------------
def _replay_sim_trace(backend: str, seed: int):
    """A seeded timer workload driven through ``run(until)`` segments.

    Mixes the shapes the experiments produce: same-instant bursts,
    cancel-before-fire (resolver retries), zero-delay reschedules, and
    callbacks that schedule more work — all across several bounded run
    windows, so the trace also covers events left queued at a limit.
    """
    rng = random.Random(seed)
    sim = Simulator(queue_backend=backend)
    fired = []
    timers = []

    def note(tag):
        fired.append((round(sim.now, 9), tag))

    def reschedule(tag, remaining):
        note(tag)
        if remaining:
            delay = rng.choice((0.0, 0.25, 1.0))
            sim.call_later(delay, reschedule, tag, remaining - 1)

    for index in range(300):
        shape = rng.random()
        when = rng.random() * 90.0
        if shape < 0.5:
            timers.append(sim.at(when, note, index))
        elif shape < 0.8:
            sim.at(when, reschedule, index, rng.randrange(4))
        else:
            victim_base = rng.random() * 90.0
            victim = sim.at(victim_base + 5.0, note, ("victim", index))
            if rng.random() < 0.8:
                sim.at(victim_base, lambda v=victim: v.cancel())
    for cut in (20.0, 20.0, 55.5, None):  # repeat limit: empty window
        sim.run(until=cut)
    return fired, sim.now, sim.events_processed, sim.pending()


@pytest.mark.parametrize("backend", ALTERNATES)
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_sim_trace_matches_heap_reference(backend, seed):
    assert _replay_sim_trace(backend, seed) == _replay_sim_trace(
        "heap", seed
    )


# ----------------------------------------------------------------------
# End to end: experiment results
# ----------------------------------------------------------------------
def _run_g(monkeypatch, backend):
    """Experiment G with every simulator built on ``backend``.

    Experiments take no engine option, so this swaps the kernel's queue
    factory — the only selection seam there is.
    """
    from repro.core.experiments.ddos import DDOS_EXPERIMENTS, run_ddos

    monkeypatch.setattr(
        simulator_module, "make_queue", lambda _name: make_queue(backend)
    )
    result = run_ddos(DDOS_EXPERIMENTS["G"], probe_count=10, seed=5)
    monkeypatch.undo()
    return result


def test_ddos_run_identical_across_backends(monkeypatch):
    # Heap reference vs whichever engine this build runs by default
    # (native when built; otherwise this pins heap run-to-run identity).
    reference = _run_g(monkeypatch, "heap")
    candidate = _run_g(
        monkeypatch, resolve_queue_backend(DEFAULT_QUEUE_BACKEND)
    )
    assert [
        (answer.probe_id, answer.status, answer.sent_at, answer.answered_at)
        for answer in reference.answers
    ] == [
        (answer.probe_id, answer.status, answer.sent_at, answer.answered_at)
        for answer in candidate.answers
    ]
    assert reference.outcomes_by_round() == candidate.outcomes_by_round()
