"""The event queue behind the discrete-event simulator.

Events are ordered by ``(time, seq)`` so simultaneous events run in the
deterministic order they were scheduled, which keeps whole simulations
reproducible from a single seed. The queue stores ``(time, seq, event)``
tuples (or the C equivalent) rather than events themselves: tuple
comparison is handled entirely in C, so ordering never pays for a
Python-level ``__lt__`` per comparison. ``Event`` therefore deliberately
does NOT define ``__lt__``; see ``tests/test_simcore_events.py`` for the
regression test pinning that invariant.

One ordering contract, two engines, chosen at build time rather than by
the user:

``heap``
    A binary heap with lazy deletion, the always-correct reference.
    O(log n) per operation, no assumptions about the time distribution.

``native``
    A compiled C transliteration of the heap (see ``_ckernel.c``),
    registered only when the shared object has been built
    (``scripts/build_native_kernel.py``). Same ordering contract, no
    interpreter frames in the hot loop.

Both engines produce *identical* event ordering -- ``(time, seq)`` total
order, FIFO within an instant, cancel-before-fire span terminators --
verified by ``tests/test_simcore_queue_differential.py``, which replays
seeded push/cancel/drain traces against the heap reference.
"""

from __future__ import annotations

import heapq
import importlib
from types import ModuleType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    cast,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simcore.simulator import Simulator


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g., scheduling in the past).

    Defined here (not in ``simulator``) so queue backends can raise it
    from their fused schedulers; ``repro.simcore.simulator`` re-exports
    it, which remains the canonical import site for user code.
    """


_ckernel: Optional[ModuleType]
try:  # The compiled backend is optional; see scripts/build_native_kernel.py.
    _ckernel = importlib.import_module("repro.simcore._ckernel")
except ImportError:  # pragma: no cover - depends on the build environment
    _ckernel = None


class Event:
    """A scheduled callback, cancellable until it fires.

    Instances are returned by :meth:`repro.simcore.simulator.Simulator.at`
    and :meth:`~repro.simcore.simulator.Simulator.call_later`; user code
    only ever needs :meth:`cancel` and the read-only attributes. The
    ``native`` backend returns a C twin with the same interface.

    Note the deliberate absence of ``__lt__``: events are never compared,
    because every backend orders ``(time, seq, event)`` tuples whose
    ``seq`` is unique. A Python-level comparison hook would silently turn
    every C-speed sift/sort comparison into an interpreter call.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "span", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Optional (tracer, trace_id, site) set by traced timers.
        self.span: Optional[Tuple[Any, Any, Any]] = None
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent.

        Also drops the ``callback``/``args`` references: a cancelled event
        stays queued until served (lazy deletion), and in long retry-heavy
        runs the pending closures would otherwise pin resolver state long
        after the timers were abandoned.

        When a traced timer is cancelled before firing, its span context
        (attached by the scheduling component) emits a ``cancelled``
        terminator so the trace does not leak an open retry/timeout span.
        Cancel-after-fire must stay silent, so the emission only happens
        while the event is still queued.
        """
        if not self.cancelled:
            self.cancelled = True
            self.callback = None  # type: ignore[assignment]
            self.args = ()
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                queue._dead += 1
                self._queue = None
                span = self.span
                if span is not None:
                    self.span = None
                    tracer, trace_id, site = span
                    tracer.emit(trace_id, "cancelled", site)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class EventQueue:
    """Binary-heap event queue: the reference engine.

    Cancelled events stay in the heap and are skipped on pop; this is the
    standard lazy-deletion pattern and keeps :meth:`Event.cancel` O(1).
    ``_live`` counts pending non-cancelled events; ``_dead`` counts
    cancelled events still stored awaiting removal. ``Event.cancel``
    moves one from live to dead; popping decrements whichever side it
    consumes. ``depth()`` (live + dead) is what the profiler tracks,
    making lazy-deletion bloat observable.
    """

    __slots__ = ("_live", "_dead", "_heap", "_seq")

    backend = "heap"

    def __init__(self) -> None:
        self._live = 0
        self._dead = 0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return self._live

    def depth(self) -> int:
        """Stored entries, including cancelled ones awaiting removal."""
        return self._live + self._dead

    def stats(self) -> Dict[str, Any]:
        """Plain-data queue statistics (JSON-friendly)."""
        return {
            "backend": self.backend,
            "live": self._live,
            "dead": self._dead,
            "depth": self._live + self._dead,
        }

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        self._seq += 1
        seq = self._seq
        event = Event(time, seq, callback, args, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            # Fired events must not decrement the live count again if a
            # late cancel() arrives, so detach them from the queue.
            event._queue = None
            return event
        return None

    def pop_due(self, limit: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest pending event if it is due at/before ``limit``.

        Returns ``None`` when the queue is drained or the next event lies
        beyond ``limit`` (leaving it scheduled). This fuses the
        peek-then-pop pair the run loop would otherwise perform, halving
        heap traffic in the kernel hot path.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if limit is not None and head[0] > limit:
                return None
            heapq.heappop(heap)
            self._live -= 1
            event._queue = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def drain(self, sim: "Simulator", until: Optional[float]) -> None:
        """Fire every due event, maintaining ``sim.now``/``events_processed``.

        Pops one due event at a time, advances the clock, fires, honors
        ``sim.stop()`` after the current callback, and counts the event
        even when its callback raises. The native engine's ``drain`` must
        preserve exactly this observable behavior.
        """
        fired = 0
        pop_due = self.pop_due
        try:
            while True:
                event = pop_due(until)
                if event is None:
                    break
                sim.now = event.time
                fired += 1
                event.callback(*event.args)
                if sim._stopped:
                    break
        finally:
            sim.events_processed += fired

    def make_call_later(self, sim: "Simulator") -> Callable[..., Event]:
        """Build the simulator's ``call_later`` entry point.

        Returned as a closure so the native engine can fuse scheduling
        into a single call frame; this version simply validates the delay
        and pushes.
        """
        push = self.push

        def call_later(
            delay: float, callback: Callable[..., Any], *args: Any
        ) -> Event:
            """Schedule ``callback(*args)`` after ``delay`` seconds."""
            # Fast path: valid delays go straight to the queue. The
            # comparison is False for NaN, so NaN delays take the error
            # branch too.
            if delay >= 0:
                return push(sim.now + delay, callback, args)
            raise SimulationError(f"negative delay {delay!r}")

        return call_later


class NativeEventQueue:
    """Wrapper registering the compiled heap (``_ckernel``) as a backend.

    The inner C object implements the whole protocol; this shell only
    adds the ``stats()``/``backend`` surface and hands the simulator's
    ``SimulationError`` to the C scheduler. Events returned here are
    ``_ckernel.Event`` instances -- a distinct type with the same
    interface as :class:`Event`.
    """

    __slots__ = ("_inner",)

    backend = "native"

    def __init__(self) -> None:
        assert _ckernel is not None, "native backend requires _ckernel"
        self._inner = _ckernel.EventHeap()

    @property
    def _live(self) -> int:
        return cast(int, self._inner._live)

    @property
    def _dead(self) -> int:
        return cast(int, self._inner._dead)

    def __len__(self) -> int:
        return len(self._inner)

    def depth(self) -> int:
        return cast(int, self._inner.depth())

    def stats(self) -> Dict[str, Any]:
        live = self._live
        dead = self._dead
        return {
            "backend": self.backend,
            "live": live,
            "dead": dead,
            "depth": live + dead,
        }

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> Event:
        return cast(Event, self._inner.push(time, callback, args))

    def pop(self) -> Optional[Event]:
        return cast(Optional[Event], self._inner.pop())

    def pop_due(self, limit: Optional[float] = None) -> Optional[Event]:
        return cast(Optional[Event], self._inner.pop_due(limit))

    def peek_time(self) -> Optional[float]:
        return cast(Optional[float], self._inner.peek_time())

    def drain(self, sim: "Simulator", until: Optional[float]) -> None:
        self._inner.drain(sim, until)

    def make_call_later(self, sim: "Simulator") -> Callable[..., Event]:
        return cast(
            Callable[..., Event],
            self._inner.make_call_later(sim, SimulationError),
        )


QUEUE_BACKENDS: Dict[str, Callable[[], Any]] = {"heap": EventQueue}
if _ckernel is not None:
    QUEUE_BACKENDS["native"] = NativeEventQueue

#: What every simulator uses. "auto" resolves to the compiled kernel when
#: it has been built and to the heap otherwise: a build-time choice, not
#: a user option. Both engines produce identical event ordering, so the
#: resolution never changes experiment results, only wall time.
DEFAULT_QUEUE_BACKEND = "auto"


def resolve_queue_backend(name: str) -> str:
    """Map a configured backend name to a concrete registry key."""
    if name == "auto":
        return "native" if "native" in QUEUE_BACKENDS else "heap"
    if name not in QUEUE_BACKENDS:
        known = ", ".join(sorted(QUEUE_BACKENDS) + ["auto"])
        raise ValueError(f"unknown queue backend {name!r} (known: {known})")
    return name


def make_queue(name: str = DEFAULT_QUEUE_BACKEND) -> Any:
    """Instantiate the queue backend configured by ``name``."""
    return QUEUE_BACKENDS[resolve_queue_backend(name)]()
