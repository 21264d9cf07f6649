"""Query-lifecycle tracer.

A :class:`Tracer` is the single sink for span events in a traced run.
Components hold either a ``Tracer`` or ``None`` — resolved once at wiring
time — and guard every emission site with ``if tracer is not None``, so
untraced runs pay nothing beyond the attribute load (the zero-cost
contract; see DESIGN.md §8).

Trace ids are small integers handed out by :meth:`Tracer.new_trace` when a
stub issues a query. The id rides on :attr:`repro.dnscore.message.Message.
trace_id` through every hop, including the wire-format round-trip in
:class:`repro.netem.transport.Network`.
"""

from __future__ import annotations

from repro.obs.records import SpanLog


class Tracer:
    """Writes spans, stamped with simulator time, into a :class:`SpanLog`.

    ``events`` is that log: a read-only sequence of
    :class:`~repro.obs.records.SpanEvent` to its readers, columns
    underneath.
    """

    __slots__ = ("sim", "events", "_next_id")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.events = SpanLog()
        self._next_id = 0

    def new_trace(self) -> int:
        """Allocate a fresh trace id for a stub query."""
        trace_id = self._next_id
        self._next_id = trace_id + 1
        return trace_id

    def emit(
        self, trace_id: int, kind: str, site: str, vp: str = "", detail: str = ""
    ) -> None:
        """Record one span, stamped with the current simulated time."""
        self.events.append(trace_id, self.sim.now, kind, site, vp, detail)
