"""Finite service capacity: a bounded virtual queue over a fixed rate.

The paper's authoritatives are infinitely fast — every query that
survives the (configured) inbound drop is answered. This module replaces
that with an M/D/1/K-style server: deterministic service time
``1/qps_capacity``, a FIFO queue bounded at ``queue_limit`` waiting
jobs, and tail drop on overflow. Under a flood of rate R against
capacity C the steady-state loss fraction emerges as ≈ 1 − C/R (for
R > C), which is exactly how the calibration test reconciles this model
with the paper's axiomatic drop fractions (see
:func:`repro.netem.attack.equivalent_flood_qps`).

The queue is *virtual*: nothing is stored per waiting query. The server
keeps only the time its backlog drains (``busy_until``); a query
admitted at ``now`` starts service at ``max(now, busy_until)`` and the
current queue depth is ``(busy_until - now) * rate``. O(1) state, O(1)
per query, and the simulator's event queue does the actual waiting.
"""

from __future__ import annotations

from typing import Optional


class ServiceCapacity:
    """One server's service rate and bounded backlog."""

    __slots__ = ("rate", "queue_limit", "busy_until", "admitted", "dropped")

    def __init__(self, rate: float, queue_limit: int = 64) -> None:
        if rate <= 0:
            raise ValueError(f"service rate must be positive: {rate}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1: {queue_limit}")
        self.rate = rate
        self.queue_limit = queue_limit
        self.busy_until = 0.0
        self.admitted = 0
        self.dropped = 0

    def depth(self, now: float) -> float:
        """Jobs currently waiting (fractional: partial service counts)."""
        backlog = self.busy_until - now
        return backlog * self.rate if backlog > 0 else 0.0

    def admit(self, now: float) -> Optional[float]:
        """Try to enqueue a query arriving at ``now``.

        Returns the delay until its service completes (queueing wait +
        service time), or ``None`` when the queue is full and the query
        is tail-dropped.
        """
        start = self.busy_until if self.busy_until > now else now
        if (start - now) * self.rate >= self.queue_limit:
            self.dropped += 1
            return None
        self.busy_until = start + 1.0 / self.rate
        self.admitted += 1
        return self.busy_until - now

    def __repr__(self) -> str:
        return (
            f"<ServiceCapacity {self.rate:g}/s queue<={self.queue_limit} "
            f"admitted={self.admitted} dropped={self.dropped}>"
        )
