"""Latency models for the emulated network.

The paper's observations put client→recursive latency at a few
milliseconds and recursive→authoritative latency in the tens of
milliseconds; :class:`PerHostLatency` reproduces that by assigning each
host a base one-way delay and summing endpoints per packet, with small
multiplicative jitter.
"""

from __future__ import annotations

import random
from typing import Dict


class LatencyModel:
    """Interface: one-way packet delay in seconds for (src, dst)."""

    def one_way(self, src: str, dst: str, rng: random.Random) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every packet takes exactly ``delay`` seconds (useful in tests)."""

    def __init__(self, delay: float = 0.01) -> None:
        if delay < 0:
            raise ValueError("latency must be non-negative")
        self.delay = delay

    def one_way(self, src: str, dst: str, rng: random.Random) -> float:
        return self.delay


class PerHostLatency(LatencyModel):
    """Per-host base delays summed per packet, with jitter.

    Hosts without an explicit base delay get ``default_base``. Jitter is a
    uniform multiplier in [1, 1 + jitter], modelling queueing noise without
    modelling full queues (the paper argues loss, not delay, dominates
    during DDoS).
    """

    def __init__(self, default_base: float = 0.01, jitter: float = 0.2) -> None:
        self.default_base = default_base
        self.jitter = jitter
        self._base: Dict[str, float] = {}

    def set_base(self, address: str, base: float) -> None:
        """Assign a one-way base delay contribution for ``address``."""
        if base < 0:
            raise ValueError("base delay must be non-negative")
        self._base[address] = base

    def one_way(self, src: str, dst: str, rng: random.Random) -> float:
        bases, default = self._base, self.default_base
        base = bases.get(src, default) + bases.get(dst, default)
        if self.jitter <= 0:
            return base
        return base * (1.0 + rng.random() * self.jitter)


def draw_client_base(rng: random.Random) -> float:
    """One-way base for a client/probe: ~1–10 ms, long-ish tail."""
    return min(0.050, rng.lognormvariate(-5.8, 0.6))


def draw_recursive_base(rng: random.Random) -> float:
    """One-way base for an ISP recursive: ~2–15 ms."""
    return min(0.080, rng.lognormvariate(-5.3, 0.6))


def draw_authoritative_base(rng: random.Random) -> float:
    """One-way base for an authoritative: ~10–40 ms from most clients
    (the paper's authoritatives were in one Frankfurt datacenter)."""
    return min(0.120, rng.lognormvariate(-4.2, 0.5))
