"""Public resolver services: an anycast ingress over fragmented backends.

Large public DNS services (Google, OpenDNS, Quad9, ...) are "many
separate recursives behind a load balancer or on IP anycast" (paper
§3.1/§3.5). Caches on the backends are independent, so consecutive
queries from the same client can hit different caches — the cache
*fragmentation* the paper detects via decreasing serial numbers (CCdec)
and blames for about half of all cache misses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dnscore.message import make_response
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet
from repro.resolvers.recursive import Outcome, RecursiveResolver, ResolverConfig
from repro.simcore.simulator import Simulator


@dataclass
class PoolConfig:
    """Shape of one public resolver deployment."""

    backend_count: int = 8
    # Per-query backend choice: "random" spreads every query (heavy
    # fragmentation, Google-like), "sticky" hashes the client with
    # occasional re-hashing (milder fragmentation).
    balancing: str = "random"
    # Probability a sticky client is re-assigned on a given query.
    sticky_rebalance: float = 0.05
    # Internal LB forwarding delay (one way, seconds).
    internal_delay: float = 0.0005
    backend_config: ResolverConfig = field(default_factory=ResolverConfig)


class PublicResolverPool(Host):
    """The ingress address of a public resolver service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        backend_addresses: Sequence[str],
        root_hints: Sequence[str],
        config: Optional[PoolConfig] = None,
        name: str = "",
        rng: Optional[random.Random] = None,
        backend_config_factory=None,
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(sim, network, address, name=name)
        self.config = config or PoolConfig()
        if rng is None:
            # Test-only fallback (see RecursiveResolver): derived from a
            # named stream keyed by the ingress address so rng-less pools
            # stay deterministic without correlating with each other.
            from repro.simcore.rng import RandomStreams

            rng = RandomStreams(0).stream(f"pool:{address}")
        self._rng = rng
        self.backends: List[RecursiveResolver] = []
        for index, backend_address in enumerate(backend_addresses):
            backend_config = (
                backend_config_factory(index)
                if backend_config_factory is not None
                else self.config.backend_config
            )
            backend = RecursiveResolver(
                sim,
                network,
                backend_address,
                root_hints,
                config=backend_config,
                name=f"{name or address}-be{index}",
                rng=random.Random(self._rng.getrandbits(64)),
                tracer=tracer,
                metrics=metrics,
            )
            self.backends.append(backend)
        if not self.backends:
            raise ValueError("a pool needs at least one backend")
        self._sticky: Dict[str, int] = {}
        self.client_queries = 0
        self._trace = tracer
        self._metrics = metrics
        if metrics is not None:
            self._m_client = metrics.counter("pool.client_queries")

    # ------------------------------------------------------------------
    def _pick_backend(self, client: str) -> RecursiveResolver:
        if self.config.balancing == "random":
            index = self._rng.randrange(len(self.backends))
            return self.backends[index]
        if self.config.balancing == "sticky":
            index = self._sticky.get(client)
            if index is None or self._rng.random() < self.config.sticky_rebalance:
                index = self._rng.randrange(len(self.backends))
                self._sticky[client] = index
            return self.backends[index]
        raise ValueError(f"unknown balancing mode {self.config.balancing!r}")

    def on_packet(self, packet: Packet) -> None:
        message = packet.message
        if message.qr or message.question is None:
            return
        self.client_queries += 1
        if self._metrics is not None:
            self._m_client.value += 1
        client = packet.src
        backend = self._pick_backend(client)
        if self._trace is not None and message.trace_id is not None:
            self._trace.emit(
                message.trace_id,
                "pool_dispatch",
                self.name,
                detail=f"backend={backend.name}",
            )

        def deliver(outcome: Outcome) -> None:
            response = make_response(
                message,
                rcode=outcome.rcode,
                ra=True,
                answers=outcome.records,
            )
            response.trace_id = message.trace_id
            # The answer returns from the anycast ingress address.
            self.send(client, response)

        def start() -> None:
            # The backend serves this client query (handed over by the
            # load balancer), so account it there too.
            backend.client_queries += 1
            backend.resolve(
                message.question.qname,
                message.question.qtype,
                deliver,
                trace_id=message.trace_id,
            )

        self.sim.call_later(self.config.internal_delay, start)

    # ------------------------------------------------------------------
    def flush_caches(self) -> None:
        for backend in self.backends:
            backend.flush_caches()

    def stats(self) -> dict:
        return {
            "client_queries": self.client_queries,
            "backends": [backend.stats() for backend in self.backends],
        }
