"""First-hop forwarding resolvers ("R1" in the paper's Figure 1).

Home routers and small ISP boxes rarely run full iterative resolvers;
they forward to one or more upstream recursives, retrying the next
upstream on timeout. That per-hop retrying is one of the paper's
amplification mechanisms (§6.2): during a DDoS, a probe's single query
fans out across R1's whole upstream set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.dnscore.message import Message, make_query, make_response
from repro.dnscore.rrtypes import Rcode
from repro.fsm import forwarding as fsm
from repro.fsm.forwarding import COMPILED_FORWARDING
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet
from repro.resolvers.cache import CacheConfig, DnsCache
from repro.resolvers.retry import RetryPolicy, forwarder_profile
from repro.simcore.simulator import Simulator


@dataclass
class ForwarderConfig:
    """Knobs for a forwarding resolver."""

    retry: RetryPolicy = field(default_factory=forwarder_profile)
    # Forwarders may run a small cache of their own (many CPEs do).
    cache: Optional[CacheConfig] = None
    # Rotate through upstreams on retry (True) or hammer the first (False).
    rotate_upstreams: bool = True


class _Forwarded:
    """One client query being relayed, driven by the forwarding FSM."""

    __slots__ = (
        "forwarder",
        "client",
        "client_message",
        "attempt",
        "timer",
        "done",
        "fsm_state",
        "event_payload",
    )

    def __init__(
        self,
        forwarder: "ForwardingResolver",
        client: str,
        client_message: Message,
    ) -> None:
        self.forwarder = forwarder
        self.client = client
        self.client_message = client_message
        self.attempt = 0
        self.timer: Any = None
        self.done = False
        self.event_payload: Any = None
        COMPILED_FORWARDING.begin(self)


class ForwardingResolver(Host):
    """Relays client queries to upstream recursives with retries."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        upstreams: Sequence[str],
        config: Optional[ForwarderConfig] = None,
        name: str = "",
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(sim, network, address, name=name)
        if not upstreams:
            raise ValueError("a forwarder needs at least one upstream")
        self.upstreams = list(upstreams)
        self.config = config or ForwarderConfig()
        self.cache = DnsCache(self.config.cache) if self.config.cache else None
        self._pending: Dict[int, _Forwarded] = {}
        self.client_queries = 0
        self.upstream_queries = 0
        self.upstream_timeouts = 0
        self._trace = tracer
        self._metrics = metrics
        if metrics is not None:
            # Shared across all forwarders (get-or-create by name): the
            # registry aggregates the R1 layer, per-instance counts stay
            # on the host attributes above.
            self._m_client = metrics.counter("forwarder.client_queries")
            self._m_upstream = metrics.counter("forwarder.upstream_queries")
            self._m_timeouts = metrics.counter("forwarder.timeouts")
            self._m_cache_hits = metrics.counter("forwarder.cache_hits")

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        if packet.message.qr:
            self._on_upstream_response(packet)
        else:
            self._on_client_query(packet)

    def _on_client_query(self, packet: Packet) -> None:
        message = packet.message
        if message.question is None:
            return
        self.client_queries += 1
        if self._metrics is not None:
            self._m_client.value += 1
        if self.cache is not None:
            cached = self.cache.get(
                message.question.qname,
                message.question.qtype,
                self.sim.now,
                require_authoritative=True,
            )
            if cached is not None:
                if self._trace is not None and message.trace_id is not None:
                    self._trace.emit(message.trace_id, "cache_hit", self.name)
                if self._metrics is not None:
                    self._m_cache_hits.value += 1
                response = make_response(
                    message, ra=True, answers=list(cached)
                )
                response.trace_id = message.trace_id
                self.send(packet.src, response)
                return
        state = _Forwarded(self, packet.src, message)
        self._dispatch(state, fsm.BEGIN)

    # ------------------------------------------------------------------
    def _dispatch(
        self, state: _Forwarded, event: str, payload: Any = None
    ) -> None:
        COMPILED_FORWARDING.dispatch(state, event, payload)

    def _send_upstream(self, state: _Forwarded) -> None:
        policy = self.config.retry
        if self.config.rotate_upstreams:
            upstream = self.upstreams[state.attempt % len(self.upstreams)]
        else:
            upstream = self.upstreams[0]
        outgoing = make_query(
            state.client_message.question.qname,
            state.client_message.question.qtype,
            rd=True,
        )
        timeout = policy.timeout_for_attempt(state.attempt)
        trace_id = state.client_message.trace_id
        if self._trace is not None and trace_id is not None:
            outgoing.trace_id = trace_id
            self._trace.emit(
                trace_id,
                "forward" if state.attempt == 0 else "retry",
                self.name,
                detail=f"upstream={upstream} attempt={state.attempt}",
            )
        state.attempt += 1
        self._pending[outgoing.msg_id] = state
        state.timer = self.sim.call_later(
            timeout, self._on_timeout, outgoing.msg_id
        )
        if self._trace is not None and trace_id is not None:
            # A timer abandoned by a late response emits a `cancelled`
            # terminator via Event.cancel() instead of leaking open.
            state.timer.span = (self._trace, trace_id, self.name)
        self.upstream_queries += 1
        if self._metrics is not None:
            self._m_upstream.value += 1
        self.send(upstream, outgoing)

    def _on_timeout(self, msg_id: int) -> None:
        state = self._pending.pop(msg_id, None)
        if state is None or state.done:
            return
        self.upstream_timeouts += 1
        if self._metrics is not None:
            self._m_timeouts.value += 1
        trace_id = state.client_message.trace_id
        if self._trace is not None and trace_id is not None:
            self._trace.emit(trace_id, "timeout", self.name)
        self._dispatch(state, fsm.TIMEOUT)

    def _on_upstream_response(self, packet: Packet) -> None:
        state = self._pending.pop(packet.message.msg_id, None)
        if state is None or state.done:
            return
        if state.timer is not None:
            state.timer.cancel()
        upstream_message = packet.message
        if upstream_message.rcode == Rcode.SERVFAIL:
            # Budget permitting, a SERVFAIL means "try the next upstream";
            # otherwise the table's fall-through row relays it.
            self._dispatch(state, fsm.UPSTREAM_SERVFAIL, upstream_message)
            return
        self._dispatch(state, fsm.UPSTREAM_FINAL, upstream_message)

    def _respond_servfail(self, state: _Forwarded) -> None:
        self._finish(
            state,
            make_response(state.client_message, rcode=Rcode.SERVFAIL, ra=True),
        )

    def _relay_response(
        self, state: _Forwarded, upstream_message: Message
    ) -> None:
        if (
            self.cache is not None
            and upstream_message.rcode == Rcode.NOERROR
            and upstream_message.answers
        ):
            rrset = upstream_message.answer_rrset()
            if rrset is not None and rrset.ttl > 0:
                self.cache.put(rrset, self.sim.now, authoritative=True)
        response = make_response(
            state.client_message,
            rcode=upstream_message.rcode,
            ra=True,
            answers=upstream_message.answers,
        )
        self._finish(state, response)

    def _finish(self, state: _Forwarded, response: Message) -> None:
        state.done = True
        response.trace_id = state.client_message.trace_id
        self.send(state.client, response)

    def flush_caches(self) -> None:
        if self.cache is not None:
            self.cache.flush()

    def stats(self) -> dict:
        return {
            "client_queries": self.client_queries,
            "upstream_queries": self.upstream_queries,
            "upstream_timeouts": self.upstream_timeouts,
        }
