"""The authoritative DNS server process.

One server may serve several zones (a root server serves ".", the
`cachetest.nl` servers serve only their zone). For each query it selects
the most specific served zone, runs the zone lookup, and answers with the
appropriate sections and flags. A small constant processing delay models
server think time.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.dnscore.message import Message, make_response
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import Opcode, Rcode
from repro.dnscore.zone import LookupStatus, Zone
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet
from repro.servers.querylog import QueryLog
from repro.simcore.simulator import Simulator


class AuthoritativeServer(Host):
    """Serves one or more zones over the emulated network."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        zones: Iterable[Zone],
        name: str = "",
        query_log: Optional[QueryLog] = None,
        processing_delay: float = 0.0005,
        enabled: bool = True,
        udp_payload_limit: int = 512,
        tracer=None,
        defense=None,
    ) -> None:
        super().__init__(sim, network, address, name=name)
        self._trace = tracer
        self.zones: List[Zone] = list(zones)
        self.query_log = query_log
        self.processing_delay = processing_delay
        self.enabled = enabled
        # Responses too large for a plain-DNS UDP datagram are truncated
        # (TC bit, empty sections) so clients retry over TCP. 0 disables.
        self.udp_payload_limit = udp_payload_limit
        # Upper bound this server honors for EDNS0-advertised payloads
        # (the DNS-flag-day recommendation).
        self.edns_payload_limit = 1232
        # Optional repro.defense pipeline consulted before serving; None
        # (the default everywhere but defense experiments) changes no
        # code path.
        self.defense = defense
        self.queries_received = 0
        self.responses_sent = 0
        self.truncated_responses = 0
        self.slipped_responses = 0

    # ------------------------------------------------------------------
    # Zone selection
    # ------------------------------------------------------------------
    def zone_for(self, qname: Name) -> Optional[Zone]:
        """The most specific served zone containing ``qname``."""
        best: Optional[Zone] = None
        for zone in self.zones:
            if not qname.is_subdomain_of(zone.origin):
                continue
            if best is None or len(zone.origin) > len(best.origin):
                best = zone
        return best

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        message = packet.message
        if message.qr or message.question is None:
            return
        if message.opcode != Opcode.QUERY:
            response = make_response(message, rcode=Rcode.NOTIMP)
            self._respond(packet.src, response)
            return
        if self.defense is not None:
            action, delay = self.defense.admit(
                packet.src, packet.transport, self.sim.now
            )
            if action != "serve":
                self._defense_reject(packet, action)
                return
            if delay > 0:
                capacity = self.defense.capacity
                if (
                    self._trace is not None
                    and message.trace_id is not None
                    and capacity is not None
                    and delay * capacity.rate > 1.0 + 1e-9
                ):
                    self._trace.emit(
                        message.trace_id,
                        "queued",
                        self.name,
                        detail=f"{delay * 1000.0:.1f}ms",
                    )
                self.sim.call_later(delay, self._serve, packet)
                return
        self._serve(packet)

    def _defense_reject(self, packet: Packet, action: str) -> None:
        """A query stopped by a defense layer: drop it, or SLIP it.

        SLIP sends a truncated (TC=1) empty response in place of the
        real one; a well-behaved client retries over TCP, which the RRL
        layer never limits. Drops are silent — to the client side they
        are indistinguishable from the network losing the packet.
        """
        message = packet.message
        if action == "slip":
            self.slipped_responses += 1
            if self._trace is not None and message.trace_id is not None:
                self._trace.emit(message.trace_id, "slip", self.name)
            response = make_response(message, rcode=Rcode.NOERROR)
            response.tc = True
            response.trace_id = message.trace_id
            self._respond(packet.src, response, packet.transport)
            return
        if self._trace is not None and message.trace_id is not None:
            span_kind = {
                "drop_filtered": "filtered",
                "drop_rrl": "rate_limited",
                "drop_capacity": "drop_capacity",
            }.get(action, action)
            self._trace.emit(message.trace_id, span_kind, self.name)

    def _serve(self, packet: Packet) -> None:
        message = packet.message
        self.queries_received += 1
        question = message.question
        if self._trace is not None and message.trace_id is not None:
            self._trace.emit(
                message.trace_id,
                "auth_query",
                self.name,
                detail=f"{question.qname} {question.qtype.name}",
            )
        if self.query_log is not None:
            self.query_log.record(
                self.sim.now, packet.src, question.qname, question.qtype, self.name
            )
        if not self.enabled:
            # A disabled server is administratively down: queries blackhole,
            # used by tests to distinguish "down" from "100% attack loss".
            return

        zone = self.zone_for(question.qname)
        if zone is None:
            response = make_response(message, rcode=Rcode.REFUSED)
            response.trace_id = message.trace_id
            self._respond(packet.src, response, packet.transport)
            return

        result = zone.lookup(question.qname, question.qtype)
        edns = (
            self.edns_payload_limit if message.edns_payload is not None else None
        )
        if result.status == LookupStatus.OUT_OF_ZONE:
            response = make_response(
                message, rcode=Rcode.REFUSED, edns_payload=edns
            )
        else:
            response = make_response(
                message,
                rcode=result.rcode,
                aa=result.aa,
                answers=result.answers,
                authority=result.authority,
                additional=result.additional,
                edns_payload=edns,
            )
        response = self._truncate_if_needed(
            response, packet.transport, message.edns_payload
        )
        response.trace_id = message.trace_id
        self._respond(packet.src, response, packet.transport)

    def _truncate_if_needed(
        self,
        response: Message,
        transport: str,
        advertised: Optional[int] = None,
    ) -> Message:
        """Truncate oversized UDP responses (TC bit, emptied sections).

        With EDNS0 the effective limit is the smaller of the client's
        advertised payload and this server's own cap; without it, the
        classic 512 bytes.
        """
        if transport != "udp" or self.udp_payload_limit <= 0:
            return response
        from repro.dnscore.wire import to_wire, upper_bound_size

        limit = self.udp_payload_limit
        if advertised is not None:
            limit = max(limit, min(advertised, self.edns_payload_limit))
        # Cheap upper bound first (compression only shrinks a message);
        # encode for the exact size only when the bound exceeds the limit.
        if upper_bound_size(response) <= limit:
            return response
        if len(to_wire(response)) <= limit:
            return response
        self.truncated_responses += 1
        truncated = make_response(
            Message(
                response.msg_id,
                response.question,
                rd=response.rd,
            ),
            rcode=response.rcode,
            aa=response.aa,
            edns_payload=response.edns_payload,
        )
        truncated.tc = True
        return truncated

    def _respond(self, dst: str, response: Message, transport: str = "udp") -> None:
        self.responses_sent += 1
        if self.processing_delay > 0:
            self.sim.call_later(
                self.processing_delay, self.send, dst, response, transport
            )
        else:
            self.send(dst, response, transport)
