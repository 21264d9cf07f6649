"""Attacker processes: event generators that emit adversarial queries.

Attackers are deliberately *not* :class:`~repro.netem.topology.Host`
subclasses: they never need to receive anything (a flood source ignores
responses, and responses to spoofed sources blackhole at the network
exactly as unroutable packets do in reality), so each attacker is just a
self-rescheduling timer chain drawing exponential inter-arrivals from
the dedicated ``"attackload"`` RNG stream. Being a *new* named stream,
it never perturbs any existing stream — runs without an attack load are
bit-for-bit identical to pre-attackload builds.

The NXNS mode is the exception that needs a server: the attacker's own
authoritative (:class:`NxnsAuthoritative`), which answers every query
with a referral delegating to no-glue nameservers inside the *victim*
zone, so chasing recursives amplify each attacker query into
``nxns_fanout`` victim-bound resolutions.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.attackload.spec import (
    MODE_DIRECT,
    MODE_NXNS,
    MODE_SUBDOMAIN,
    SPOOF_RANDOM,
    AttackLoadSpec,
)
from repro.dnscore.message import Message, make_query, make_response
from repro.dnscore.name import Name
from repro.dnscore.records import NS, A, ResourceRecord
from repro.dnscore.rrtypes import Rcode, RRType
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet
from repro.servers.hierarchy import TLD_ORIGIN
from repro.simcore.simulator import Simulator
from repro.workloads.attacknames import (
    nxns_target_names,
    water_torture_name,
)


class AttackLoadStats:
    """Aggregate attack-side counters (one instance per testbed)."""

    __slots__ = ("queries_sent", "referrals_served")

    def __init__(self) -> None:
        self.queries_sent = 0
        self.referrals_served = 0

    def as_dict(self) -> dict:
        return {
            "queries_sent": self.queries_sent,
            "referrals_served": self.referrals_served,
        }

    def __repr__(self) -> str:
        return (
            f"<AttackLoadStats sent={self.queries_sent} "
            f"referrals={self.referrals_served}>"
        )


#: An emit strategy returns one (src, dst, message) triple per firing.
EmitFn = Callable[[random.Random], Tuple[str, str, Message]]


class Attacker:
    """One attacker: a self-rescheduling query stream."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        spec: AttackLoadSpec,
        rng: random.Random,
        stats: AttackLoadStats,
        emit: EmitFn,
    ) -> None:
        self.sim = sim
        self.network = network
        self.spec = spec
        self.rng = rng
        self.stats = stats
        self.emit = emit

    def schedule(self) -> None:
        # Stagger starts inside the first mean inter-arrival so the
        # population does not fire in lockstep at the window edge.
        offset = self.rng.random() / self.spec.qps
        self.sim.at(self.spec.start + offset, self._fire)

    def _fire(self) -> None:
        if self.sim.now >= self.spec.end:
            return
        src, dst, message = self.emit(self.rng)
        self.network.send(src, dst, message)
        self.stats.queries_sent += 1
        self.sim.call_later(self.rng.expovariate(self.spec.qps), self._fire)


class NxnsAuthoritative(Host):
    """The attacker-controlled authoritative for the NXNS mode.

    Any query under its apex is answered with a referral whose authority
    section delegates the query name itself to ``fanout`` nameservers
    inside ``victim_origin`` — with no glue, so the recursive must
    resolve each target's address at the victim's authoritatives.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        apex: Name,
        victim_origin: Name,
        fanout: int,
        rng: random.Random,
        stats: AttackLoadStats,
        ns_ttl: int = 300,
        processing_delay: float = 0.0005,
        name: str = "nxns-auth",
    ) -> None:
        super().__init__(sim, network, address, name=name)
        self.apex = apex
        self.victim_origin = victim_origin
        self.fanout = fanout
        self.rng = rng
        self.stats = stats
        self.ns_ttl = ns_ttl
        self.processing_delay = processing_delay

    def on_packet(self, packet: Packet) -> None:
        message = packet.message
        if message.qr or message.question is None:
            return
        qname = message.question.qname
        if not qname.is_subdomain_of(self.apex) or qname == self.apex:
            response = make_response(message, rcode=Rcode.REFUSED)
        else:
            targets = nxns_target_names(
                self.rng, self.victim_origin, self.fanout
            )
            authority = [
                ResourceRecord(qname, self.ns_ttl, NS(target))
                for target in targets
            ]
            response = make_response(message, authority=authority)
            self.stats.referrals_served += 1
        response.trace_id = message.trace_id
        self.sim.call_later(
            self.processing_delay,
            self.send,
            packet.src,
            response,
            packet.transport,
        )


class AttackLoad:
    """The wired attacker population of one testbed."""

    def __init__(
        self,
        spec: AttackLoadSpec,
        attackers: List[Attacker],
        attacker_sources: List[str],
        stats: AttackLoadStats,
        nxns_server: Optional[NxnsAuthoritative] = None,
    ) -> None:
        self.spec = spec
        self.attackers = attackers
        #: Every source address attack queries can arrive from at the
        #: victims (the defense layer's ground truth). Recursives
        #: carrying water-torture/NXNS traffic are *not* listed: those
        #: queries reach the victim from legitimate infrastructure,
        #: which is precisely what makes such attacks hard to filter.
        self.attacker_sources = attacker_sources
        self.stats = stats
        self.nxns_server = nxns_server

    def schedule(self) -> None:
        for attacker in self.attackers:
            attacker.schedule()


def build_attack_load(testbed) -> AttackLoad:
    """Wire an attacker population into a testbed (its constructor hook).

    Runs after the legitimate population is built, so the address
    allocator's pools are consumed in the same order as before —
    another ingredient of the disabled-path byte-identity guarantee.
    """
    spec: AttackLoadSpec = testbed.config.attack_load
    sim = testbed.sim
    network = testbed.network
    rng = testbed.streams.stream("attackload")
    stats = AttackLoadStats()
    allocator = testbed.allocator

    attacker_addresses = [
        allocator.allocate("attackers") for _ in range(spec.attackers)
    ]
    attacker_sources = list(attacker_addresses)
    attackers: List[Attacker] = []
    nxns_server: Optional[NxnsAuthoritative] = None

    if spec.mode == MODE_DIRECT:
        targets = list(testbed.test_server_addresses)
        origin = testbed.origin
        for address in attacker_addresses:
            if spec.spoof == SPOOF_RANDOM:
                sources = [
                    allocator.allocate("attackers")
                    for _ in range(spec.spoof_pool)
                ]
                attacker_sources.extend(sources)
            else:
                sources = [address]
            emit = _direct_emit(sources, targets, origin)
            attackers.append(Attacker(sim, network, spec, rng, stats, emit))
    elif spec.mode == MODE_SUBDOMAIN:
        ingresses = _open_resolver_ingresses(testbed)
        origin = testbed.origin
        for address in attacker_addresses:
            emit = _subdomain_emit(address, ingresses, origin)
            attackers.append(Attacker(sim, network, spec, rng, stats, emit))
    elif spec.mode == MODE_NXNS:
        ingresses = _open_resolver_ingresses(testbed)
        apex = Name.from_text(f"evil-attack.{TLD_ORIGIN}")
        nxns_server = _wire_nxns_zone(testbed, apex, spec, rng, stats)
        for address in attacker_addresses:
            emit = _subdomain_emit(address, ingresses, apex)
            attackers.append(Attacker(sim, network, spec, rng, stats, emit))
    else:  # pragma: no cover - spec validation rejects unknown modes
        raise ValueError(f"unknown attack mode {spec.mode!r}")

    return AttackLoad(spec, attackers, attacker_sources, stats, nxns_server)


def _direct_emit(
    sources: Sequence[str], targets: Sequence[str], origin: Name
) -> EmitFn:
    """Direct flood: apex A queries straight at the victims, RD=0."""

    def emit(rng: random.Random) -> Tuple[str, str, Message]:
        src = sources[rng.randrange(len(sources))]
        dst = targets[rng.randrange(len(targets))]
        return src, dst, make_query(origin, RRType.A, rd=False)

    return emit


def _subdomain_emit(
    source: str, ingresses: Sequence[str], origin: Name
) -> EmitFn:
    """Water torture (and NXNS triggering): unique names via an open
    recursive, RD=1. The attacker ignores the answer; the recursive does
    the victim-facing work either way."""

    def emit(rng: random.Random) -> Tuple[str, str, Message]:
        dst = ingresses[rng.randrange(len(ingresses))]
        qname = water_torture_name(rng, origin)
        return source, dst, make_query(qname, RRType.A, rd=True)

    return emit


def _open_resolver_ingresses(testbed) -> List[str]:
    """Addresses an off-path client can query recursively: the ISP
    recursives and the public-pool ingress anycast addresses."""
    population = testbed.population
    ingresses = [resolver.address for resolver in population.recursives]
    ingresses.extend(pool.address for pool in population.pools)
    if not ingresses:
        raise ValueError(
            "attack load needs at least one recursive ingress "
            "(population has none)"
        )
    return ingresses


def _wire_nxns_zone(
    testbed,
    apex: Name,
    spec: AttackLoadSpec,
    rng: random.Random,
    stats: AttackLoadStats,
) -> NxnsAuthoritative:
    """Stand up the attacker's authoritative and delegate its zone from
    the TLD (with glue), so recursives can find it the normal way."""
    address = testbed.allocator.allocate("attackers")
    server = NxnsAuthoritative(
        testbed.sim,
        testbed.network,
        address,
        apex,
        testbed.origin,
        spec.nxns_fanout,
        rng,
        stats,
    )
    ns_host = Name(("ns1",) + apex.labels)
    tld = Name.from_text(TLD_ORIGIN)
    tld_zone = testbed.zones[tld]
    delegation_ttl = 3600
    tld_zone.add(apex, delegation_ttl, NS(ns_host))
    tld_zone.add(ns_host, delegation_ttl, A(address))
    return server
