"""Authoritative-selection study (Müller et al. [27], used by §8).

The paper's implications lean on how recursives choose among a zone's
nameservers: they prefer the lowest-latency authoritative but keep
querying all of them, which is why a DNS service's latency is dragged
toward its slowest server while its *resilience* matches its strongest
one. This study pins one fast and one slow authoritative, drives many
resolutions with expiring caches, and reports the query share per
server — normally and with the preferred server knocked out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.netem.attack import AttackSchedule, AttackWindow
from repro.netem.link import PairwiseLatency
from repro.netem.transport import Network
from repro.resolvers.recursive import RecursiveResolver, ResolverConfig
from repro.resolvers.retry import bind_profile
from repro.servers.authoritative import AuthoritativeServer
from repro.servers.hierarchy import (
    PROBE_ANSWER_PREFIX,
    ZoneSpec,
    attach_probe_synthesizer,
    build_hierarchy,
)
from repro.servers.querylog import QueryLog
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import Simulator


@dataclass
class SelectionResult:
    """Query distribution across the fast and slow authoritatives."""

    fast_queries: int
    slow_queries: int
    fast_latency: float
    slow_latency: float
    resolutions: int
    successes: int

    @property
    def total_queries(self) -> int:
        return self.fast_queries + self.slow_queries

    @property
    def fast_share(self) -> float:
        if self.total_queries == 0:
            return 0.0
        return self.fast_queries / self.total_queries


def run_selection_study(
    fast_latency: float = 0.010,
    slow_latency: float = 0.100,
    resolutions: int = 200,
    kill_fast: bool = False,
    seed: int = 42,
) -> SelectionResult:
    """Resolve ``resolutions`` uncached names and count server choices.

    The zone's TTL is 1 second so every resolution re-selects a server;
    ``kill_fast`` makes the preferred server unresponsive to show
    failover (the resilience half of the paper's §8 argument).
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    attacks = AttackSchedule()
    latency = PairwiseLatency(default=0.01)
    network = Network(sim, streams, latency=latency, attacks=attacks)

    fast, slow = "192.0.2.1", "192.0.2.2"
    resolver_address = "100.64.0.1"
    latency.set_pair(resolver_address, fast, fast_latency)
    latency.set_pair(resolver_address, slow, slow_latency)

    specs = [
        ZoneSpec(".", {"a.root-servers.test.": "193.0.0.1"}),
        ZoneSpec("nl.", {"ns1.dns.nl.": "193.0.1.1"}),
        ZoneSpec(
            "cachetest.nl.",
            {"ns1.cachetest.nl.": fast, "ns2.cachetest.nl.": slow},
            ns_ttl=86400,  # the delegation stays cached; answers do not
            a_ttl=86400,
            negative_ttl=60,
        ),
    ]
    zones = build_hierarchy(specs)
    test_zone = zones[Name.from_text("cachetest.nl.")]
    attach_probe_synthesizer(test_zone, PROBE_ANSWER_PREFIX, 1)
    AuthoritativeServer(sim, network, "193.0.0.1", [zones[Name(())]], name="root")
    AuthoritativeServer(
        sim, network, "193.0.1.1", [zones[Name.from_text("nl.")]], name="tld"
    )
    log = QueryLog()
    AuthoritativeServer(
        sim, network, fast, [test_zone], name="fast", query_log=log
    )
    AuthoritativeServer(
        sim, network, slow, [test_zone], name="slow", query_log=log
    )
    if kill_fast:
        attacks.add(AttackWindow([fast], 0.0, 1e9, 1.0))

    import random as _random

    resolver = RecursiveResolver(
        sim,
        network,
        resolver_address,
        ["193.0.0.1"],
        config=ResolverConfig(retry=bind_profile()),
        rng=_random.Random(seed),
    )
    outcomes: List = []
    for index in range(resolutions):
        qname = Name.from_text(f"{index + 1}.cachetest.nl.")
        sim.at(index * 2.0, resolver.resolve, qname, RRType.AAAA, outcomes.append)
    sim.run(until=resolutions * 2.0 + 30.0)

    per_server = log.per_server_counts()
    return SelectionResult(
        fast_queries=per_server.get("fast", 0),
        slow_queries=per_server.get("slow", 0),
        fast_latency=fast_latency,
        slow_latency=slow_latency,
        resolutions=resolutions,
        successes=sum(1 for outcome in outcomes if outcome.is_success),
    )
