"""Appendix E: how hard do BIND and Unbound retry when servers are dead?

A minimal deployment — one recursive resolver, the root, ``.net``, and
two ``cachetest.net`` authoritatives — resolves one AAAA record with a
cold cache, normally and with both target authoritatives unreachable.
Queries are counted per zone at the servers, reproducing Figure 16's
histogram: BIND ~3 queries normally vs ~12 under failure (it re-asks the
parents); Unbound ~5–6 normally vs tens under failure (it chases the
nonexistent AAAA records of the nameservers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.testbed import NEGATIVE_TTL, World
from repro.dnscore.name import Name
from repro.dnscore.records import AAAA
from repro.dnscore.rrtypes import RRType
from repro.netem.attack import AttackWindow
from repro.netem.link import PerHostLatency
from repro.resolvers.recursive import Outcome, RecursiveResolver, ResolverConfig
from repro.servers.hierarchy import ZoneSpec


@dataclass
class SoftwareResult:
    """Query counts per zone for one (software, condition) cell."""

    software: str
    under_attack: bool
    queries_root: int
    queries_tld: int
    queries_target: int
    resolved: bool

    @property
    def total(self) -> int:
        return self.queries_root + self.queries_tld + self.queries_target

    def as_row(self) -> Dict[str, int]:
        return {
            "root": self.queries_root,
            "net": self.queries_tld,
            "cachetest.net": self.queries_target,
            "total": self.total,
        }


def run_software_study(
    software: str = "bind",
    under_attack: bool = False,
    seed: int = 7,
) -> SoftwareResult:
    """Resolve ``sub.cachetest.net`` AAAA once, cold cache, and count
    the queries each zone's servers were offered."""
    world = World(
        seed,
        [
            ZoneSpec(
                ".",
                {
                    "a.root-servers.test.": "193.0.0.1",
                    "b.root-servers.test.": "193.0.0.2",
                },
            ),
            ZoneSpec(
                "net.",
                {
                    "a.gtld-servers.test.": "193.0.1.1",
                    "b.gtld-servers.test.": "193.0.1.2",
                },
            ),
            ZoneSpec(
                "cachetest.net.",
                {
                    "ns1.cachetest.net.": "192.0.2.1",
                    "ns2.cachetest.net.": "192.0.2.2",
                },
                ns_ttl=3600,
                a_ttl=3600,
                negative_ttl=NEGATIVE_TTL,
            ),
        ],
        PerHostLatency(jitter=0.1),
    )
    qname = Name.from_text("sub.cachetest.net.")
    world.test_zone.add(qname, 3600, AAAA("2001:db8::cafe"))
    if under_attack:
        targets = [server.address for server in world.test_servers]
        world.attacks.add(AttackWindow(targets, 0.0, 3600.0, 1.0))

    resolver = RecursiveResolver(
        world.sim,
        world.network,
        "100.64.0.1",
        world.root_hints,
        config=ResolverConfig.for_software(software),
        name=software,
    )
    outcomes: List[Outcome] = []
    world.sim.call_later(0.0, resolver.resolve, qname, RRType.AAAA, outcomes.append)
    world.sim.run(until=60.0)

    def delivered(origin: str) -> int:
        servers = world.servers[Name.from_text(origin)]
        return sum(server.queries_received for server in servers)

    # The offered load at dead servers is what Figure 16 counts: the
    # world's tap sits in front of the attack drop.
    return SoftwareResult(
        software=software,
        under_attack=under_attack,
        queries_root=delivered("."),
        queries_tld=delivered("net."),
        queries_target=len(world.offered_query_log),
        resolved=bool(outcomes and outcomes[0].is_success),
    )
