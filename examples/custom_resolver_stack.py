#!/usr/bin/env python3
"""Build a custom DNS world with the library's low-level API.

Everything the experiment runners assemble can be wired from parts: a
``World`` (zone tree, authoritative servers, network, attack schedule),
then a serve-stale recursive, a home-router forwarder, and a stub. This
example constructs a small deployment, kills the authoritatives mid-run,
and shows serve-stale answering with TTL 0 (the behavior the paper
caught Google/OpenDNS experimenting with, §5.3, now RFC 8767).

Run:  python examples/custom_resolver_stack.py
"""

from repro import (
    AttackWindow,
    RecursiveResolver,
    ResolverConfig,
    RRType,
    StubResolver,
    World,
    ZoneSpec,
)
from repro.netem.link import PerHostLatency
from repro.resolvers.cache import CacheConfig
from repro.resolvers.forwarder import ForwardingResolver


def main() -> None:
    # Zone tree: root -> nl -> example.nl with a 5-minute TTL, each
    # nameserver address backed by an authoritative server.
    world = World(
        2024,
        [
            ZoneSpec(".", {"a.root-servers.test.": "193.0.0.1"}),
            ZoneSpec("nl.", {"ns1.dns.nl.": "193.0.1.1"}),
            ZoneSpec(
                "example.nl.",
                {"ns1.example.nl.": "192.0.2.1", "ns2.example.nl.": "192.0.2.2"},
                ns_ttl=300,
                a_ttl=300,
                negative_ttl=60,
            ),
        ],
        PerHostLatency(jitter=0.2),
    )
    sim, network = world.sim, world.network

    # A serve-stale recursive (RFC 8767 style) ...
    config = ResolverConfig(cache=CacheConfig(stale_window=3600.0))
    config.serve_stale = True
    recursive = RecursiveResolver(
        sim, network, "100.64.0.1", world.root_hints, config=config, name="rn"
    )
    # ... behind a caching home-router forwarder.
    forwarder = ForwardingResolver(
        sim, network, "100.64.9.1", [recursive.address], name="cpe"
    )
    stub = StubResolver(sim, network, "10.0.0.1", 99, [forwarder.address])

    qname = world.origin.child("99")

    # Timeline: query at t=10 (warm), authoritatives die at t=60,
    # query again at t=120 (cache still fresh), t=400 (expired -> stale).
    sim.at(10.0, stub.query_round, qname, RRType.AAAA, 0)
    targets = [server.address for server in world.test_servers]
    sim.at(60.0, world.attacks.add, AttackWindow(targets, 60.0, 10_000.0, 1.0))
    sim.at(120.0, stub.query_round, qname, RRType.AAAA, 1)
    sim.at(400.0, stub.query_round, qname, RRType.AAAA, 2)
    sim.run(until=500.0)

    print("round  status      TTL   note")
    notes = {
        0: "fresh answer from the authoritative",
        1: "cache hit while authoritatives are DEAD",
        2: "stale answer (TTL 0) after cache expiry",
    }
    for answer in stub.results:
        ttl = answer.returned_ttl if answer.returned_ttl is not None else "-"
        print(
            f"{answer.round_index:>5}  {answer.status:<10} {ttl!s:>4}   "
            f"{notes[answer.round_index]}"
        )
    print(f"\nrecursive cache stats: {recursive.cache.stats()}")


if __name__ == "__main__":
    main()
