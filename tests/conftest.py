"""Shared fixtures: a small wired DNS world for resolver-level tests."""

from __future__ import annotations

import pytest

from repro.core.testbed import World
from repro.dnscore.name import Name
from repro.netem.link import ConstantLatency
from repro.servers.hierarchy import ZoneSpec


class MiniWorld(World):
    """A root → nl → cachetest.nl world with two target authoritatives.

    Latency is a constant 10 ms one way, no baseline loss, so tests can
    reason about exact timings. ``attacks`` is mutable for DDoS tests.
    """

    ROOT = "193.0.0.1"
    TLD = "193.0.1.1"
    AT1 = "192.0.2.1"
    AT2 = "192.0.2.2"

    def __init__(self, zone_ttl: int = 3600, negative_ttl: int = 60) -> None:
        super().__init__(
            1234,
            [
                ZoneSpec(".", {"a.root-servers.test.": self.ROOT}),
                ZoneSpec("nl.", {"ns1.dns.nl.": self.TLD}),
                ZoneSpec(
                    "cachetest.nl.",
                    {
                        "ns1.cachetest.nl.": self.AT1,
                        "ns2.cachetest.nl.": self.AT2,
                    },
                    ns_ttl=zone_ttl,
                    a_ttl=zone_ttl,
                    negative_ttl=negative_ttl,
                ),
            ],
            ConstantLatency(0.01),
        )
        self.zone_ttl = zone_ttl
        self.parent_log = self.parent_query_log
        (self.root_server,) = self.servers[Name(())]
        (self.tld_server,) = self.servers[Name.from_text("nl.")]
        self.at1, self.at2 = self.test_servers
        self.target_addresses = [self.AT1, self.AT2]


@pytest.fixture
def world() -> MiniWorld:
    return MiniWorld()


@pytest.fixture
def short_ttl_world() -> MiniWorld:
    return MiniWorld(zone_ttl=60)
