"""Unit tests for first-hop forwarding resolvers."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import Rcode, RRType
from repro.netem.attack import AttackWindow
from repro.resolvers.cache import CacheConfig
from repro.resolvers.forwarder import ForwarderConfig, ForwardingResolver
from repro.resolvers.recursive import RecursiveResolver
from repro.resolvers.stub import AnswerLog, StubAnswer, StubResolver

QNAME = Name.from_text("1414.cachetest.nl.")


def build_chain(world, upstream_count=2, forwarder_config=None):
    upstreams = []
    for index in range(upstream_count):
        resolver = RecursiveResolver(
            world.sim,
            world.network,
            f"100.64.0.{index + 1}",
            world.root_hints,
            name=f"rn{index}",
        )
        upstreams.append(resolver.address)
    forwarder = ForwardingResolver(
        world.sim,
        world.network,
        "100.64.9.1",
        upstreams,
        config=forwarder_config,
        name="fwd",
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, [forwarder.address], results
    )
    return forwarder, stub, results


def test_forwarding_resolves_through_upstream(world):
    forwarder, stub, results = build_chain(world)
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.OK
    assert forwarder.upstream_queries == 1


def test_forwarder_requires_upstreams(world):
    with pytest.raises(ValueError):
        ForwardingResolver(world.sim, world.network, "100.64.9.9", [])


def test_forwarder_cache_answers_second_query(world):
    config = ForwarderConfig(cache=CacheConfig())
    forwarder, stub, results = build_chain(world, forwarder_config=config)
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 1)
    world.sim.run(until=world.sim.now + 30.0)
    assert [r.status for r in results] == [StubAnswer.OK, StubAnswer.OK]
    assert forwarder.upstream_queries == 1  # second from forwarder cache
    # Cached answer TTL decremented relative to the original.
    assert results[1].returned_ttl <= results[0].returned_ttl


def test_forwarder_rotates_upstreams_on_timeout(world):
    # Kill upstream 1 only: it is unregistered, so queries blackhole.
    dead = "100.64.0.250"
    forwarder = ForwardingResolver(
        world.sim, world.network, "100.64.9.2", [dead, "100.64.0.1"], name="fwd2"
    )
    RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints, name="rn"
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.2", 7, [forwarder.address], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.OK
    assert forwarder.upstream_timeouts >= 1
    assert forwarder.upstream_queries >= 2


def test_forwarder_servfail_failover(world):
    # First upstream always SERVFAILs (no route to authoritatives):
    # simulate by a recursive with no usable root hints target.
    class ServfailHost:
        def __init__(self, sim, network, address):
            self.network = network
            self.address = address
            network.register(address, self.on_packet)

        def on_packet(self, packet):
            from repro.dnscore.message import make_response

            if packet.message.qr:
                return
            self.network.send(
                self.address,
                packet.src,
                make_response(packet.message, rcode=Rcode.SERVFAIL, ra=True),
            )

    ServfailHost(world.sim, world.network, "100.64.0.99")
    RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints, name="rn"
    )
    forwarder = ForwardingResolver(
        world.sim,
        world.network,
        "100.64.9.3",
        ["100.64.0.99", "100.64.0.1"],
        name="fwd3",
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.3", 8, [forwarder.address], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.OK


def test_forwarder_gives_up_with_servfail(world):
    forwarder = ForwardingResolver(
        world.sim,
        world.network,
        "100.64.9.4",
        ["100.64.0.250", "100.64.0.251"],  # both blackholes
        name="fwd4",
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim,
        world.network,
        "10.0.0.4",
        9,
        [forwarder.address],
        results,
        timeout=60.0,  # generous so the SERVFAIL arrives before stub timeout
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=120.0)
    assert results[0].status == StubAnswer.SERVFAIL
    assert forwarder.upstream_timeouts == forwarder.upstream_queries


def test_forwarder_does_not_cache_failures(world):
    config = ForwarderConfig(cache=CacheConfig())
    forwarder = ForwardingResolver(
        world.sim, world.network, "100.64.9.5", ["100.64.0.250"],
        config=config, name="fwd5",
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.5", 10, [forwarder.address], results,
        timeout=60.0,
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=90.0)
    assert len(forwarder.cache) == 0


def test_flush_caches_noop_without_cache(world):
    forwarder, _stub, _results = build_chain(world)
    forwarder.flush_caches()  # must not raise
    stats = forwarder.stats()
    assert set(stats) == {"client_queries", "upstream_queries", "upstream_timeouts"}
