"""Unit tests for the stub resolver and StubAnswer accounting."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import Rcode, RRType
from repro.resolvers.recursive import RecursiveResolver
from repro.resolvers.stub import ATLAS_TIMEOUT, AnswerLog, StubAnswer, StubResolver

QNAME = Name.from_text("1414.cachetest.nl.")


def test_stub_requires_recursives(world):
    with pytest.raises(ValueError):
        StubResolver(world.sim, world.network, "10.0.0.9", 1, [])


def test_successful_answer_parsed(world):
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, [resolver.address], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    answer = results[0]
    assert answer.status == StubAnswer.OK
    assert answer.probe_id == 1414
    assert answer.serial == 1
    assert answer.encoded_ttl == world.zone_ttl
    assert answer.returned_ttl == world.zone_ttl
    assert answer.latency is not None and answer.latency > 0
    assert answer.rcode == Rcode.NOERROR


def test_timeout_yields_no_answer(world):
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1, ["100.64.0.250"], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.NO_ANSWER
    assert results[0].latency is None


def test_late_response_after_timeout_ignored(world):
    # A recursive that answers after the stub's (short) timeout.
    class SlowHost:
        def __init__(self, sim, network, address):
            self.sim = sim
            self.network = network
            self.address = address
            network.register(address, self.on_packet)

        def on_packet(self, packet):
            from repro.dnscore.message import make_response

            if packet.message.qr:
                return
            response = make_response(packet.message, ra=True)
            self.sim.call_later(
                2.0, self.network.send, self.address, packet.src, response
            )

    SlowHost(world.sim, world.network, "100.64.0.50")
    results = AnswerLog()
    stub = StubResolver(
        world.sim,
        world.network,
        "10.0.0.1",
        1,
        ["100.64.0.50"],
        results,
        timeout=1.0,
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=10.0)
    assert results[0].status == StubAnswer.NO_ANSWER


def test_query_round_fans_out_to_all_recursives(world):
    resolvers = [
        RecursiveResolver(
            world.sim, world.network, f"100.64.0.{index}", world.root_hints
        )
        for index in (1, 2, 3)
    ]
    results = AnswerLog()
    stub = StubResolver(
        world.sim,
        world.network,
        "10.0.0.1",
        1414,
        [resolver.address for resolver in resolvers],
        results,
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert len(results) == 3
    assert {answer.resolver for answer in results} == {
        "100.64.0.1",
        "100.64.0.2",
        "100.64.0.3",
    }
    assert all(answer.status == StubAnswer.OK for answer in results)


def test_servfail_recorded(world):
    from repro.dnscore.message import make_response

    class ServfailHost:
        def __init__(self, sim, network, address):
            self.network = network
            self.address = address
            network.register(address, self.on_packet)

        def on_packet(self, packet):
            if packet.message.qr:
                return
            self.network.send(
                self.address,
                packet.src,
                make_response(packet.message, rcode=Rcode.SERVFAIL, ra=True),
            )

    ServfailHost(world.sim, world.network, "100.64.0.66")
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1, ["100.64.0.66"], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=10.0)
    assert results[0].status == StubAnswer.SERVFAIL


def test_nxdomain_recorded(world):
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1, [resolver.address], results
    )
    bogus = Name.from_text("bogus.cachetest.nl.")
    world.sim.call_later(0.0, stub.query_round, bogus, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.NXDOMAIN


def test_default_timeout_is_atlas_5s(world):
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1, ["100.64.0.250"]
    )
    assert stub.timeout == ATLAS_TIMEOUT == 5.0


def test_round_index_tracked(world):
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, [resolver.address], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.call_later(600.0, stub.query_round, QNAME, RRType.AAAA, 1)
    world.sim.run(until=700.0)
    assert [answer.round_index for answer in results] == [0, 1]
