"""Cross-module integration scenarios."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.records import CNAME, A
from repro.dnscore.rrtypes import RRType
from repro.dnscore.wire import from_wire, to_wire
from repro.netem.attack import AttackWindow
from repro.resolvers.recursive import Outcome, RecursiveResolver, ResolverConfig
from repro.resolvers.stub import AnswerLog, StubAnswer, StubResolver
from repro.servers.authoritative import AuthoritativeServer

QNAME = Name.from_text("1414.cachetest.nl.")


def test_cname_chase_across_names(world):
    # www.cachetest.nl -> CNAME -> web.cachetest.nl (A record).
    www = Name.from_text("www.cachetest.nl.")
    web = Name.from_text("web.cachetest.nl.")
    world.test_zone.add(www, 300, CNAME(web))
    world.test_zone.add(web, 300, A("192.0.2.80"))
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    outcomes = []
    world.sim.call_later(0.0, resolver.resolve, www, RRType.A, outcomes.append)
    world.sim.run(until=30.0)
    assert outcomes and outcomes[0].is_success
    assert outcomes[0].records[0].rdata.address == "192.0.2.80"


def test_cname_loop_terminates(world):
    # a -> b -> a: the resolver must give up, not spin.
    a = Name.from_text("a.cachetest.nl.")
    b = Name.from_text("b.cachetest.nl.")
    world.test_zone.add(a, 300, CNAME(b))
    world.test_zone.add(b, 300, CNAME(a))
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    outcomes = []
    world.sim.call_later(0.0, resolver.resolve, a, RRType.A, outcomes.append)
    world.sim.run(until=60.0)
    assert outcomes
    assert outcomes[0].status == Outcome.SERVFAIL


def test_anycast_authoritative_service(world):
    # Replicate the test zone behind one anycast address with two
    # instances; a resolver using only the anycast address still works.
    inst1 = AuthoritativeServer(
        world.sim, world.network, "198.18.1.1", [world.test_zone], name="any-1"
    )
    inst2 = AuthoritativeServer(
        world.sim, world.network, "198.18.1.2", [world.test_zone], name="any-2"
    )
    world.network.register_anycast("198.18.0.1", [inst1.address, inst2.address])
    # Root zone must delegate to the anycast address: patch a resolver
    # to use it directly as a "root hint" for simplicity — the zone
    # serves everything including the root-side data it knows.
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.7", ["198.18.0.1"]
    )
    outcomes = []
    world.sim.call_later(0.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    world.sim.run(until=30.0)
    assert outcomes and outcomes[0].is_success
    assert inst1.queries_received + inst2.queries_received > 0


def test_wire_format_end_to_end(world, monkeypatch):
    # Same resolution with full RFC 1035 serialization on every packet:
    # each message is re-decoded from its wire bytes before it is sent.
    send = world.network.send

    def send_decoded(src, dst, message, transport="udp"):
        decoded = from_wire(to_wire(message))
        decoded.trace_id = message.trace_id  # simulation metadata
        return send(src, dst, decoded, transport)

    monkeypatch.setattr(world.network, "send", send_decoded)
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints,
        config=ResolverConfig(),
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, [resolver.address], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.OK
    assert results[0].serial == 1
    assert results[0].encoded_ttl == world.zone_ttl


def test_zone_rotation_changes_serial_in_answers(world):
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints,
        config=ResolverConfig(),
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, [resolver.address], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.at(600.0, world.test_zone.set_serial, 2)
    # Re-query after the cache expired (TTL 3600): use a fresh probe name
    # to force a fresh fetch instead.
    other = Name.from_text("1415.cachetest.nl.")
    world.sim.at(700.0, stub.query_round, other, RRType.AAAA, 1)
    world.sim.run(until=800.0)
    assert results[0].serial == 1
    assert results[1].serial == 2


def test_partial_loss_some_queries_survive(world):
    # 70% loss: with retries the stub should still mostly succeed.
    world.attacks.add(AttackWindow(world.target_addresses, 0.0, 1e6, 0.7))
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, [resolver.address], results
    )
    ok = 0
    for index in range(20):
        name = Name.from_text(f"{2000 + index}.cachetest.nl.")
        world.sim.at(index * 30.0, stub.query_one, name, RRType.AAAA, index, resolver.address)
    world.sim.run(until=700.0)
    ok = sum(1 for answer in results if answer.status == StubAnswer.OK)
    assert ok >= 12  # most queries pushed through by retries


def test_multi_resolver_shared_authoritative_load(world):
    # Two independent resolvers each fetch NS/A once; the target zone
    # sees both (no cross-resolver cache sharing).
    resolvers = [
        RecursiveResolver(
            world.sim, world.network, f"100.64.0.{index}", world.root_hints
        )
        for index in (1, 2)
    ]
    for index, resolver in enumerate(resolvers):
        world.sim.call_later(
            0.0, resolver.resolve, QNAME, RRType.AAAA, lambda outcome: None
        )
    world.sim.run(until=30.0)
    sources = {entry.src for entry in world.query_log.entries}
    assert sources == {"100.64.0.1", "100.64.0.2"}


def test_negative_answer_counts_at_server_not_duplicated(world):
    # The AAAA-for-NS chase produces exactly one NODATA per NS name,
    # then negative caching suppresses repeats within the negative TTL.
    config = ResolverConfig()
    config.chase_ns_aaaa = True
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints, config=config
    )
    outcomes = []
    world.sim.call_later(0.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    world.sim.call_later(5.0, resolver.resolve, QNAME, RRType.A, outcomes.append)
    world.sim.run(until=30.0)
    aaaa_ns_queries = [
        entry
        for entry in world.query_log.entries
        if entry.qtype == RRType.AAAA and str(entry.qname).startswith("ns")
    ]
    assert len(aaaa_ns_queries) == 2  # one per nameserver, not re-asked
