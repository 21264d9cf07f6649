"""Integration-grade unit tests for the iterative recursive resolver."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import Rcode, RRType
from repro.netem.attack import AttackWindow
from repro.resolvers.cache import CacheConfig
from repro.resolvers.recursive import Outcome, RecursiveResolver, ResolverConfig
from repro.resolvers.retry import bind_profile, unbound_profile

QNAME = Name.from_text("1414.cachetest.nl.")
ZONE = Name.from_text("cachetest.nl.")


def make_resolver(world, config=None, address="100.64.0.1"):
    return RecursiveResolver(
        world.sim,
        world.network,
        address,
        world.root_hints,
        config=config,
        name="test-resolver",
    )


def resolve(world, resolver, qname=QNAME, qtype=RRType.AAAA, run_for=60.0):
    outcomes = []
    world.sim.call_later(0.0, resolver.resolve, qname, qtype, outcomes.append)
    world.sim.run(until=world.sim.now + run_for)
    assert outcomes, "resolution never completed"
    return outcomes[0]


def test_full_iteration_from_root(world):
    resolver = make_resolver(world)
    outcome = resolve(world, resolver)
    assert outcome.is_success
    serial, probe_id, ttl = outcome.records[0].rdata.fields()
    assert probe_id == 1414
    assert ttl == world.zone_ttl
    # The walk hit root, TLD, and one target server.
    assert len(world.parent_log) >= 2
    assert len(world.query_log) >= 1


def test_second_query_served_from_cache(world):
    resolver = make_resolver(world)
    resolve(world, resolver)
    upstream_before = resolver.upstream_queries
    outcome = resolve(world, resolver)
    assert outcome.is_success
    assert outcome.from_cache
    assert resolver.upstream_queries == upstream_before


def test_cached_answer_ttl_decrements(world):
    resolver = make_resolver(world)
    first = resolve(world, resolver)
    world.sim.run(until=world.sim.now + 100.0)
    second = resolve(world, resolver)
    assert second.from_cache
    assert second.records[0].ttl <= first.records[0].ttl - 100


def test_nodata_negative_cached(world):
    resolver = make_resolver(world)
    # Probe names exist but have no A records (AAAA-only instrumentation).
    outcome = resolve(world, resolver, qtype=RRType.A)
    assert outcome.status == Outcome.NODATA
    upstream_before = resolver.upstream_queries
    again = resolve(world, resolver, qtype=RRType.A)
    assert again.status == Outcome.NODATA
    assert again.from_cache
    assert resolver.upstream_queries == upstream_before


def test_nxdomain(world):
    resolver = make_resolver(world)
    outcome = resolve(world, resolver, qname=Name.from_text("bogus.cachetest.nl."))
    assert outcome.status == Outcome.NXDOMAIN
    assert outcome.rcode == Rcode.NXDOMAIN


def test_inflight_queries_coalesce(world):
    resolver = make_resolver(world)
    outcomes = []
    world.sim.call_later(0.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    world.sim.call_later(0.001, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    world.sim.run(until=30.0)
    assert len(outcomes) == 2
    # Only one AAAA-for-PID query reached the authoritatives.
    pid_queries = [
        entry for entry in world.query_log.entries if entry.qname == QNAME
    ]
    assert len(pid_queries) == 1


def test_servfail_when_target_zone_dead(world):
    world.attacks.add(AttackWindow(world.target_addresses, 0.0, 1e6, 1.0))
    resolver = make_resolver(world)
    outcome = resolve(world, resolver, run_for=120.0)
    assert outcome.status == Outcome.SERVFAIL
    assert resolver.upstream_timeouts > 0


def test_retries_spread_across_both_servers(world):
    world.attacks.add(AttackWindow(world.target_addresses, 0.0, 1e6, 1.0))
    resolver = make_resolver(world, config=ResolverConfig(retry=bind_profile()))
    resolve(world, resolver, run_for=120.0)
    offered_servers = set()
    # Delivered log is empty (100% drop): check the resolver's counters.
    assert resolver.upstream_timeouts >= 4


def test_failover_to_surviving_authoritative(world):
    """Resilience matches the strongest authoritative (§8): with one
    target dead for the whole run, every resolution still succeeds and
    the dead server is delivered nothing."""
    world.attacks.add(AttackWindow([world.AT1], 0.0, 1e9, 1.0))
    resolver = make_resolver(world)
    outcomes = []
    for index in range(60):
        qname = Name.from_text(f"{index + 1}.cachetest.nl.")
        world.sim.at(index * 2.0, resolver.resolve, qname, RRType.AAAA, outcomes.append)
    world.sim.run(until=150.0)
    assert len(outcomes) == 60
    assert all(outcome.is_success for outcome in outcomes)
    assert world.at1.queries_received == 0
    assert world.at2.queries_received >= 60


def test_requery_parent_on_failure_hits_parents_again(world):
    world.attacks.add(AttackWindow(world.target_addresses, 0.0, 1e6, 1.0))
    config = ResolverConfig(retry=bind_profile())
    assert config.retry.requery_parent_on_failure
    resolver = make_resolver(world, config=config)
    resolve(world, resolver, run_for=120.0)
    # Parents see the initial walk plus the post-failure re-query.
    tld_queries = [
        entry
        for entry in world.parent_log.entries
        if entry.server == world.tld_server.name and entry.qname == QNAME
    ]
    assert len(tld_queries) >= 2


def test_unbound_chases_aaaa_for_ns(world):
    config = ResolverConfig(retry=unbound_profile())
    config.chase_ns_aaaa = True
    resolver = make_resolver(world, config=config)
    resolve(world, resolver)
    world.sim.run(until=world.sim.now + 10.0)
    aaaa_ns = [
        entry
        for entry in world.query_log.entries
        if entry.qtype == RRType.AAAA
        and entry.qname in (
            Name.from_text("ns1.cachetest.nl."),
            Name.from_text("ns2.cachetest.nl."),
        )
    ]
    assert len(aaaa_ns) == 2


def test_requery_delegation_validates_glue(world):
    config = ResolverConfig(retry=unbound_profile())
    config.requery_delegation = True
    resolver = make_resolver(world, config=config)
    resolve(world, resolver)
    world.sim.run(until=world.sim.now + 10.0)
    ns_queries = [
        entry
        for entry in world.query_log.entries
        if entry.qtype == RRType.NS and entry.qname == ZONE
    ]
    assert len(ns_queries) == 1
    # The cached NS entry is now authoritative (child's answer).
    entry = resolver.cache.peek(ZONE, RRType.NS)
    assert entry is not None and entry.authoritative


def test_ns_query_answered_with_child_ttl_by_default(world):
    resolver = make_resolver(world)
    outcome = resolve(world, resolver, qname=ZONE, qtype=RRType.NS)
    assert outcome.is_success
    # Answer credibility requires the child's value (same TTL here, but
    # must be flagged authoritative in cache).
    entry = resolver.cache.peek(ZONE, RRType.NS)
    assert entry.authoritative


def test_serve_glue_answers_config(world):
    config = ResolverConfig()
    config.serve_glue_answers = True
    resolver = make_resolver(world, config=config)
    # Warm the delegation via a probe-name query.
    resolve(world, resolver)
    queries_before = resolver.upstream_queries
    outcome = resolve(world, resolver, qname=ZONE, qtype=RRType.NS)
    assert outcome.is_success
    assert outcome.from_cache  # straight from the referral-cached NS
    assert resolver.upstream_queries == queries_before


def test_serve_stale_after_expiry_during_outage(world):
    config = ResolverConfig(cache=CacheConfig(stale_window=3600.0))
    config.serve_stale = True
    resolver = make_resolver(world, config=config)
    first = resolve(world, resolver)
    assert first.is_success
    # Zone dies; cache expires.
    world.attacks.add(
        AttackWindow(world.target_addresses, world.sim.now, 1e6, 1.0)
    )
    world.sim.run(until=world.sim.now + world.zone_ttl + 10.0)
    stale = resolve(world, resolver, run_for=60.0)
    assert stale.is_success
    assert stale.stale
    assert stale.records[0].ttl == 0


def test_no_stale_without_config(world):
    resolver = make_resolver(world)
    resolve(world, resolver)
    world.attacks.add(
        AttackWindow(world.target_addresses, world.sim.now, 1e6, 1.0)
    )
    world.sim.run(until=world.sim.now + world.zone_ttl + 10.0)
    outcome = resolve(world, resolver, run_for=60.0)
    assert outcome.status == Outcome.SERVFAIL


def test_negative_ttl_respected(short_ttl_world):
    world = short_ttl_world
    resolver = make_resolver(world)
    resolve(world, resolver, qtype=RRType.A)  # NODATA, negative TTL 60
    upstream_before = resolver.upstream_queries
    world.sim.run(until=world.sim.now + 61.0)
    outcome = resolve(world, resolver, qtype=RRType.A)
    assert outcome.status == Outcome.NODATA
    assert not outcome.from_cache  # re-fetched after negative TTL expired
    assert resolver.upstream_queries > upstream_before


def test_expired_ns_triggers_new_referral_walk(short_ttl_world):
    world = short_ttl_world  # zone TTL 60 everywhere
    resolver = make_resolver(world)
    resolve(world, resolver)
    parent_before = len(world.parent_log)
    world.sim.run(until=world.sim.now + 120.0)
    resolve(world, resolver)
    assert len(world.parent_log) > parent_before


def test_client_query_via_network(world):
    from repro.resolvers.stub import AnswerLog, StubAnswer, StubResolver

    resolver = make_resolver(world)
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, [resolver.address], results
    )
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.OK
    assert results[0].serial == 1


def test_resolver_requires_root_hints(world):
    with pytest.raises(ValueError):
        RecursiveResolver(world.sim, world.network, "100.64.0.9", [])


def test_stats_accounting(world):
    resolver = make_resolver(world)
    resolve(world, resolver)
    stats = resolver.stats()
    assert stats["upstream_queries"] == stats["upstream_responses"]
    assert stats["upstream_timeouts"] == 0
    assert stats["cache"]["entries"] > 0
