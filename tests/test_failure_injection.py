"""Failure-injection scenarios: outages, flushes, and partial deaths."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.netem.attack import AttackWindow
from repro.resolvers.cache import CacheConfig
from repro.resolvers.pool import PoolConfig, PublicResolverPool
from repro.resolvers.recursive import Outcome, RecursiveResolver, ResolverConfig
from repro.resolvers.stub import AnswerLog, StubAnswer, StubResolver

QNAME = Name.from_text("1414.cachetest.nl.")


def test_administrative_outage_and_recovery(world):
    """Disable both authoritatives (not an attack: a config push), then
    re-enable; clients fail in between and recover afterwards."""
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints,
        config=ResolverConfig(servfail_cache_ttl=0.0),
    )
    outcomes = []

    def disable():
        world.at1.enabled = False
        world.at2.enabled = False

    def enable():
        world.at1.enabled = True
        world.at2.enabled = True

    world.sim.at(0.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    world.sim.at(10.0, disable)
    other = Name.from_text("1500.cachetest.nl.")
    world.sim.at(11.0, resolver.resolve, other, RRType.AAAA, outcomes.append)
    world.sim.at(60.0, enable)
    world.sim.at(61.0, resolver.resolve, other, RRType.AAAA, outcomes.append)
    world.sim.run(until=120.0)
    assert [outcome.status for outcome in outcomes] == [
        Outcome.OK,
        Outcome.SERVFAIL,
        Outcome.OK,
    ]


def test_cache_flush_mid_attack_destroys_protection(world):
    """A resolver restart during a full outage turns cached success into
    failure — the paper's point that protection depends on cache state
    the operator does not control."""
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    outcomes = []
    world.sim.at(0.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    world.sim.at(
        30.0,
        world.attacks.add,
        AttackWindow(world.target_addresses, 30.0, 1e6, 1.0),
    )
    # Query during the outage with a warm cache: served.
    world.sim.at(60.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    # Restart (flush), then the same query fails.
    world.sim.at(90.0, resolver.flush_caches)
    world.sim.at(91.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    world.sim.run(until=180.0)
    assert [outcome.status for outcome in outcomes] == [
        Outcome.OK,
        Outcome.OK,
        Outcome.SERVFAIL,
    ]
    assert outcomes[1].from_cache


def test_pool_with_dead_backend_fails_a_share_of_queries(world):
    """Public pools without health checks hand a share of queries to a
    dead backend: those clients see failures while others are fine."""
    import random

    backends = [f"8.0.2.{index}" for index in (1, 2)]
    pool = PublicResolverPool(
        world.sim,
        world.network,
        "198.18.0.5",
        backends,
        world.root_hints,
        config=PoolConfig(backend_count=2, balancing="random"),
        name="pool",
        rng=random.Random(4),
        backend_config_factory=lambda index: ResolverConfig(
            retry=__import__(
                "repro.resolvers.retry", fromlist=["bind_profile"]
            ).bind_profile()
        ),
    )
    # Kill backend 0: unregister its address so its upstream exchanges
    # blackhole (a crashed machine still selected by the balancer).
    world.network.unregister(backends[0])

    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.9", 77, ["198.18.0.5"], results
    )
    qname = Name.from_text("77.cachetest.nl.")
    for round_index in range(12):
        world.sim.at(round_index * 30.0, stub.query_one, qname, RRType.AAAA, round_index, "198.18.0.5")
    world.sim.run(until=500.0)
    ok = sum(1 for answer in results if answer.status == StubAnswer.OK)
    failed = len(results) - ok
    assert ok > 0, "healthy backend never served"
    assert failed > 0, "dead backend never selected"


def test_zone_rotation_during_inflight_resolution(world):
    """A serial bump between query and answer must not corrupt anything;
    the answer carries whichever serial the authoritative held when it
    answered."""
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    outcomes = []
    world.sim.at(0.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
    # Rotate the zone while the walk is in flight (~15 ms in).
    world.sim.at(0.015, world.test_zone.set_serial, 2)
    world.sim.run(until=10.0)
    assert outcomes[0].is_success
    serial, _probe, _ttl = outcomes[0].records[0].rdata.fields()
    assert serial in (1, 2)


def test_churn_storm_during_attack_still_terminates(world):
    """Flushing every cache repeatedly during a DDoS must not wedge the
    resolver (no stuck tasks, no unbounded pending queries)."""
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints,
        config=ResolverConfig(servfail_cache_ttl=0.0),
    )
    world.attacks.add(AttackWindow(world.target_addresses, 0.0, 1e6, 0.9))
    outcomes = []
    for step in range(10):
        world.sim.at(step * 20.0, resolver.resolve, QNAME, RRType.AAAA, outcomes.append)
        world.sim.at(step * 20.0 + 5.0, resolver.flush_caches)
    world.sim.run(until=400.0)
    assert len(outcomes) == 10
    assert resolver._pending == {}
    assert all(task.done for task in resolver._tasks.values()) or not resolver._tasks


def test_tiny_cache_eviction_under_load(world):
    """A small cache still resolves; it just refetches. (The cache must
    at least hold one delegation chain — NS plus glue — or iteration
    starves; 5 entries is the practical floor for this tree.)"""
    config = ResolverConfig(cache=CacheConfig(max_entries=5))
    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints, config=config
    )
    outcomes = []
    for index in range(6):
        qname = Name.from_text(f"{3000 + index}.cachetest.nl.")
        world.sim.at(index * 5.0, resolver.resolve, qname, RRType.AAAA, outcomes.append)
    world.sim.run(until=120.0)
    assert all(outcome.is_success for outcome in outcomes)
    assert resolver.cache.evictions > 0
