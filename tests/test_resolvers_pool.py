"""Unit tests for public resolver pools (anycast + fragmented caches)."""

import random

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.resolvers.pool import PoolConfig, PublicResolverPool
from repro.resolvers.stub import AnswerLog, StubAnswer, StubResolver

QNAME = Name.from_text("1414.cachetest.nl.")


def build_pool(world, backend_count=4, balancing="random", **pool_kwargs):
    backends = [f"8.0.0.{index + 1}" for index in range(backend_count)]
    pool = PublicResolverPool(
        world.sim,
        world.network,
        "198.18.0.1",
        backends,
        world.root_hints,
        config=PoolConfig(
            backend_count=backend_count, balancing=balancing, **pool_kwargs
        ),
        name="pool",
        rng=random.Random(99),
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.1", 1414, ["198.18.0.1"], results
    )
    return pool, stub, results


def test_pool_resolves_via_backend(world):
    pool, stub, results = build_pool(world)
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    assert results[0].status == StubAnswer.OK
    assert pool.client_queries == 1
    # Exactly one backend did the work.
    active = [b for b in pool.backends if b.upstream_queries > 0]
    assert len(active) == 1


def test_random_balancing_fragments_caches(world):
    pool, stub, results = build_pool(world, backend_count=4, balancing="random")
    for round_index in range(12):
        world.sim.at(round_index * 30.0, stub.query_round, QNAME, RRType.AAAA, round_index)
    world.sim.run(until=600.0)
    # Multiple backends answered over the rounds: fragmented caches.
    active = [b for b in pool.backends if b.client_queries > 0]
    assert len(active) >= 3
    # Every backend that answered had to fetch independently at least once.
    for backend in active:
        assert backend.upstream_queries > 0


def test_sticky_balancing_mostly_one_backend(world):
    pool, stub, results = build_pool(
        world, backend_count=4, balancing="sticky", sticky_rebalance=0.0
    )
    for round_index in range(10):
        world.sim.at(round_index * 30.0, stub.query_round, QNAME, RRType.AAAA, round_index)
    world.sim.run(until=600.0)
    active = [b for b in pool.backends if b.client_queries > 0]
    assert len(active) == 1


def test_unknown_balancing_mode_rejected(world):
    pool, stub, _ = build_pool(world)
    pool.config.balancing = "bogus"
    with pytest.raises(ValueError):
        pool._pick_backend("10.0.0.1")


def test_pool_requires_backends(world):
    with pytest.raises(ValueError):
        PublicResolverPool(
            world.sim, world.network, "198.18.0.9", [], world.root_hints
        )


def test_answers_come_from_ingress_address(world):
    pool, stub, results = build_pool(world)
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    # The stub accounts the answer to the address it queried (ingress).
    assert results[0].resolver == "198.18.0.1"
    assert results[0].status == StubAnswer.OK


def test_flush_caches_hits_all_backends(world):
    pool, stub, results = build_pool(world)
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    pool.flush_caches()
    assert all(len(backend.cache) == 0 for backend in pool.backends)


def test_stats_structure(world):
    pool, stub, results = build_pool(world)
    world.sim.call_later(0.0, stub.query_round, QNAME, RRType.AAAA, 0)
    world.sim.run(until=30.0)
    stats = pool.stats()
    assert stats["client_queries"] == 1
    assert len(stats["backends"]) == 4


def test_backend_config_factory_applied(world):
    from repro.resolvers.recursive import ResolverConfig

    def factory(index):
        config = ResolverConfig()
        config.cache.max_ttl = 100 + index
        return config

    backends = [f"8.0.1.{index + 1}" for index in range(3)]
    pool = PublicResolverPool(
        world.sim,
        world.network,
        "198.18.0.2",
        backends,
        world.root_hints,
        name="pool2",
        backend_config_factory=factory,
    )
    assert [b.config.cache.max_ttl for b in pool.backends] == [100, 101, 102]
