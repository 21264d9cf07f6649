"""Small-surface tests: validation branches and display helpers."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import Rcode, RRClass, RRType


def test_enum_str_forms():
    assert str(RRType.AAAA) == "AAAA"
    assert str(RRClass.IN) == "IN"
    assert str(Rcode.NXDOMAIN) == "NXDOMAIN"


def test_probe_requires_matching_kind_list(world):
    from repro.clients.probe import Probe
    from repro.resolvers.stub import StubResolver

    stub = StubResolver(
        world.sim, world.network, "10.0.0.7", 5, ["100.64.0.1", "100.64.0.2"]
    )
    with pytest.raises(ValueError):
        Probe(5, stub, Name.from_text("5.cachetest.nl."), ["isp"])
    probe = Probe(5, stub, Name.from_text("5.cachetest.nl."), ["isp", "public"])
    assert probe.vp_count == 2


def test_refusing_resolver_answers_refused(world):
    from repro.clients.population import RefusingResolver
    from repro.dnscore.message import make_query

    RefusingResolver(world.sim, world.network, "100.64.5.5")
    received = []
    world.network.register("10.0.0.8", received.append)
    world.network.send(
        "10.0.0.8",
        "100.64.5.5",
        make_query(Name.from_text("x.cachetest.nl."), RRType.A),
    )
    world.sim.run(until=1.0)
    assert received[0].message.rcode == Rcode.REFUSED


def test_registry_rejects_unknown_kind():
    from repro.clients.publicdns import ResolverRegistry

    registry = ResolverRegistry()
    with pytest.raises(ValueError):
        registry.register_recursive("1.2.3.4", "mystery")


def test_default_public_services_shares_sane():
    from repro.clients.publicdns import default_public_services

    services = default_public_services()
    total_share = sum(service.vp_share for service in services)
    assert 0.2 < total_share < 0.4
    google = [service for service in services if service.google_like]
    assert len(google) == 1
    assert google[0].vp_share > max(
        service.vp_share for service in services if not service.google_like
    )


def test_render_timeseries_without_attack_column():
    from repro.analysis.figures import render_timeseries_table

    text = render_timeseries_table("T", {0: {"ok": 1}}, ["ok"])
    assert "attack" not in text


def test_outcome_reprs():
    from repro.resolvers.recursive import Outcome

    ok = Outcome(Outcome.OK, from_cache=True)
    assert "cache" in repr(ok)
    stale = Outcome(Outcome.OK, stale=True)
    assert "stale" in repr(stale)
    assert Outcome(Outcome.NODATA).rcode == Rcode.NOERROR
    assert Outcome(Outcome.SERVFAIL).rcode == Rcode.SERVFAIL


def test_dataset_counts_with_no_answers(world):
    from repro.core.experiments.baseline import dataset_counts
    from repro.core.testbed import Testbed, TestbedConfig
    from repro.clients.population import PopulationConfig

    testbed = Testbed(
        TestbedConfig(population=PopulationConfig(probe_count=5))
    )
    counts = dataset_counts(testbed, testbed.population.results)
    assert counts.queries == 0
    assert counts.probes == 5
    assert counts.probes_discarded == 5


def test_pool_internal_delay_applies(world):
    import random

    from repro.dnscore.message import make_query
    from repro.resolvers.pool import PoolConfig, PublicResolverPool
    from repro.resolvers.stub import AnswerLog, StubResolver

    pool = PublicResolverPool(
        world.sim,
        world.network,
        "198.18.0.7",
        ["8.0.3.1"],
        world.root_hints,
        config=PoolConfig(backend_count=1, internal_delay=0.25),
        rng=random.Random(0),
    )
    results = AnswerLog()
    stub = StubResolver(
        world.sim, world.network, "10.0.0.9", 3, ["198.18.0.7"], results
    )
    world.sim.call_later(
        0.0, stub.query_round, Name.from_text("3.cachetest.nl."), RRType.AAAA, 0
    )
    world.sim.run(until=30.0)
    assert results[0].latency is not None
    assert results[0].latency > 0.25  # the LB hop is on the path


def test_spec_describe_strings():
    from repro.core.experiments import DDOS_EXPERIMENTS

    text = DDOS_EXPERIMENTS["D"].describe()
    assert "one NS" in text
    assert "50%" in text
