"""Unit tests for the assembled testbed."""

import pytest

from repro.clients.population import PopulationConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType


def small_testbed(**kwargs) -> Testbed:
    population = kwargs.pop("population", PopulationConfig(probe_count=40))
    return Testbed(TestbedConfig(population=population, **kwargs))


def test_construction_wires_zone_tree():
    testbed = small_testbed()
    assert testbed.origin == Name.from_text("cachetest.nl.")
    assert len(testbed.servers[Name(())]) == 2
    assert len(testbed.servers[Name.from_text("nl.")]) == 2
    assert len(testbed.test_servers) == 2
    assert len(testbed.root_hints) == 2
    # The test zone delegated from the TLD.
    tld_zone = testbed.zones[Name.from_text("nl.")]
    assert testbed.origin in tld_zone.delegations()


def test_rotation_bumps_serial_every_interval():
    testbed = small_testbed()
    testbed.schedule_rotations(1900.0)
    testbed.run(1900.0, grace=0.0)
    # After 1800+ seconds: serial bumped at 600, 1200, 1800.
    assert testbed.test_zone.serial == 4
    assert testbed.rotation.serial_at(1900.0) == 4


def test_attack_targets_selection():
    testbed = small_testbed()
    window = testbed.add_attack(600.0, 600.0, 0.9, servers="both")
    assert window.targets == frozenset(testbed.test_server_addresses)
    one = testbed.add_attack(600.0, 600.0, 0.5, servers="one")
    assert one.targets == frozenset([testbed.test_server_addresses[0]])
    with pytest.raises(ValueError):
        testbed.add_attack(0.0, 1.0, 0.5, servers="three")


def test_offered_tap_counts_dropped_queries():
    testbed = small_testbed()
    testbed.add_attack(0.0, 3600.0, 1.0)
    testbed.schedule_probing(0.0, 600.0, 1, spread=10.0)
    testbed.run(120.0)
    # Nothing delivered, but offered queries were recorded.
    assert len(testbed.query_log) == 0
    assert len(testbed.offered_query_log) > 0


def test_probing_round_produces_vp_results():
    testbed = small_testbed()
    testbed.schedule_probing(0.0, 600.0, 2, spread=10.0)
    testbed.run(1200.0)
    results = testbed.population.results
    assert len(results) == 2 * testbed.population.vp_count


def test_zone_ttl_config_flows_to_answers():
    testbed = small_testbed(zone_ttl=300)
    testbed.schedule_probing(0.0, 600.0, 1, spread=5.0)
    testbed.run(60.0)
    ok = [answer for answer in testbed.population.results if answer.is_success]
    assert ok, "no successful answers"
    assert all(answer.encoded_ttl == 300 for answer in ok)


def test_delegation_ttl_override():
    testbed = small_testbed(zone_ttl=60, delegation_ttl=3600)
    tld_zone = testbed.zones[Name.from_text("nl.")]
    referral = tld_zone.lookup(
        Name.from_text("x.cachetest.nl."), RRType.AAAA
    )
    assert referral.authority[0].ttl == 3600
    own = testbed.test_zone.lookup(testbed.origin, RRType.NS)
    assert own.answers[0].ttl == 60


def test_churn_scheduling_runs():
    population = PopulationConfig(probe_count=40, flush_rate_per_hour=50.0)
    testbed = small_testbed(population=population)
    scheduled = testbed.schedule_churn(600.0)
    assert scheduled > 0
    testbed.run(600.0)  # flushes execute without error


def test_seed_determinism_end_to_end():
    def run_once():
        testbed = small_testbed(seed=77)
        testbed.schedule_rotations(600.0)
        testbed.schedule_probing(0.0, 600.0, 1, spread=30.0)
        testbed.run(600.0)
        return [
            (answer.probe_id, answer.resolver, answer.status, answer.serial)
            for answer in testbed.population.results
        ]

    assert run_once() == run_once()
