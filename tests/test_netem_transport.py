"""Unit tests for the datagram transport."""

import pytest

from repro.dnscore.message import make_query
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.netem.attack import AttackSchedule, AttackWindow
from repro.netem.link import ConstantLatency
from repro.netem.transport import Network
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import Simulator

QNAME = Name.from_text("x.test.")


def make_network(**kwargs) -> tuple:
    sim = Simulator()
    network = Network(
        sim, RandomStreams(5), latency=ConstantLatency(0.01), **kwargs
    )
    return sim, network


def test_delivery_after_latency():
    sim, network = make_network()
    received = []
    network.register("b", lambda packet: received.append((sim.now, packet)))
    network.send("a", "b", make_query(QNAME, RRType.A))
    sim.run()
    assert len(received) == 1
    time, packet = received[0]
    assert time == pytest.approx(0.01)
    assert packet.src == "a"
    assert packet.dst == "b"


def test_unroutable_destination_blackholes():
    sim, network = make_network()
    assert network.send("a", "nowhere", make_query(QNAME, RRType.A)) is False
    assert network.counters.dropped_baseline == 1


def test_duplicate_registration_rejected():
    _sim, network = make_network()
    network.register("b", lambda packet: None)
    with pytest.raises(ValueError):
        network.register("b", lambda packet: None)


def test_baseline_loss_drops_fraction():
    sim, network = make_network(baseline_loss=0.5)
    received = []
    network.register("b", received.append)
    for _ in range(400):
        network.send("a", "b", make_query(QNAME, RRType.A))
    sim.run()
    assert 120 < len(received) < 280  # ~200 expected


def test_attack_drops_inbound_at_target_only():
    attacks = AttackSchedule([AttackWindow(["victim"], 0.0, 100.0, 1.0)])
    sim, network = make_network(attacks=attacks)
    victim_received = []
    bystander_received = []
    network.register("victim", victim_received.append)
    network.register("bystander", bystander_received.append)
    for _ in range(50):
        network.send("a", "victim", make_query(QNAME, RRType.A))
        network.send("a", "bystander", make_query(QNAME, RRType.A))
    sim.run()
    assert victim_received == []
    assert len(bystander_received) == 50
    assert network.counters.dropped_attack == 50


def test_attack_evaluated_at_arrival_time():
    # The attack starts at t=0.005; a packet sent at t=0 arrives at
    # t=0.01, inside the window, so it is dropped.
    attacks = AttackSchedule([AttackWindow(["v"], 0.005, 1.0, 1.0)])
    sim, network = make_network(attacks=attacks)
    received = []
    network.register("v", received.append)
    network.send("a", "v", make_query(QNAME, RRType.A))
    sim.run()
    assert received == []


def test_anycast_stable_catchment():
    sim, network = make_network()
    hits = {"i1": [], "i2": []}
    network.register("i1", hits["i1"].append)
    network.register("i2", hits["i2"].append)
    network.register_anycast("any", ["i1", "i2"])
    for _ in range(10):
        network.send("client-a", "any", make_query(QNAME, RRType.A))
    sim.run()
    # One instance gets everything: catchments are stable per source.
    counts = sorted(len(hits[i]) for i in hits)
    assert counts == [0, 10]


def test_anycast_distributes_across_sources():
    sim, network = make_network()
    hits = {"i1": 0, "i2": 0, "i3": 0, "i4": 0}

    def make_handler(key):
        def handler(packet):
            hits[key] += 1

        return handler

    for key in hits:
        network.register(key, make_handler(key))
    network.register_anycast("any", list(hits))
    for index in range(200):
        network.send(f"client-{index}", "any", make_query(QNAME, RRType.A))
    sim.run()
    assert sum(hits.values()) == 200
    assert all(count > 10 for count in hits.values())


def test_anycast_requires_registered_instances():
    _sim, network = make_network()
    with pytest.raises(ValueError):
        network.register_anycast("any", ["ghost"])
    with pytest.raises(ValueError):
        network.register_anycast("any", [])


def test_tap_sees_packets_dropped_by_attack():
    attacks = AttackSchedule([AttackWindow(["v"], 0.0, 100.0, 1.0)])
    sim, network = make_network(attacks=attacks)
    delivered = []
    tapped = []
    network.register("v", delivered.append)
    network.register_tap("v", tapped.append)
    for _ in range(20):
        network.send("a", "v", make_query(QNAME, RRType.A))
    sim.run()
    assert delivered == []
    assert len(tapped) == 20


def test_counters_track_outcomes():
    sim, network = make_network()
    network.register("b", lambda packet: None)
    network.send("a", "b", make_query(QNAME, RRType.A))
    sim.run()
    stats = network.counters.as_dict()
    assert stats["sent"] == 1
    assert stats["delivered"] == 1
    assert stats["dropped_attack"] == 0


def test_invalid_baseline_loss_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, RandomStreams(0), baseline_loss=1.0)


def test_update_anycast_rehashes_catchments():
    sim, network = make_network()
    hits = {"i1": [], "i2": [], "i3": []}
    for key in hits:
        network.register(key, hits[key].append)
    network.register_anycast("any", ["i1", "i2", "i3"])
    before = {
        f"c{i}": network.anycast_catchment(f"c{i}", "any") for i in range(30)
    }
    # Withdraw i1: its clients must land elsewhere.
    network.update_anycast("any", ["i2", "i3"])
    after = {
        f"c{i}": network.anycast_catchment(f"c{i}", "any") for i in range(30)
    }
    assert all(instance != "i1" for instance in after.values())
    moved = [src for src, instance in before.items() if instance == "i1"]
    assert moved, "no client was homed on i1 before withdrawal"
    for src in moved:
        assert after[src] in ("i2", "i3")


def test_update_anycast_validation():
    sim, network = make_network()
    network.register("i1", lambda packet: None)
    network.register_anycast("any", ["i1"])
    with pytest.raises(ValueError):
        network.update_anycast("nope", ["i1"])
    with pytest.raises(ValueError):
        network.update_anycast("any", [])
    with pytest.raises(ValueError):
        network.update_anycast("any", ["ghost"])


def test_anycast_catchment_requires_group():
    sim, network = make_network()
    with pytest.raises(ValueError):
        network.anycast_catchment("src", "not-anycast")


def test_unregister_makes_address_unroutable():
    sim, network = make_network()
    received = []
    network.register("b", received.append)
    network.unregister("b")
    assert network.send("a", "b", make_query(QNAME, RRType.A)) is False


def _landing(sim, network, hits, src):
    """Send one packet from ``src`` to the anycast group; the instance hit."""
    for packets in hits.values():
        packets.clear()
    network.send(src, "any", make_query(QNAME, RRType.A))
    sim.run()
    (instance,) = [key for key, packets in hits.items() if packets]
    return instance


def test_catchment_memo_follows_anycast_changes():
    sim, network = make_network()
    hits = {"i1": [], "i2": [], "i3": [], "i4": []}
    for key in hits:
        network.register(key, hits[key].append)
    network.register_anycast("any", ["i1", "i2", "i3"])
    src = "c7"
    first = _landing(sim, network, hits, src)
    assert first == network.anycast_catchment(src, "any")
    assert _landing(sim, network, hits, src) == first  # served from the memo

    # Withdraw the site this source is homed on: the next packet re-hashes.
    network.update_anycast("any", [i for i in ("i1", "i2", "i3") if i != first])
    rehashed = _landing(sim, network, hits, src)
    assert rehashed != first
    assert rehashed == network.anycast_catchment(src, "any")

    # Re-declaring the group over one new site moves every source there.
    network.register_anycast("any", ["i4"])
    assert _landing(sim, network, hits, src) == "i4"
    assert network.anycast_catchment(src, "any") == "i4"


def test_tap_and_delivery_share_one_packet():
    sim, network = make_network()
    tapped, delivered = [], []
    network.register("b", delivered.append)
    network.register_tap("b", tapped.append)
    network.send("a", "b", make_query(QNAME, RRType.A), transport="tcp")
    sim.run()
    assert len(tapped) == 1 and delivered == tapped
    assert delivered[0] is tapped[0]
    assert delivered[0].transport == "tcp"
    with pytest.raises(ValueError):
        network.send("a", "b", make_query(QNAME, RRType.A), transport="quic")
