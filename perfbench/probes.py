"""Public-function probes: ns/op of one layer's public calls, untraced.

Each probe times a fixed number of calls into one layer's public
functions on a bare ``Simulator`` (no testbed, no population), best of
``REPEATS``. A probe only *counts* when ``ns/op x calls`` (the exact
counts of the traced pass) explains the layer's self time; on its own a
probe is a micro-benchmark and predicts nothing.

Every probe imports what it needs when it runs, so a renamed or removed
internal turns that one metric into ``null`` with the reason instead of
breaking the benchmark.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Tuple

REPEATS = 5

#: A probe takes an op count and returns the elapsed seconds of its
#: timed region only.
Probe = Callable[[int], float]

PROBE_QNAME = "1414.cachetest.nl."


def _loop(ops: int, call: Callable[[], Any]) -> float:
    start = time.perf_counter()
    for _ in range(ops):
        call()
    return time.perf_counter() - start


def _noop(*_args: Any) -> None:
    return None


def drain(ops: int) -> float:
    from repro import Simulator

    sim = Simulator()
    for index in range(ops):
        sim.call_later(index * 0.001, _noop)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def cancel(ops: int) -> float:
    from repro import Simulator

    sim = Simulator()
    timers = [sim.call_later(1.0 + index * 0.001, _noop) for index in range(ops)]
    start = time.perf_counter()
    for timer in timers:
        timer.cancel()
    sim.run()
    return time.perf_counter() - start


def _network(loss: float) -> Tuple[Any, Any, Any]:
    from repro import AttackSchedule, AttackWindow, Name, Network, RRType, Simulator
    from repro.dnscore.message import make_query
    from repro.simcore.rng import RandomStreams

    sim = Simulator()
    attacks = AttackSchedule(
        [AttackWindow(["10.0.0.2"], 0.0, 1e9, loss)] if loss > 0 else []
    )
    network = Network(sim, RandomStreams(1), attacks=attacks)
    network.register("10.0.0.2", _noop)
    query = make_query(Name.from_text(PROBE_QNAME), RRType.AAAA)
    return sim, network, query


def _send(loss: float, ops: int) -> float:
    sim, network, query = _network(loss)
    start = time.perf_counter()
    for _ in range(ops):
        network.send("10.0.0.1", "10.0.0.2", query)
    sim.run()
    return time.perf_counter() - start


def send_deliver(ops: int) -> float:
    return _send(0.0, ops)


def send_drop(ops: int) -> float:
    return _send(0.9, ops)


def name_from_text(ops: int) -> float:
    from repro import Name

    return _loop(ops, lambda: Name.from_text(PROBE_QNAME))


def make_query_probe(ops: int) -> float:
    from repro import Name, RRType
    from repro.dnscore.message import make_query

    name = Name.from_text(PROBE_QNAME)
    return _loop(ops, lambda: make_query(name, RRType.AAAA))


def _probe_zone() -> Tuple[Any, Any]:
    from repro import Name, ZoneSpec, build_hierarchy
    from repro.servers.hierarchy import PROBE_ANSWER_PREFIX, attach_probe_synthesizer

    origin = "cachetest.nl."
    zones = build_hierarchy([ZoneSpec(origin, {f"ns1.{origin}": "10.0.0.2"})])
    zone = zones[Name.from_text(origin)]
    attach_probe_synthesizer(zone, PROBE_ANSWER_PREFIX, 1800)
    return zone, Name.from_text(PROBE_QNAME)


def _probe_response() -> Tuple[Any, Any]:
    from repro import RRType
    from repro.dnscore.message import make_query

    zone, qname = _probe_zone()
    query = make_query(qname, RRType.AAAA)
    return query, zone.lookup(qname, RRType.AAAA).answers


def make_response_probe(ops: int) -> float:
    from repro.dnscore.message import make_response

    query, answers = _probe_response()
    return _loop(ops, lambda: make_response(query, aa=True, answers=answers))


def wire_roundtrip(ops: int) -> float:
    from repro.dnscore.message import make_response
    from repro.dnscore.wire import from_wire, to_wire

    query, answers = _probe_response()
    response = make_response(query, aa=True, answers=answers)
    return _loop(ops, lambda: from_wire(to_wire(response)))


def probe_lookup(ops: int) -> float:
    from repro import RRType

    zone, qname = _probe_zone()
    return _loop(ops, lambda: zone.lookup(qname, RRType.AAAA))


def _cache() -> Tuple[Any, Any, Any]:
    from repro import DnsCache, RRType
    from repro.dnscore.records import RRset

    _query, answers = _probe_response()
    rrset = RRset(answers)
    cache = DnsCache()
    cache.put(rrset, 0.0)
    return cache, rrset, RRType.AAAA


def cache_get_hit(ops: int) -> float:
    cache, rrset, rtype = _cache()
    return _loop(ops, lambda: cache.get(rrset.name, rtype, 1.0))


def cache_get_miss(ops: int) -> float:
    from repro import Name

    cache, _rrset, rtype = _cache()
    absent = Name.from_text("absent.cachetest.nl.")
    return _loop(ops, lambda: cache.get(absent, rtype, 1.0))


def cache_put(ops: int) -> float:
    cache, rrset, _rtype = _cache()
    return _loop(ops, lambda: cache.put(rrset, 1.0))


def server_on_packet(ops: int) -> float:
    from repro import AuthoritativeServer, Network, RRType, Simulator
    from repro.dnscore.message import make_query
    from repro.netem.transport import Packet
    from repro.simcore.rng import RandomStreams

    zone, qname = _probe_zone()
    sim = Simulator()
    network = Network(sim, RandomStreams(1))
    server = AuthoritativeServer(sim, network, "10.0.0.2", [zone])
    # The reply goes to an unregistered source and blackholes at the
    # network, so the timed region is the server's work alone.
    packet = Packet("10.0.0.1", "10.0.0.2", make_query(qname, RRType.AAAA), 0.0)
    start = time.perf_counter()
    for _ in range(ops):
        server.on_packet(packet)
    sim.run()
    return time.perf_counter() - start


def defense_admit(ops: int) -> float:
    import random

    from repro.core.experiments.defense_study import defense_spec_for
    from repro.defense import build_defense

    # A capacity far above the probe's arrival rate keeps every call on
    # the serve path (filter lookup + RRL bucket + service queue).
    spec = defense_spec_for("+rrl+filter", 1e9)
    pipeline = build_defense(spec, random.Random(1)).make_pipeline()
    sources = [f"10.1.{index // 250}.{index % 250 + 1}" for index in range(1000)]
    clock = [0.0]

    def call() -> None:
        clock[0] += 0.001
        pipeline.admit(sources[int(clock[0] * 1000) % 1000], "udp", clock[0])

    return _loop(ops, call)


def sketch_update(ops: int) -> float:
    from repro.obs import SourceSketch

    sketch = SourceSketch()
    sources = [f"10.1.{index // 250}.{index % 250 + 1}" for index in range(1000)]
    start = time.perf_counter()
    for index in range(ops):
        sketch.update(sources[index % 1000])
    return time.perf_counter() - start


def counter_inc(ops: int) -> float:
    from repro import MetricsRegistry

    counter = MetricsRegistry().counter("probe.counter")
    return _loop(ops, counter.inc)


def snapshot(ops: int) -> float:
    from repro import MetricsRegistry

    registry = MetricsRegistry()
    for index in range(32):
        registry.counter(f"probe.counter{index}").inc()
    registry.register_collector("probe", lambda: {"a": 1, "b": 2})
    start = time.perf_counter()
    for index in range(ops):
        registry.snapshot(float(index), index)
    return time.perf_counter() - start


#: name -> (probe, ops, scale): the metric is ``elapsed / ops * scale``
#: (1e9 for ns/op, 1e6 for us/op).
PROBES: Dict[str, Tuple[Probe, int, float]] = {
    "simcore.drain_ns_per_event": (drain, 20000, 1e9),
    "simcore.cancel_ns_per_timer": (cancel, 20000, 1e9),
    "netem.send_deliver_ns": (send_deliver, 5000, 1e9),
    "netem.send_drop_ns": (send_drop, 5000, 1e9),
    "dnscore.name_from_text_ns": (name_from_text, 5000, 1e9),
    "dnscore.make_query_ns": (make_query_probe, 5000, 1e9),
    "dnscore.make_response_ns": (make_response_probe, 5000, 1e9),
    "dnscore.wire_roundtrip_ns": (wire_roundtrip, 1000, 1e9),
    "dnscore.probe_lookup_ns": (probe_lookup, 2000, 1e9),
    "resolvers.cache.get_hit_ns": (cache_get_hit, 5000, 1e9),
    "resolvers.cache.get_miss_ns": (cache_get_miss, 10000, 1e9),
    "resolvers.cache.put_ns": (cache_put, 5000, 1e9),
    "servers.on_packet_ns": (server_on_packet, 2000, 1e9),
    "defense.admit_ns": (defense_admit, 5000, 1e9),
    "obs.sketch_update_ns": (sketch_update, 5000, 1e9),
    "obs.counter_inc_ns": (counter_inc, 20000, 1e9),
    "obs.snapshot_us": (snapshot, 500, 1e6),
}


def run_probes() -> Dict[str, Dict[str, Any]]:
    """Run every probe; ``{"value": x}`` or ``{"value": None, "reason"}``."""
    results: Dict[str, Dict[str, Any]] = {}
    for name, (probe, ops, scale) in PROBES.items():
        try:
            best = min(probe(ops) for _ in range(REPEATS))
        except Exception as error:  # a probed symbol moved: degrade, don't fail
            results[name] = {"value": None, "reason": f"{type(error).__name__}: {error}"}
        else:
            results[name] = {"value": best / ops * scale}
    return results
