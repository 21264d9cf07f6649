"""Assembles one complete measurement world.

A :class:`Testbed` wires together everything an experiment needs: the
zone tree (root → parent TLD → measurement zone), replicated
authoritative servers with query logging, the probe population, zone
rotation (serial bump every 10 minutes, §3.2), cache churn, and the DDoS
attack schedule. Experiment runners configure a testbed, schedule probing
rounds, run the clock, and hand the raw results to the analysis code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.attackload import AttackLoadSpec, build_attack_load
from repro.clients.population import (
    Population,
    PopulationConfig,
    build_population,
)
from repro.defense import DefenseSpec, build_defense
from repro.core.classification import RotationSchedule
from repro.dnscore.name import Name
from repro.dnscore.zone import Zone
from repro.netem.address import default_allocator
from repro.netem.attack import AttackSchedule, AttackWindow
from repro.netem.link import PerHostLatency, draw_authoritative_base
from repro.netem.transport import Network
from repro.obs import Observability, ObsSpec
from repro.servers.authoritative import AuthoritativeServer
from repro.servers.hierarchy import (
    PROBE_ANSWER_PREFIX,
    ZoneSpec,
    attach_probe_synthesizer,
    build_hierarchy,
)
from repro.servers.querylog import QueryLog
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class TestbedConfig:
    """Scenario-wide parameters (experiment runners override per run).

    Frozen like every spec dataclass: the run's disk-cache key is
    computed from these fields, so they must not drift after a testbed
    is built (enforced by the ``spec-hygiene`` lint rule).
    """

    # Not a pytest test class, despite the name.
    __test__ = False

    seed: int = 42
    # The measurement zone's record TTL (the sweep variable of §3).
    zone_ttl: int = 3600
    # Negative-cache TTL of the measurement zone (§6.1: 60 s).
    negative_ttl: int = 60
    # Zone serial rotation interval (§3.2: every 10 minutes).
    rotation_interval: float = 600.0
    # TTL the parent publishes in referrals; None = same as zone_ttl.
    delegation_ttl: Optional[int] = None
    root_server_count: int = 2
    tld_server_count: int = 2
    test_server_count: int = 2
    zone_origin: str = "cachetest.nl."
    tld_origin: str = "nl."
    # Baseline packet loss: produces the pre-attack ~5% failure floor the
    # paper observes before any DDoS (§5.4).
    baseline_loss: float = 0.004
    population: PopulationConfig = field(default_factory=PopulationConfig)
    # Observability layers (tracing / metrics / profiling); None = all off.
    obs: Optional[ObsSpec] = None
    # Adversarial query streams (repro.attackload); None = no attackers.
    attack_load: Optional[AttackLoadSpec] = None
    # Authoritative-side defense layers (repro.defense); None = the
    # paper's infinitely-fast, undefended servers.
    defense: Optional[DefenseSpec] = None


class Testbed:
    """A fully wired simulation world."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()
        config = self.config
        self.sim = Simulator()
        self.obs = Observability.build(config.obs, self.sim)
        tracer = self.obs.tracer
        registry = self.obs.registry
        self.streams = RandomStreams(config.seed)
        self.allocator = default_allocator()
        self.latency = PerHostLatency(jitter=0.2)
        self.attacks = AttackSchedule()
        self.network = Network(
            self.sim,
            self.streams,
            latency=self.latency,
            attacks=self.attacks,
            baseline_loss=config.baseline_loss,
            tracer=tracer,
        )
        self.rotation = RotationSchedule(
            initial_serial=1, interval=config.rotation_interval
        )
        rng = self.streams.stream("testbed")

        # ------------------------------------------------------------------
        # Zone tree.
        # ------------------------------------------------------------------
        self.origin = Name.from_text(config.zone_origin)
        tld = Name.from_text(config.tld_origin)
        root_ns = {
            f"{chr(ord('a') + index)}.root-servers.test.": self.allocator.allocate(
                "authoritatives"
            )
            for index in range(config.root_server_count)
        }
        tld_label = config.tld_origin.rstrip(".")
        tld_ns = {
            f"ns{index + 1}.dns.{config.tld_origin}": self.allocator.allocate(
                "authoritatives"
            )
            for index in range(config.tld_server_count)
        }
        test_ns = {
            f"ns{index + 1}.{config.zone_origin}": self.allocator.allocate(
                "authoritatives"
            )
            for index in range(config.test_server_count)
        }
        specs = [
            ZoneSpec(".", root_ns),
            ZoneSpec(config.tld_origin, tld_ns),
            ZoneSpec(
                config.zone_origin,
                test_ns,
                ns_ttl=config.zone_ttl,
                a_ttl=config.zone_ttl,
                delegation_ttl=(
                    config.delegation_ttl
                    if config.delegation_ttl is not None
                    else config.zone_ttl
                ),
                negative_ttl=config.negative_ttl,
            ),
        ]
        self.zones: Dict[Name, Zone] = build_hierarchy(specs)
        self.test_zone = self.zones[self.origin]
        attach_probe_synthesizer(
            self.test_zone, PROBE_ANSWER_PREFIX, config.zone_ttl
        )

        # ------------------------------------------------------------------
        # Authoritative servers.
        # ------------------------------------------------------------------
        self.query_log = QueryLog()  # measurement-zone servers
        self.parent_query_log = QueryLog()  # root + TLD servers
        self.root_servers: List[AuthoritativeServer] = []
        self.tld_servers: List[AuthoritativeServer] = []
        self.test_servers: List[AuthoritativeServer] = []
        for host, address in root_ns.items():
            self.latency.set_base(address, draw_authoritative_base(rng))
            self.root_servers.append(
                AuthoritativeServer(
                    self.sim,
                    self.network,
                    address,
                    [self.zones[Name(())]],
                    name=f"root-{host.split('.')[0]}",
                    query_log=self.parent_query_log,
                )
            )
        for host, address in tld_ns.items():
            self.latency.set_base(address, draw_authoritative_base(rng))
            self.tld_servers.append(
                AuthoritativeServer(
                    self.sim,
                    self.network,
                    address,
                    [self.zones[tld]],
                    name=f"tld-{host.split('.')[0]}",
                    query_log=self.parent_query_log,
                )
            )
        # Defense layers (repro.defense) guard the measurement-zone
        # servers only — they are the attack's victims. The stack is
        # built solely when a layer is on, so undefended runs take the
        # exact pre-defense code path (and draw no "defense" stream).
        self.defense_stack = None
        if config.defense is not None and config.defense.enabled:
            self.defense_stack = build_defense(
                config.defense, self.streams.stream("defense")
            )
        for host, address in test_ns.items():
            self.latency.set_base(address, draw_authoritative_base(rng))
            self.test_servers.append(
                AuthoritativeServer(
                    self.sim,
                    self.network,
                    address,
                    [self.test_zone],
                    name=f"at-{host.split('.')[0]}",
                    query_log=self.query_log,
                    tracer=tracer,
                    defense=(
                        self.defense_stack.make_pipeline()
                        if self.defense_stack is not None
                        else None
                    ),
                )
            )
        self.root_hints = [server.address for server in self.root_servers]
        self.test_ns_names = [Name.from_text(host) for host in test_ns]
        self.test_server_addresses = [
            server.address for server in self.test_servers
        ]

        # Offered-load vantage (paper: "queries before they are dropped"):
        # a tap in front of each measurement-zone server records every
        # query regardless of the attack drop. When the flight recorder's
        # sketches are armed, the same tap feeds per-source accounting —
        # one closure per configuration so disabled runs pay nothing.
        self.offered_query_log = QueryLog()
        self.source_sketch = None
        recorder = self.obs.recorder
        if recorder is not None and recorder.spec.sketch:
            from repro.obs.sketch import SourceSketch

            self.source_sketch = SourceSketch(
                epsilon=recorder.spec.sketch_epsilon,
                delta=recorder.spec.sketch_delta,
                topk=recorder.spec.sketch_topk,
            )
        for server in self.test_servers:
            self.network.register_tap(
                server.address, self._make_offered_tap(server.name)
            )

        # ------------------------------------------------------------------
        # Client population.
        # ------------------------------------------------------------------
        self.population: Population = build_population(
            self.sim,
            self.network,
            self.streams,
            self.root_hints,
            config=config.population,
            allocator=self.allocator,
            latency=self.latency,
            zone_origin=self.origin,
            tracer=tracer,
            metrics=registry,
        )

        # ------------------------------------------------------------------
        # Attack load (repro.attackload). Built after the population so
        # every legitimate allocation and stream draw happens in the same
        # order as without it; attacker events then ride their own
        # "attackload" stream.
        # ------------------------------------------------------------------
        self.attack_load = None
        if config.attack_load is not None and config.attack_load.attackers > 0:
            self.attack_load = build_attack_load(self)
            self.attack_load.schedule()
            if self.defense_stack is not None:
                self.defense_stack.mark_attackers(
                    self.attack_load.attacker_sources
                )

        # Pull-style collectors: state that already lives on components is
        # sampled at snapshot time rather than double-counted on hot paths.
        if registry is not None:
            registry.register_collector("net", self.network.counters.as_dict)
            # Live/dead (cancelled-pending) event counts: makes the
            # queue's lazy-deletion bloat visible in metrics snapshots.
            registry.register_collector("queue", self.sim.queue_stats)
            registry.register_collector(
                "auth.served",
                lambda: {
                    server.name: server.queries_received
                    for server in self.test_servers
                },
            )
            registry.register_collector(
                "auth.offered", self.offered_query_log.per_server_counts
            )
            if self.defense_stack is not None:
                registry.register_collector(
                    "defense", self.defense_stack.stats.as_dict
                )
            if self.attack_load is not None:
                registry.register_collector(
                    "attack", self.attack_load.stats.as_dict
                )
            if self.source_sketch is not None:
                registry.register_collector(
                    "sketch", self.source_sketch.summary
                )

    def _make_offered_tap(self, server_name: str):
        sim = self.sim
        record = self.offered_query_log.record
        sketch = self.source_sketch
        if sketch is None:

            def tap(packet) -> None:
                message = packet.message
                question = message.question
                if message.is_response or question is None:
                    return
                record(
                    sim.now, packet.src, question.qname, question.qtype, server_name
                )

            return tap

        def sketch_tap(packet) -> None:
            message = packet.message
            question = message.question
            if message.is_response or question is None:
                return
            sketch.update(packet.src)
            record(sim.now, packet.src, question.qname, question.qtype, server_name)

        return sketch_tap

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------
    def schedule_rotations(self, duration: float) -> None:
        """Bump the zone serial every rotation interval (new zone file)."""
        interval = self.config.rotation_interval
        count = int(duration // interval)
        for step in range(1, count + 1):
            self.sim.at(
                step * interval,
                self.test_zone.set_serial,
                self.rotation.initial_serial + step,
            )

    def schedule_probing(
        self,
        start: float,
        interval: float,
        rounds: int,
        spread: float = 300.0,
    ) -> None:
        self.population.schedule_rounds(
            start,
            interval,
            rounds,
            spread,
            self.streams.stream("probing"),
        )

    def schedule_metric_snapshots(self, interval: float, rounds: int) -> None:
        """Snapshot the registry at the end of each probing round.

        No-op unless ``--metrics`` asked for per-round snapshots: a
        timeline-only run builds a registry for the flight recorder to
        sample, but must not also grow per-round snapshot series.
        Experiments typically take one more snapshot manually after
        :meth:`run` returns, capturing the grace-period tail.
        """
        registry = self.obs.registry
        if registry is None or not self.obs.spec.metrics:
            return
        for round_index in range(rounds):
            boundary = (round_index + 1) * interval
            self.sim.at(boundary, registry.snapshot, boundary, round_index)

    def take_metric_snapshot(self, round_index: int) -> None:
        """Snapshot now (used for the final post-run reading)."""
        registry = self.obs.registry
        if registry is not None and self.obs.spec.metrics:
            registry.snapshot(self.sim.now, round_index)

    # Observability accessors: TestbedSnapshot duck-types these, so
    # analysis code works against live and detached testbeds alike.
    @property
    def spans(self):
        return self.obs.spans

    @property
    def metric_snapshots(self):
        return self.obs.metric_snapshots

    @property
    def timeline_points(self):
        return self.obs.timeline_points

    @property
    def defense_stats(self):
        """Aggregate defense counters as a dict, or None when undefended.
        TestbedSnapshot carries the same attribute for detached results."""
        if self.defense_stack is None:
            return None
        return self.defense_stack.stats.as_dict()

    @property
    def attack_stats(self):
        """Attack-load counters as a dict, or None without attackers."""
        if self.attack_load is None:
            return None
        return self.attack_load.stats.as_dict()

    def profile_summary(self):
        return self.obs.profile_summary()

    def schedule_churn(self, duration: float) -> int:
        return self.population.schedule_cache_churn(
            duration, self.streams.stream("churn")
        )

    def add_attack(
        self,
        start: float,
        duration: float,
        loss_fraction: float,
        servers: str = "both",
        label: str = "ddos",
        queue_delay: float = 0.0,
    ) -> AttackWindow:
        """Attack the measurement-zone authoritatives.

        ``servers``: "both" (all of them) or "one" (only the first), the
        paper's Experiment D variant. ``queue_delay`` enables the
        queueing-latency extension (§5.1 future work), off by default.
        """
        if servers == "both":
            targets = list(self.test_server_addresses)
        elif servers == "one":
            targets = [self.test_server_addresses[0]]
        else:
            raise ValueError(f"unknown server selection {servers!r}")
        window = AttackWindow(
            targets,
            start,
            start + duration,
            loss_fraction,
            label=label,
            queue_delay=queue_delay,
        )
        self.attacks.add(window)
        return window

    def run(self, duration: float, grace: float = 20.0) -> None:
        """Run the world for ``duration`` simulated seconds (+`grace` for
        resolutions still in flight at the end)."""
        until = duration + grace
        recorder = self.obs.recorder
        if recorder is not None:
            # The flight recorder covers the full run including the
            # grace tail; its final sample lands exactly at ``until``,
            # the same instant as the final metrics snapshot, so the two
            # readings reconcile exactly.
            recorder.schedule(until)
        self.sim.run(until=until)
