"""Assembles the measurement worlds.

:class:`World` wires the part every study shares: the zone tree (root →
parent TLD → measurement zone), replicated authoritative servers with
query logging and an offered-load tap, zone rotation (serial bump every
10 minutes, §3.2) and the DDoS attack schedule. A :class:`Testbed` is
the population world on top of it: the paper's zone tree, the probe
population, cache churn and attack load. Experiment runners configure a
testbed (or a small world of their own), schedule probing rounds, run
the clock, and hand the raw results to the analysis code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
from repro.netem.link import LatencyModel, PerHostLatency, draw_authoritative_base
from repro.netem.transport import Network
from repro.obs import Observability, ObsSpec
from repro.servers.authoritative import AuthoritativeServer
from repro.servers.hierarchy import (
    PROBE_ANSWER_PREFIX,
    TLD_ORIGIN,
    ZONE_ORIGIN,
    ZoneSpec,
    attach_probe_synthesizer,
    build_hierarchy,
)
from repro.servers.querylog import QueryLog
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import Simulator

# Authoritatives per zone in the population testbed.
SERVERS_PER_ZONE = 2
# Negative-cache TTL of the measurement zone (§6.1: 60 s).
NEGATIVE_TTL = 60
# Zone serial rotation interval (§3.2: every 10 minutes).
ROTATION_INTERVAL = 600.0
# Baseline packet loss: produces the pre-attack ~5% failure floor the
# paper observes before any DDoS (§5.4).
BASELINE_LOSS = 0.004


class World:
    """One wired DNS world: clock, network, zone tree, authoritatives.

    Every study runs on the same shape — root → TLD → measurement zone
    with replicated authoritatives — and this constructor is the one
    place that wires it. The last of ``specs`` is the measurement zone:
    it synthesizes the probe answers (§3.2) at its ``a_ttl``, its serial
    rotates, and only its servers get the ``query_log``, the
    offered-load tap, the tracer and the defense pipelines. The other
    zones' servers share ``parent_query_log``. Servers are named
    ``root-<label>``, ``tld-<label>`` and ``at-<label>`` after the first
    label of their nameserver host.

    ``base_stream`` names the stream that draws each server's base
    latency (``latency`` must then be a :class:`PerHostLatency`);
    ``None`` leaves every server at the model's default. ``anycast``
    maps a nameserver address to the site addresses that serve it: one
    server per site (``<name>-<index>``), the address routed to them.
    """

    def __init__(
        self,
        seed: int,
        specs: Sequence[ZoneSpec],
        latency: LatencyModel,
        baseline_loss: float = 0.0,
        base_stream: Optional[str] = None,
        anycast: Optional[Dict[str, List[str]]] = None,
        obs: Optional[ObsSpec] = None,
        defense: Optional[DefenseSpec] = None,
    ) -> None:
        self.sim = Simulator()
        self.obs = Observability.build(obs, self.sim)
        tracer = self.obs.tracer
        self.streams = RandomStreams(seed)
        self.latency = latency
        self.attacks = AttackSchedule()
        self.network = Network(
            self.sim,
            self.streams,
            latency=latency,
            attacks=self.attacks,
            baseline_loss=baseline_loss,
            tracer=tracer,
        )
        self.rotation = RotationSchedule(
            initial_serial=1, interval=ROTATION_INTERVAL
        )
        self.zones: Dict[Name, Zone] = build_hierarchy(specs)
        self.origin = specs[-1].origin_name()
        self.test_zone = self.zones[self.origin]
        attach_probe_synthesizer(
            self.test_zone, PROBE_ANSWER_PREFIX, specs[-1].a_ttl
        )

        # Defense layers (repro.defense) guard the measurement-zone
        # servers only — they are the attack's victims. The stack is
        # built solely when a layer is on, so undefended runs take the
        # exact pre-defense code path (and draw no "defense" stream).
        self.defense_stack = None
        if defense is not None and defense.enabled:
            self.defense_stack = build_defense(
                defense, self.streams.stream("defense")
            )
        self.query_log = QueryLog()  # measurement-zone servers
        self.parent_query_log = QueryLog()  # root + TLD servers
        rng = self.streams.stream(base_stream) if base_stream else None
        anycast = anycast or {}
        self.servers: Dict[Name, List[AuthoritativeServer]] = {}
        for spec in specs:
            origin = spec.origin_name()
            measured = origin == self.origin
            role = "at" if measured else "tld" if origin.labels else "root"
            servers = self.servers[origin] = []
            for host, address in spec.nameservers.items():
                name = f"{role}-{host.split('.')[0]}"
                sites = anycast.get(address)
                instances = (
                    [(address, name)]
                    if sites is None
                    else [(site, f"{name}-{i}") for i, site in enumerate(sites)]
                )
                for instance, instance_name in instances:
                    if rng is not None:
                        latency.set_base(instance, draw_authoritative_base(rng))
                    servers.append(
                        AuthoritativeServer(
                            self.sim,
                            self.network,
                            instance,
                            [self.zones[origin]],
                            name=instance_name,
                            query_log=(
                                self.query_log
                                if measured
                                else self.parent_query_log
                            ),
                            tracer=tracer if measured else None,
                            defense=(
                                self.defense_stack.make_pipeline()
                                if measured and self.defense_stack is not None
                                else None
                            ),
                        )
                    )
                if sites is not None:
                    self.network.register_anycast(address, sites)
        self.test_servers = self.servers[self.origin]
        self.root_hints = [server.address for server in self.servers[Name(())]]

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

    def _make_offered_tap(self, server_name: str):
        sim = self.sim
        record = self.offered_query_log.record
        sketch = self.source_sketch
        if sketch is None:

            def tap(packet) -> None:
                message = packet.message
                question = message.question
                if message.qr or question is None:
                    return
                record(
                    sim.now, packet.src, question.qname, question.qtype, server_name
                )

            return tap

        def sketch_tap(packet) -> None:
            message = packet.message
            question = message.question
            if message.qr or question is None:
                return
            sketch.update(packet.src)
            record(sim.now, packet.src, question.qname, question.qtype, server_name)

        return sketch_tap

    def schedule_rotations(self, duration: float) -> None:
        """Bump the zone serial every rotation interval (new zone file)."""
        interval = self.rotation.interval
        count = int(duration // interval)
        for step in range(1, count + 1):
            self.sim.at(
                step * interval,
                self.test_zone.set_serial,
                self.rotation.initial_serial + step,
            )


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
    # TTL the parent publishes in referrals; None = same as zone_ttl.
    delegation_ttl: Optional[int] = None
    population: PopulationConfig = field(default_factory=PopulationConfig)
    # Observability layers (tracing / metrics / profiling); None = all off.
    obs: Optional[ObsSpec] = None
    # Adversarial query streams (repro.attackload); None = no attackers.
    attack_load: Optional[AttackLoadSpec] = None
    # Authoritative-side defense layers (repro.defense); None = the
    # paper's infinitely-fast, undefended servers.
    defense: Optional[DefenseSpec] = None


class Testbed(World):
    """The population world: the paper's zone tree, probes and attackers."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config = config or TestbedConfig()
        self.allocator = default_allocator()
        allocate = self.allocator.allocate
        count = range(SERVERS_PER_ZONE)
        root_ns = {
            f"{chr(ord('a') + i)}.root-servers.test.": allocate("authoritatives")
            for i in count
        }
        tld_ns = {f"ns{i + 1}.dns.{TLD_ORIGIN}": allocate("authoritatives") for i in count}
        test_ns = {f"ns{i + 1}.{ZONE_ORIGIN}": allocate("authoritatives") for i in count}
        super().__init__(
            config.seed,
            [
                ZoneSpec(".", root_ns),
                ZoneSpec(TLD_ORIGIN, tld_ns),
                ZoneSpec(
                    ZONE_ORIGIN,
                    test_ns,
                    ns_ttl=config.zone_ttl,
                    a_ttl=config.zone_ttl,
                    delegation_ttl=(
                        config.delegation_ttl
                        if config.delegation_ttl is not None
                        else config.zone_ttl
                    ),
                    negative_ttl=NEGATIVE_TTL,
                ),
            ],
            PerHostLatency(jitter=0.2),
            baseline_loss=BASELINE_LOSS,
            base_stream="testbed",
            obs=config.obs,
            defense=config.defense,
        )
        tracer = self.obs.tracer
        registry = self.obs.registry
        self.test_ns_names = [Name.from_text(host) for host in test_ns]
        self.test_server_addresses = [
            server.address for server in self.test_servers
        ]

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

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------
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
