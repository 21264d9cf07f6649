"""Anycast-site study: the §8 root-vs-Dyn mechanics, made runnable.

The paper's implications section explains the uneven outcomes of real
root DDoS events with IP anycast: an attack concentrates on some sites'
catchments while others stay clean, and a DNS service "tends to be as
resilient as the strongest individual authoritative" because recursives
keep hunting for a server that answers.

This study serves the measurement zone from one nameserver whose single
address is anycast across ``site_count`` sites, attacks a subset of the
sites, and splits the client population by catchment:

* clients whose catchment site is attacked,
* clients landing on healthy sites,

optionally withdrawing the attacked sites mid-attack (the operators'
route-withdrawal mitigation), which re-hashes catchments onto the
healthy sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clients.population import PopulationConfig, build_population
from repro.core.metrics import failure_fraction, responses_by_round
from repro.core.testbed import BASELINE_LOSS, NEGATIVE_TTL, World
from repro.netem.address import default_allocator
from repro.netem.attack import AttackWindow
from repro.netem.link import PerHostLatency
from repro.resolvers.stub import AnswerLog
from repro.servers.hierarchy import TLD_ORIGIN, ZONE_ORIGIN, ZoneSpec


@dataclass
class AnycastSpec:
    """Parameters of one anycast attack scenario."""

    site_count: int = 6
    attacked_sites: int = 3
    loss_fraction: float = 0.90
    ttl: int = 1800
    attack_start_min: float = 60.0
    attack_duration_min: float = 60.0
    total_duration_min: float = 150.0
    probe_interval_min: float = 10.0
    # Withdraw the attacked sites this many minutes into the attack
    # (None = never; the paper's root events saw both behaviors).
    withdraw_after_min: Optional[float] = None

    @property
    def round_seconds(self) -> float:
        return self.probe_interval_min * 60.0

    @property
    def attack_window(self) -> Tuple[float, float]:
        start = self.attack_start_min * 60.0
        return start, start + self.attack_duration_min * 60.0


@dataclass
class AnycastResult:
    """Per-catchment client outcomes."""

    spec: AnycastSpec
    answers_attacked_catchment: AnswerLog
    answers_healthy_catchment: AnswerLog
    # VPs behind forwarders/pools whose exit catchment is not directly
    # observable from the client side; reported separately.
    answers_indirect: AnswerLog = field(default_factory=AnswerLog)
    site_addresses: List[str] = field(default_factory=list)
    attacked_addresses: List[str] = field(default_factory=list)

    def failure_during_attack(self, catchment: str) -> float:
        window = self.spec.attack_window
        answers = (
            self.answers_attacked_catchment
            if catchment == "attacked"
            else self.answers_healthy_catchment
        )
        return failure_fraction(answers, window)

    def outcomes_by_round(self, catchment: str) -> Dict[int, Dict[str, int]]:
        answers = (
            self.answers_attacked_catchment
            if catchment == "attacked"
            else self.answers_healthy_catchment
        )
        return responses_by_round(answers, self.spec.round_seconds)


def run_anycast_study(
    spec: Optional[AnycastSpec] = None,
    probe_count: int = 300,
    seed: int = 42,
) -> AnycastResult:
    """Run the anycast scenario end to end."""
    spec = spec or AnycastSpec()
    if not 0 < spec.attacked_sites < spec.site_count:
        raise ValueError("attacked_sites must leave at least one healthy site")

    # The measurement zone's single NS address is anycast over the sites.
    allocator = default_allocator()
    anycast_address = allocator.allocate("anycast")
    root_address = allocator.allocate("authoritatives")
    tld_address = allocator.allocate("authoritatives")
    site_addresses = [
        allocator.allocate("authoritatives") for _ in range(spec.site_count)
    ]
    latency = PerHostLatency(jitter=0.2)
    world = World(
        seed,
        [
            ZoneSpec(".", {"a.root-servers.test.": root_address}),
            ZoneSpec(TLD_ORIGIN, {"ns1.dns.nl.": tld_address}),
            ZoneSpec(
                ZONE_ORIGIN,
                {"ns1.cachetest.nl.": anycast_address},
                ns_ttl=spec.ttl,
                a_ttl=spec.ttl,
                negative_ttl=NEGATIVE_TTL,
            ),
        ],
        latency,
        baseline_loss=BASELINE_LOSS,
        base_stream="anycast-study",
        anycast={anycast_address: site_addresses},
    )
    network = world.network

    attacked = site_addresses[: spec.attacked_sites]
    attack_start, attack_end = spec.attack_window
    world.attacks.add(
        AttackWindow(attacked, attack_start, attack_end, spec.loss_fraction)
    )

    population = build_population(
        world.sim,
        network,
        world.streams,
        root_hints=world.root_hints,
        config=PopulationConfig(probe_count=probe_count),
        allocator=allocator,
        latency=latency,
        zone_origin=world.origin,
    )

    # Capture the pre-attack catchment of every first-hop recursive now:
    # a later route withdrawal re-hashes the live mapping, but the
    # analysis splits clients by where they were homed when the attack
    # began.
    catchment_of: Dict[str, str] = {}
    for probe in population.probes:
        for r1_address in probe.stub.recursives:
            if r1_address not in catchment_of:
                catchment_of[r1_address] = network.anycast_catchment(
                    r1_address, anycast_address
                )

    duration = spec.total_duration_min * 60.0
    world.schedule_rotations(duration)
    population.schedule_rounds(
        0.0,
        spec.round_seconds,
        int(spec.total_duration_min / spec.probe_interval_min),
        300.0,
        world.streams.stream("probing"),
    )
    if spec.withdraw_after_min is not None:
        world.sim.at(
            attack_start + spec.withdraw_after_min * 60.0,
            network.update_anycast,
            anycast_address,
            site_addresses[spec.attacked_sites:],
        )
    world.sim.run(until=duration + 20.0)

    # Split VPs by the catchment of the recursive querying the anycast
    # service. The catchment belongs to the *exit* recursive, so the
    # clean comparison uses VPs whose first-hop IS the exit (direct ISP
    # resolvers); VPs behind forwarders, clusters, and public pools go
    # to the "indirect" bucket.
    # Each resolver's bucket is decided once; its rows follow its id.
    attacked_set = set(attacked)
    answers = population.results
    rows: Dict[str, List[int]] = {"attacked": [], "healthy": [], "indirect": []}
    bucket_of: List[List[int]] = []
    for resolver in answers.resolver.values:
        if population.registry.kind_of(resolver) != "isp":
            bucket_of.append(rows["indirect"])
        elif catchment_of.get(resolver) in attacked_set:
            bucket_of.append(rows["attacked"])
        else:
            bucket_of.append(rows["healthy"])
    for row, resolver_id in enumerate(answers.resolver.ids):
        bucket_of[resolver_id].append(row)
    return AnycastResult(
        spec=spec,
        answers_attacked_catchment=answers.take(rows["attacked"]),
        answers_healthy_catchment=answers.take(rows["healthy"]),
        answers_indirect=answers.take(rows["indirect"]),
        site_addresses=site_addresses,
        attacked_addresses=attacked,
    )
