"""The vantage-point population builder.

Builds the client half of the paper's measurement world: probes, their
first-hop recursives (R1), and the recursive infrastructure behind them
(Rn), with a behavior mix calibrated to the paper's observations:

* ~1.7 first-hop recursives per probe (15k VPs from 9k probes),
* ~30% of first-hop choices route via public services (half of all cache
  misses, three quarters of those Google-like; Table 3),
* ISP-side fragmentation from load-balanced resolver clusters,
* a small share of TTL-capping resolvers (2% altering TTLs ≤ 1 h; ~30%
  shortening 1-day TTLs; Table 2),
* occasional cache flushes (restarts), and
* BIND-like and Unbound-like retry behavior among full resolvers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.clients.probe import Probe
from repro.clients.publicdns import (
    PublicServiceSpec,
    ResolverRegistry,
    default_public_services,
)
from repro.dnscore.name import Name
from repro.netem.address import AddressAllocator, default_allocator
from repro.netem.link import (
    PerHostLatency,
    draw_client_base,
    draw_recursive_base,
)
from repro.netem.transport import Network
from repro.resolvers.cache import CacheConfig
from repro.resolvers.forwarder import ForwarderConfig, ForwardingResolver
from repro.resolvers.pool import PoolConfig, PublicResolverPool
from repro.resolvers.recursive import RecursiveResolver, ResolverConfig
from repro.resolvers.retry import forwarder_profile
from repro.resolvers.stub import AnswerLog, StubResolver
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import Simulator


@dataclass
class ProfileShares:
    """How VPs pick their first-hop recursive (public shares live on the
    service specs; these three cover the non-public remainder)."""

    isp_direct: float = 0.26
    isp_cluster: float = 0.26
    forwarder: float = 0.18


@dataclass
class PopulationConfig:
    """All the knobs of the client world."""

    probe_count: int = 1500
    # Distribution of local recursives per probe: mean ~1.7 VPs/probe.
    recursives_per_probe: Tuple[Tuple[int, float], ...] = (
        (1, 0.50),
        (2, 0.35),
        (3, 0.15),
    )
    shares: ProfileShares = field(default_factory=ProfileShares)
    public_services: List[PublicServiceSpec] = field(
        default_factory=default_public_services
    )
    # ISP infrastructure shape.
    isp_site_count: Optional[int] = None  # default: probe_count // 15
    cluster_backend_range: Tuple[int, int] = (3, 6)
    # Resolver software mix (full resolvers).
    unbound_fraction: float = 0.5
    # TTL manipulation shares.
    ttl_cap_small_fraction: float = 0.02
    ttl_cap_day_fraction: float = 0.10
    # Cache churn: expected flushes per resolver per hour.
    flush_rate_per_hour: float = 0.02
    # Forwarder specifics.
    forwarder_cache_fraction: float = 0.5
    forwarder_public_upstream_fraction: float = 0.05
    # Stub behavior.
    stub_timeout: float = 5.0
    # Dead-probe share: probes whose recursives never answer (the
    # paper's "probes (disc.)", ~4.5% in Table 1).
    broken_probe_fraction: float = 0.030
    # Misconfigured first-hops that answer REFUSED (part of the paper's
    # "answers (disc.)", ~3.5–4.9% of answers).
    refusing_r1_fraction: float = 0.010
    # Resolvers that answer clients from referral/glue data rather than
    # re-querying the child zone (the ~5% minority of Appendix A's
    # Table 5 that returns the parent's TTL).
    serve_glue_fraction: float = 0.05
    # Ablation switches (DESIGN.md §5): strip one defense mechanism from
    # the whole population to measure its marginal contribution.
    disable_retries: bool = False
    disable_caching: bool = False
    disable_serve_stale: bool = False


class Population:
    """Everything the builder produced, plus round-scheduling helpers."""

    def __init__(
        self,
        sim: Simulator,
        config: PopulationConfig,
        probes: List[Probe],
        results: AnswerLog,
        registry: ResolverRegistry,
        recursives: List[RecursiveResolver],
        forwarders: List[ForwardingResolver],
        pools: List[PublicResolverPool],
    ) -> None:
        self.sim = sim
        self.config = config
        self.probes = probes
        self.results = results
        self.registry = registry
        self.recursives = recursives
        self.forwarders = forwarders
        self.pools = pools

    @property
    def vp_count(self) -> int:
        return sum(probe.vp_count for probe in self.probes)

    def schedule_rounds(
        self,
        start: float,
        interval: float,
        count: int,
        spread: float,
        rng: random.Random,
    ) -> None:
        """Schedule ``count`` probing rounds.

        Atlas intentionally spreads each round's queries over about five
        minutes (§5.2); each probe gets an independent offset per round.
        """
        for round_index in range(count):
            round_start = start + round_index * interval
            for probe in self.probes:
                offset = rng.random() * spread
                self.sim.at(
                    round_start + offset, probe.query_round, round_index
                )

    def schedule_cache_churn(
        self, duration: float, rng: random.Random
    ) -> int:
        """Schedule random cache flushes (restarts) over ``duration``.

        Returns the number of flush events scheduled.
        """
        rate = self.config.flush_rate_per_hour / 3600.0
        flushables = list(self.recursives)
        for pool in self.pools:
            flushables.extend(pool.backends)
        flushables.extend(
            forwarder for forwarder in self.forwarders if forwarder.cache
        )
        scheduled = 0
        if rate <= 0:
            return 0
        for target in flushables:
            time = rng.expovariate(rate)
            while time < duration:
                self.sim.at(time, target.flush_caches)
                scheduled += 1
                time += rng.expovariate(rate)
        return scheduled


class RefusingResolver:
    """A misconfigured first-hop that REFUSEs everything.

    Produces the paper's discarded answers (REFUSED/SERVFAIL error
    codes, Table 1 "answers (disc.)").
    """

    def __init__(self, sim: Simulator, network: Network, address: str) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        network.register(address, self.on_packet)

    def on_packet(self, packet) -> None:
        from repro.dnscore.message import make_response
        from repro.dnscore.rrtypes import Rcode

        if packet.message.qr:
            return
        response = make_response(packet.message, rcode=Rcode.REFUSED)
        self.network.send(self.address, packet.src, response)


def _pick_unused(
    rng: random.Random, choices: Sequence[str], used: Sequence[str]
) -> str:
    """A random choice avoiding addresses the probe already uses.

    A VP is a distinct (probe, recursive) pair, so a probe never lists
    the same recursive twice. Falls back to a duplicate only when every
    candidate is taken (tiny populations in tests).
    """
    for _ in range(8):
        candidate = rng.choice(choices)
        if candidate not in used:
            return candidate
    return rng.choice(choices)


def build_population(
    sim: Simulator,
    network: Network,
    streams: RandomStreams,
    root_hints: Sequence[str],
    config: Optional[PopulationConfig] = None,
    allocator: Optional[AddressAllocator] = None,
    latency: Optional[PerHostLatency] = None,
    zone_origin: Optional[Name] = None,
    tracer=None,
    metrics=None,
) -> Population:
    """Construct the full client world on the given network.

    ``zone_origin`` is the measurement zone; each probe's unique query
    name is ``{probe_id}.<zone_origin>``.

    ``tracer``/``metrics`` are the observability sinks (or ``None``),
    threaded into every stub, forwarder, pool, and recursive built here.
    """
    config = config or PopulationConfig()
    allocator = allocator or default_allocator()
    registry = ResolverRegistry()
    rng = streams.stream("population")
    # One log for every stub: a row per VP query, in the order sent.
    results = AnswerLog()
    origin = zone_origin or Name.from_text("cachetest.nl.")

    recursives: List[RecursiveResolver] = []
    forwarders: List[ForwardingResolver] = []
    pools: List[PublicResolverPool] = []

    def resolver_rng() -> random.Random:
        return random.Random(rng.getrandbits(64))

    def make_resolver_config(public_backend_of: Optional[PublicServiceSpec]) -> ResolverConfig:
        """Draw one full-resolver personality."""
        if rng.random() < config.unbound_fraction:
            resolver_config = ResolverConfig.for_software("unbound")
        else:
            resolver_config = ResolverConfig.for_software("bind")
            resolver_config.chase_ns_aaaa = rng.random() < 0.5
        cache = resolver_config.cache
        # Some resolvers give up quickly and SERVFAIL inside the stub's
        # 5 s window; most keep retrying past it (the "no answer" VPs).
        if rng.random() < 0.25:
            resolver_config.retry.resolution_deadline = 2.5 + rng.random() * 2.0
        # TTL caps: a small share caps aggressively (EC2-style 60 s
        # rewrites), a larger share caps somewhere below one day.
        draw = rng.random()
        if draw < config.ttl_cap_small_fraction:
            cache.max_ttl = rng.choice((60, 300, 900, 1800))
        elif draw < config.ttl_cap_small_fraction + config.ttl_cap_day_fraction:
            cache.max_ttl = min(cache.max_ttl, rng.choice((7200, 10800, 21600, 43200)))
        if rng.random() < config.serve_glue_fraction:
            resolver_config.serve_glue_answers = True
        if public_backend_of is not None:
            cache.max_ttl = min(cache.max_ttl, public_backend_of.max_ttl)
            if rng.random() < public_backend_of.serve_stale_fraction:
                resolver_config.serve_stale = True
        # Ablations.
        if config.disable_retries:
            resolver_config.retry.tries_per_server = 1
            resolver_config.retry.max_total_attempts = 1
            resolver_config.retry.requery_parent_on_failure = False
        if config.disable_caching:
            # "No caching" caps every entry at 5 s: referral state still
            # carries one resolution (an iterative resolver cannot work
            # with literally zero state), but nothing survives between
            # client queries.
            cache.max_ttl = 5
        if config.disable_serve_stale:
            resolver_config.serve_stale = False
        return resolver_config

    def set_base(address: str, draw) -> None:
        if latency is not None:
            latency.set_base(address, draw(rng))

    # ------------------------------------------------------------------
    # ISP infrastructure: single resolvers and load-balanced clusters.
    # ------------------------------------------------------------------
    site_count = config.isp_site_count or max(8, config.probe_count // 15)
    single_isp_addresses: List[str] = []
    cluster_ingresses: List[str] = []
    # Roughly two thirds of sites are single resolvers, one third clusters.
    for site_index in range(site_count):
        if site_index % 3 != 2:
            address = allocator.allocate("recursives")
            set_base(address, draw_recursive_base)
            resolver = RecursiveResolver(
                sim,
                network,
                address,
                root_hints,
                config=make_resolver_config(None),
                name=f"isp{site_index}",
                rng=resolver_rng(),
                tracer=tracer,
                metrics=metrics,
            )
            recursives.append(resolver)
            registry.register_recursive(address, "isp")
            single_isp_addresses.append(address)
        else:
            backend_count = rng.randint(*config.cluster_backend_range)
            ingress = allocator.allocate("recursives")
            backends = [
                allocator.allocate("recursives") for _ in range(backend_count)
            ]
            set_base(ingress, draw_recursive_base)
            for backend_address in backends:
                set_base(backend_address, draw_recursive_base)
            pool = PublicResolverPool(
                sim,
                network,
                ingress,
                backends,
                root_hints,
                config=PoolConfig(
                    backend_count=backend_count,
                    balancing="random",
                ),
                name=f"cluster{site_index}",
                rng=resolver_rng(),
                backend_config_factory=lambda index: make_resolver_config(None),
                tracer=tracer,
                metrics=metrics,
            )
            pools.append(pool)
            registry.register_recursive(ingress, "cluster")
            for backend_address in backends:
                registry.register_recursive(backend_address, "cluster-backend")
            cluster_ingresses.append(ingress)

    # ------------------------------------------------------------------
    # Public services.
    # ------------------------------------------------------------------
    public_choices: List[Tuple[str, float]] = []
    for spec in config.public_services:
        ingress = allocator.allocate("anycast")
        backends = [
            allocator.allocate("public") for _ in range(spec.backend_count)
        ]
        set_base(ingress, draw_recursive_base)
        for backend_address in backends:
            set_base(backend_address, draw_recursive_base)
        pool = PublicResolverPool(
            sim,
            network,
            ingress,
            backends,
            root_hints,
            config=PoolConfig(
                backend_count=spec.backend_count,
                balancing=spec.balancing,
                sticky_rebalance=spec.sticky_rebalance,
            ),
            name=spec.key,
            rng=resolver_rng(),
            backend_config_factory=lambda index, spec=spec: make_resolver_config(spec),
            tracer=tracer,
            metrics=metrics,
        )
        pools.append(pool)
        registry.register_public_ingress(ingress, spec.google_like)
        for backend_address in backends:
            registry.register_public_backend(backend_address, spec.google_like)
        public_choices.append((ingress, spec.vp_share))

    # ------------------------------------------------------------------
    # Probes and their first-hop recursives.
    # ------------------------------------------------------------------
    shares = config.shares
    public_total = sum(share for _, share in public_choices)
    profile_weights = [
        ("isp", shares.isp_direct),
        ("cluster", shares.isp_cluster),
        ("forwarder", shares.forwarder),
        ("public", public_total),
    ]
    total_weight = sum(weight for _, weight in profile_weights)

    def pick_profile() -> str:
        draw = rng.random() * total_weight
        for profile, weight in profile_weights:
            if draw < weight:
                return profile
            draw -= weight
        return "isp"

    def pick_public_ingress() -> str:
        draw = rng.random() * public_total
        for ingress, weight in public_choices:
            if draw < weight:
                return ingress
            draw -= weight
        return public_choices[-1][0]

    vp_dist = list(config.recursives_per_probe)
    probes: List[Probe] = []
    for probe_id in range(1, config.probe_count + 1):
        probe_address = allocator.allocate("probes")
        set_base(probe_address, draw_client_base)
        draw = rng.random()
        r1_count = vp_dist[-1][0]
        for count, probability in vp_dist:
            if draw < probability:
                r1_count = count
                break
            draw -= probability
        r1_addresses: List[str] = []
        r1_kinds: List[str] = []
        broken_probe = rng.random() < config.broken_probe_fraction
        for _ in range(r1_count):
            if broken_probe:
                # Dead probe: its recursives blackhole every query.
                blackhole = allocator.allocate("recursives")
                r1_addresses.append(blackhole)
                r1_kinds.append("broken")
                continue
            if rng.random() < config.refusing_r1_fraction:
                refusing_address = allocator.allocate("recursives")
                set_base(refusing_address, draw_recursive_base)
                RefusingResolver(sim, network, refusing_address)
                registry.register_recursive(refusing_address, "forwarder")
                r1_addresses.append(refusing_address)
                r1_kinds.append("refusing")
                continue
            profile = pick_profile()
            if profile == "isp" and single_isp_addresses:
                choice = _pick_unused(rng, single_isp_addresses, r1_addresses)
                r1_addresses.append(choice)
                r1_kinds.append("isp")
            elif profile == "cluster" and cluster_ingresses:
                choice = _pick_unused(rng, cluster_ingresses, r1_addresses)
                r1_addresses.append(choice)
                r1_kinds.append("cluster")
            elif profile == "public" and public_choices:
                choice = pick_public_ingress()
                if choice in r1_addresses:
                    choice = _pick_unused(
                        rng,
                        [ingress for ingress, _ in public_choices],
                        r1_addresses,
                    )
                r1_addresses.append(choice)
                r1_kinds.append("public")
            else:
                # A per-probe forwarder (home router).
                fwd_address = allocator.allocate("recursives")
                set_base(fwd_address, draw_client_base)
                if (
                    rng.random() < config.forwarder_public_upstream_fraction
                    and public_choices
                ):
                    upstreams = [pick_public_ingress()]
                else:
                    upstream_count = 1 if rng.random() < 0.6 else 2
                    upstreams = [
                        rng.choice(single_isp_addresses + cluster_ingresses)
                        for _ in range(upstream_count)
                    ]
                forwarder_config = ForwarderConfig(retry=forwarder_profile())
                if config.disable_retries:
                    forwarder_config.retry.tries_per_server = 1
                    forwarder_config.retry.max_total_attempts = 1
                if (
                    rng.random() < config.forwarder_cache_fraction
                    and not config.disable_caching
                ):
                    forwarder_config.cache = CacheConfig(max_entries=10_000)
                forwarder = ForwardingResolver(
                    sim,
                    network,
                    fwd_address,
                    upstreams,
                    config=forwarder_config,
                    name=f"fwd-p{probe_id}",
                    tracer=tracer,
                    metrics=metrics,
                )
                forwarders.append(forwarder)
                registry.register_recursive(fwd_address, "forwarder")
                r1_addresses.append(fwd_address)
                r1_kinds.append("forwarder")
        stub = StubResolver(
            sim,
            network,
            probe_address,
            probe_id,
            r1_addresses,
            results=results,
            timeout=config.stub_timeout,
            tracer=tracer,
            metrics=metrics,
        )
        qname = origin.child(str(probe_id))
        probes.append(Probe(probe_id, stub, qname, r1_kinds))

    return Population(
        sim, config, probes, results, registry, recursives, forwarders, pools
    )
