"""Appendix A: which TTL wins — the parent's referral or the child's answer?

Two reproductions:

* **Table 5** — a population experiment where the parent publishes the
  delegation with TTL 3600 while the child publishes the same records
  with TTL 60. Each VP queries the NS RRset (and an in-zone A record)
  through its recursives; the distribution of returned TTLs shows which
  side recursives honor (RFC 2181 §5.4.1 says the child; ~95% comply).

* **Table 6 / §A.3** — a single-resolver cache dump: an amazon.com-style
  zone whose parent-side TTL is 172800 s and whose child-side NS TTL is
  3600 s. After one NS query against a cold cache, the cache holds the
  child's 3600 s value for both BIND-like and Unbound-like resolvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.clients.population import PopulationConfig
from repro.core.testbed import Testbed, TestbedConfig, World
from repro.dnscore.rrtypes import RRType
from repro.netem.link import PerHostLatency
from repro.resolvers.recursive import Outcome, RecursiveResolver, ResolverConfig
from repro.resolvers.stub import OK_CODE
from repro.servers.hierarchy import ZoneSpec


@dataclass
class TtlBuckets:
    """Table 5's row buckets over returned TTLs."""

    total: int = 0
    above_parent: int = 0  # TTL > parent TTL: "unclear"
    parent_exact: int = 0  # TTL == parent TTL
    between: int = 0  # child < TTL < parent: parent decremented / altered
    child_exact: int = 0  # TTL == child TTL
    below_child: int = 0  # TTL < child TTL: child decremented

    def add(self, ttl: int, parent_ttl: int, child_ttl: int) -> None:
        self.total += 1
        if ttl > parent_ttl:
            self.above_parent += 1
        elif ttl == parent_ttl:
            self.parent_exact += 1
        elif ttl > child_ttl:
            self.between += 1
        elif ttl == child_ttl:
            self.child_exact += 1
        else:
            self.below_child += 1

    @property
    def child_fraction(self) -> float:
        """Share of answers carrying the child's (authoritative) TTL."""
        if self.total == 0:
            return 0.0
        return (self.child_exact + self.below_child) / self.total

    def as_rows(self) -> List[Tuple[str, int]]:
        return [
            ("Total Answers", self.total),
            ("TTL>parent (unclear)", self.above_parent),
            ("TTL=parent", self.parent_exact),
            ("child<TTL<parent", self.between),
            ("TTL=child", self.child_exact),
            ("TTL<child", self.below_child),
        ]


@dataclass
class GlueResult:
    """Table 5 reproduction output."""

    parent_ttl: int
    child_ttl: int
    ns_buckets: TtlBuckets
    a_buckets: TtlBuckets


def run_glue_experiment(
    probe_count: int = 800,
    seed: int = 42,
    parent_ttl: int = 3600,
    child_ttl: int = 60,
    rounds: int = 3,
    probe_interval: float = 600.0,
) -> GlueResult:
    """Table 5: population-wide NS/A TTL observations.

    The measurement zone publishes NS and in-zone A records with
    ``child_ttl`` while its parent publishes the delegation with
    ``parent_ttl``; every VP asks for both records each round.
    """
    population = PopulationConfig(probe_count=probe_count)
    testbed = Testbed(
        TestbedConfig(
            seed=seed,
            zone_ttl=child_ttl,
            delegation_ttl=parent_ttl,
            population=population,
        )
    )
    duration = rounds * probe_interval
    testbed.schedule_rotations(duration)
    ns_name = testbed.origin
    a_name = testbed.test_ns_names[0]
    rng = testbed.streams.stream("glue-probing")
    for round_index in range(rounds):
        start = round_index * probe_interval
        for probe in testbed.population.probes:
            offset = rng.random() * 300.0
            testbed.sim.at(
                start + offset,
                probe.stub.query_round,
                ns_name,
                RRType.NS,
                round_index,
            )
            testbed.sim.at(
                start + offset + 1.0,
                probe.stub.query_round,
                a_name,
                RRType.A,
                round_index,
            )
    testbed.run(duration)

    ns_buckets = TtlBuckets()
    a_buckets = TtlBuckets()
    answers = testbed.population.results
    # Optional columns store value + 1, with 0 for None (AnswerLog).
    for status, returned_ttl, record_count, serial in zip(
        answers.statuses, answers.returned_ttls, answers.record_counts, answers.serials
    ):
        if status != OK_CODE or not returned_ttl or record_count == 0:
            continue
        # NS answers have multiple records; A answers a single one.
        if serial:
            continue  # instrumented AAAA; not part of this experiment
        buckets = ns_buckets if record_count > 1 else a_buckets
        buckets.add(returned_ttl - 1, parent_ttl, child_ttl)
    return GlueResult(parent_ttl, child_ttl, ns_buckets, a_buckets)


# ---------------------------------------------------------------------------
# Table 6 / §A.3: single-resolver cache dump
# ---------------------------------------------------------------------------
@dataclass
class CacheDumpResult:
    """What one resolver cached after ``dig ns amazon.com``-style query."""

    software: str
    answered: bool
    ns_cached_ttl: Optional[int]
    parent_ttl: int
    child_ttl: int
    dump: List[Tuple[str, str, int, bool]] = field(default_factory=list)

    @property
    def stored_child_value(self) -> bool:
        """True when the cache holds the child's TTL (RFC 2181 behavior):
        at most the child TTL (decremented a little while cached), and
        far below the parent's."""
        return (
            self.ns_cached_ttl is not None
            and self.ns_cached_ttl <= self.child_ttl
            and self.ns_cached_ttl > self.child_ttl - 120
        )


def run_cache_dump_study(
    software: str = "bind",
    parent_ttl: int = 172800,
    child_ttl: int = 3600,
    seed: int = 7,
) -> CacheDumpResult:
    """§A.3: cold-cache NS query, then inspect the resolver's cache.

    Models the paper's amazon.com observation: the parent (.com) carries
    the NS set at 172800 s, the child answers authoritatively at 3600 s;
    both BIND and Unbound store the child's value.
    """
    world = World(
        seed,
        [
            ZoneSpec(".", {"a.root-servers.test.": "193.0.0.1"}),
            ZoneSpec("com.", {"a.gtld-servers.test.": "193.0.1.1"}),
            ZoneSpec(
                "amazon.com.",
                {
                    "ns1.amazon.com.": "192.0.2.1",
                    "ns2.amazon.com.": "192.0.2.2",
                },
                ns_ttl=child_ttl,
                a_ttl=86400,
                delegation_ttl=parent_ttl,
            ),
        ],
        PerHostLatency(jitter=0.1),
    )
    sim = world.sim
    resolver = RecursiveResolver(
        sim,
        world.network,
        "100.64.0.1",
        world.root_hints,
        config=ResolverConfig.for_software(software),
        name=software,
    )

    outcomes: List[Outcome] = []
    sim.call_later(0.0, resolver.resolve, world.origin, RRType.NS, outcomes.append)
    sim.run(until=30.0)

    entry = resolver.cache.peek(world.origin, RRType.NS)
    ns_ttl = entry.remaining_ttl(sim.now) if entry is not None else None
    dump = [
        (str(name), str(rtype), ttl, authoritative)
        for name, rtype, ttl, authoritative in resolver.cache.dump(sim.now)
    ]
    return CacheDumpResult(
        software=software,
        answered=bool(outcomes and outcomes[0].is_success),
        ns_cached_ttl=ns_ttl,
        parent_ttl=parent_ttl,
        child_ttl=child_ttl,
        dump=dump,
    )
