"""Appendix F: one probe's retry amplification, dissected.

Reproduces the paper's probe 28477 case study (Table 7, Figure 17): a
probe with three first-hop recursives (R1a–R1c), all forwarding into a
shared pool of eight last-layer recursives (Rn1–Rn8), which query two
authoritatives. Experiment I's conditions apply: TTL 60 s, 90% loss on
both authoritatives for an hour in the middle of the run.

The result is a per-round table of the client view (queries, answers,
distinct R1s answering) against the authoritative view (offered queries,
delivered answers, distinct ATs, distinct Rn, unique Rn–AT pairs, top-2
Rn query counts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.testbed import NEGATIVE_TTL, World
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.netem.attack import AttackWindow
from repro.netem.link import PerHostLatency
from repro.resolvers.forwarder import ForwarderConfig, ForwardingResolver
from repro.resolvers.recursive import RecursiveResolver, ResolverConfig
from repro.resolvers.retry import forwarder_profile
from repro.resolvers.stub import OK_CODE, StubResolver
from repro.servers.hierarchy import TLD_ORIGIN, ZONE_ORIGIN, ZoneSpec

PROBE_ID = 28477


@dataclass
class Table7Row:
    """One probing interval of Table 7."""

    interval: int
    client_queries: int
    client_answers: int
    client_r1_count: int
    auth_queries: int
    auth_answers: int
    at_count: int
    rn_count: int
    rn_at_pairs: int
    top2_queries: Tuple[int, int]
    during_attack: bool


@dataclass
class ProbeCaseResult:
    """Table 7 rows plus the Figure 17 topology."""

    rows: List[Table7Row]
    r1_addresses: List[str]
    rn_addresses: List[str]
    at_addresses: List[str]

    def amplification_summary(self) -> Dict[str, float]:
        """Mean offered authoritative queries per client query,
        normal vs attack intervals."""
        def mean_ratio(rows: List[Table7Row]) -> float:
            ratios = [
                row.auth_queries / row.client_queries
                for row in rows
                if row.client_queries
            ]
            return sum(ratios) / len(ratios) if ratios else 0.0

        normal = [row for row in self.rows if not row.during_attack]
        attack = [row for row in self.rows if row.during_attack]
        return {
            "normal_queries_per_client_query": mean_ratio(normal),
            "attack_queries_per_client_query": mean_ratio(attack),
        }


def run_probe_case(
    seed: int = 11,
    rounds: int = 17,
    round_seconds: float = 600.0,
    attack_rounds: Tuple[int, int] = (6, 12),
    loss_fraction: float = 0.90,
    ttl: int = 60,
) -> ProbeCaseResult:
    """Run the single-probe topology through an Experiment-I attack."""
    world = World(
        seed,
        [
            ZoneSpec(".", {"a.root-servers.test.": "193.0.0.1"}),
            ZoneSpec(TLD_ORIGIN, {"ns1.dns.nl.": "193.0.1.1"}),
            ZoneSpec(
                ZONE_ORIGIN,
                {
                    "ns1.cachetest.nl.": "192.0.2.1",
                    "ns2.cachetest.nl.": "192.0.2.2",
                },
                ns_ttl=ttl,
                a_ttl=ttl,
                negative_ttl=NEGATIVE_TTL,
            ),
        ],
        PerHostLatency(jitter=0.2),
    )
    sim, network = world.sim, world.network
    rng = world.streams.stream("probe-case")
    at_addresses = [server.address for server in world.test_servers]
    attack_start = attack_rounds[0] * round_seconds
    attack_end = attack_rounds[1] * round_seconds
    world.attacks.add(
        AttackWindow(at_addresses, attack_start, attack_end, loss_fraction)
    )

    # Eight last-layer recursives with mixed software personalities.
    rn_addresses: List[str] = []
    for index in range(8):
        address = f"100.64.1.{index + 1}"
        RecursiveResolver(
            sim,
            network,
            address,
            world.root_hints,
            config=ResolverConfig.for_software(
                "unbound" if index % 2 == 0 else "bind"
            ),
            name=f"rn{index + 1}",
            rng=random.Random(rng.getrandbits(64)),
        )
        rn_addresses.append(address)

    # Three first-hop forwarders, each fanning out over all eight Rn.
    r1_addresses: List[str] = []
    for index in range(3):
        address = f"100.64.2.{index + 1}"
        shuffled = list(rn_addresses)
        rng.shuffle(shuffled)
        ForwardingResolver(
            sim,
            network,
            address,
            shuffled,
            config=ForwarderConfig(retry=forwarder_profile()),
            name=f"r1{chr(ord('a') + index)}",
        )
        r1_addresses.append(address)

    stub = StubResolver(sim, network, "10.0.0.1", PROBE_ID, r1_addresses)
    qname = Name.from_text(f"{PROBE_ID}.{ZONE_ORIGIN}")

    duration = rounds * round_seconds
    world.schedule_rotations(duration)
    for round_index in range(rounds):
        sim.at(
            round_index * round_seconds + rng.random() * 60.0,
            stub.query_round,
            qname,
            RRType.AAAA,
            round_index,
        )
    sim.run(until=duration + 30.0)

    offered_log, delivered_log = world.offered_query_log, world.query_log
    # Client view per round: (status, resolver id) of each query.
    answers = stub.results
    client: Dict[int, List[Tuple[int, int]]] = {}
    for round_index, status, resolver_id in zip(
        answers.rounds, answers.statuses, answers.resolver.ids
    ):
        client.setdefault(round_index, []).append((status, resolver_id))
    rows: List[Table7Row] = []
    for round_index in range(rounds):
        window = (round_index * round_seconds, (round_index + 1) * round_seconds)
        round_answers = client.get(round_index, [])
        answering_r1 = {
            resolver_id for status, resolver_id in round_answers if status == OK_CODE
        }
        offered = [
            entry
            for entry in offered_log.entries
            if window[0] <= entry.time < window[1] and entry.qname == qname
        ]
        delivered = [
            entry
            for entry in delivered_log.entries
            if window[0] <= entry.time < window[1] and entry.qname == qname
        ]
        rn_seen = {entry.src for entry in offered}
        at_seen = {entry.server for entry in offered}
        pairs: Set[Tuple[str, str]] = {
            (entry.src, entry.server) for entry in offered
        }
        per_rn: Dict[str, int] = {}
        for entry in offered:
            per_rn[entry.src] = per_rn.get(entry.src, 0) + 1
        top_counts = sorted(per_rn.values(), reverse=True)
        top2 = (
            top_counts[0] if top_counts else 0,
            top_counts[1] if len(top_counts) > 1 else 0,
        )
        rows.append(
            Table7Row(
                interval=round_index + 1,
                client_queries=len(round_answers),
                client_answers=sum(
                    1 for status, _resolver in round_answers if status == OK_CODE
                ),
                client_r1_count=len(answering_r1),
                auth_queries=len(offered),
                auth_answers=len(delivered),
                at_count=len(at_seen),
                rn_count=len(rn_seen),
                rn_at_pairs=len(pairs),
                top2_queries=top2,
                during_attack=attack_rounds[0] <= round_index < attack_rounds[1],
            )
        )
    return ProbeCaseResult(rows, r1_addresses, rn_addresses, at_addresses)
