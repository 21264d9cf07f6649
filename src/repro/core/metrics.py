"""Client-experience and authoritative-side metric aggregations.

These functions turn raw :class:`~repro.resolvers.stub.StubAnswer` rows
and server query logs into exactly the series the paper plots: answers
per round by outcome (Figures 6, 8, 14), latency quantiles per round
(Figures 9, 15), per-qtype authoritative load (Figure 10), unique Rn
addresses per round (Figure 12), and per-probe Rn / query amplification
quantiles (Figure 11, Table 7).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.columns import round_indexes
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.resolvers.stub import StubAnswer
from repro.servers.querylog import QueryLog, classify_query_kind


def round_index_of(time: float, round_seconds: float) -> int:
    return int(time // round_seconds)


def quantile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation quantile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("quantile of empty sequence")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    value = sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight
    # Clamp: float interpolation can overshoot by an ULP.
    return min(max(value, sorted_values[0]), sorted_values[-1])


# ---------------------------------------------------------------------------
# Client-side series
# ---------------------------------------------------------------------------
def responses_by_round(
    answers: Iterable[StubAnswer],
    round_seconds: float = 600.0,
) -> Dict[int, Dict[str, int]]:
    """Answers per probing round by outcome: OK / SERVFAIL / no answer.

    This is the data behind Figures 6, 8, and 14 (stacked outcome
    counts over 10-minute rounds). NXDOMAIN/NODATA count as errors the
    way the paper discards them ("answers (disc.)").
    """
    series: Dict[int, Dict[str, int]] = {}
    for answer in answers:
        bucket = series.setdefault(
            round_index_of(answer.sent_at, round_seconds),
            {"ok": 0, "servfail": 0, "no_answer": 0, "error": 0},
        )
        if answer.status == StubAnswer.OK:
            bucket["ok"] += 1
        elif answer.status == StubAnswer.SERVFAIL:
            bucket["servfail"] += 1
        elif answer.status == StubAnswer.NO_ANSWER:
            bucket["no_answer"] += 1
        else:
            bucket["error"] += 1
    return series


def failure_fraction(
    answers: Iterable[StubAnswer],
    window: Optional[Tuple[float, float]] = None,
) -> float:
    """Fraction of queries not answered OK, optionally within a window."""
    total = 0
    failed = 0
    for answer in answers:
        if window is not None and not window[0] <= answer.sent_at < window[1]:
            continue
        total += 1
        if answer.status != StubAnswer.OK:
            failed += 1
    return failed / total if total else 0.0


@dataclass
class LatencyQuantiles:
    """One round's latency summary (milliseconds), Figure 9 style."""

    round_index: int
    count: int
    median_ms: float
    mean_ms: float
    p75_ms: float
    p90_ms: float

    def as_row(self) -> Tuple[int, int, float, float, float, float]:
        return (
            self.round_index,
            self.count,
            self.median_ms,
            self.mean_ms,
            self.p75_ms,
            self.p90_ms,
        )


def latency_by_round(
    answers: Iterable[StubAnswer],
    round_seconds: float = 600.0,
) -> List[LatencyQuantiles]:
    """Per-round latency quantiles over successfully answered queries."""
    latencies: Dict[int, List[float]] = {}
    for answer in answers:
        if answer.latency is None or answer.status != StubAnswer.OK:
            continue
        latencies.setdefault(
            round_index_of(answer.sent_at, round_seconds), []
        ).append(answer.latency * 1000.0)
    result: List[LatencyQuantiles] = []
    for round_index in sorted(latencies):
        values = sorted(latencies[round_index])
        result.append(
            LatencyQuantiles(
                round_index=round_index,
                count=len(values),
                median_ms=quantile(values, 0.5),
                mean_ms=sum(values) / len(values),
                p75_ms=quantile(values, 0.75),
                p90_ms=quantile(values, 0.90),
            )
        )
    return result


# ---------------------------------------------------------------------------
# Authoritative-side series
# ---------------------------------------------------------------------------
def authoritative_load_by_round(
    query_log: QueryLog,
    target_zone: Name,
    ns_names: Sequence[Name],
    round_seconds: float = 600.0,
) -> Dict[int, Dict[str, int]]:
    """Queries at the authoritatives per round, by Figure 10's kinds."""
    ns_set = frozenset(ns_names)

    def classify(qname: Name, qtype: RRType) -> str:
        return classify_query_kind(qname, qtype, target_zone, ns_set)

    return query_log.count_by_round(round_seconds, classify)


def amplification_factor(
    load_by_round: Dict[int, Dict[str, int]],
    normal_rounds: Sequence[int],
    attack_rounds: Sequence[int],
) -> float:
    """Mean attack-round load over mean normal-round load (§6.1's 8×)."""

    def mean_total(rounds: Sequence[int]) -> float:
        totals = [
            sum(load_by_round.get(index, {}).values()) for index in rounds
        ]
        return sum(totals) / len(totals) if totals else 0.0

    normal = mean_total(normal_rounds)
    attack = mean_total(attack_rounds)
    if normal == 0:
        return float("inf") if attack else 0.0
    return attack / normal


@dataclass
class PerProbeAmplification:
    """Figure 11: per-probe Rn fan-out and query amplification."""

    round_index: int
    rn_median: float
    rn_p90: float
    rn_max: float
    queries_median: float
    queries_p90: float
    queries_max: float


def per_probe_amplification(
    query_log: QueryLog,
    zone_origin: Name,
    round_seconds: float = 600.0,
) -> List[PerProbeAmplification]:
    """Distribution (over probes) of distinct Rn and AAAA-for-PID counts.

    Only AAAA queries for single-label probe names under the zone are
    counted, exactly like the paper's Figure 11 (NS-related queries
    cannot be attributed to a probe).
    """
    # Probe label per qname id, for single-label numeric names under the
    # zone; every other name stays out of the figure.
    probe_of: Dict[int, str] = {}
    for qname_id, qname in enumerate(query_log.qnames):
        if qname.is_subdomain_of(zone_origin):
            labels = qname.relativize(zone_origin)
            if len(labels) == 1 and labels[0].isdigit():
                probe_of[qname_id] = labels[0]
    aaaa_id = query_log.qtype.index.get(RRType.AAAA)

    per_round: Dict[int, Dict[str, Dict[str, int]]] = {}
    rn_sets: Dict[Tuple[int, str], set] = {}
    counted = Counter(
        zip(
            round_indexes(query_log.times, round_seconds),
            query_log.qname.ids,
            query_log.qtype.ids,
            query_log.src.ids,
        )
    )
    for (round_index, qname_id, qtype_id, src_id), count in counted.items():
        probe_key = probe_of.get(qname_id)
        if qtype_id != aaaa_id or probe_key is None:
            continue
        counts = per_round.setdefault(round_index, {}).setdefault(
            probe_key, {"queries": 0}
        )
        counts["queries"] += count
        rn_sets.setdefault((round_index, probe_key), set()).add(src_id)

    result: List[PerProbeAmplification] = []
    for round_index in sorted(per_round):
        probes = per_round[round_index]
        rn_counts = sorted(
            float(len(rn_sets[(round_index, probe_key)])) for probe_key in probes
        )
        query_counts = sorted(
            float(counts["queries"]) for counts in probes.values()
        )
        result.append(
            PerProbeAmplification(
                round_index=round_index,
                rn_median=quantile(rn_counts, 0.5),
                rn_p90=quantile(rn_counts, 0.9),
                rn_max=rn_counts[-1],
                queries_median=quantile(query_counts, 0.5),
                queries_p90=quantile(query_counts, 0.9),
                queries_max=query_counts[-1],
            )
        )
    return result


def unique_rn_by_round(
    query_log: QueryLog, round_seconds: float = 600.0
) -> Dict[int, int]:
    """Figure 12: unique recursive addresses reaching the authoritatives."""
    return query_log.unique_sources_by_round(round_seconds)
