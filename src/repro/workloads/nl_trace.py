"""Synthetic ``.nl`` authoritative traffic (paper §4.1, Figure 4).

The paper watches queries for ``ns1-ns5.dns.nl`` (TTL 3600) at the
``.nl`` authoritatives for six hours and studies per-recursive
inter-arrival times. Their findings, which this generator encodes as an
explicit behavior mix:

* ~28% of queries arrive with Δt < 10 s (parallel/happy-eyeballs
  bursts), excluded from caching analysis;
* the biggest peak of per-recursive median Δt sits at 3600 s (full-TTL
  honoring, type AA refreshes);
* a smaller peak near 1800 s and mass below 3600 s (type AC: TTL
  limiting, cache fragmentation, flushes) — about 22% of recursives ask
  more frequently than the TTL;
* a long frequent-querier tail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple


@dataclass(slots=True)
class TraceQuery:
    """One passive-trace row: who asked which nameserver name, when."""

    time: float
    src: str
    qname: str

    def __repr__(self) -> str:
        return f"<TraceQuery t={self.time:.1f} {self.src} {self.qname}>"


@dataclass
class NlTraceConfig:
    """Behavior mix of the synthetic recursive population."""

    recursive_count: int = 2000
    duration: float = 6 * 3600.0
    ttl: float = 3600.0
    names: Tuple[str, ...] = (
        "ns1.dns.nl.",
        "ns2.dns.nl.",
        "ns3.dns.nl.",
        "ns4.dns.nl.",
        "ns5.dns.nl.",
    )
    # Population shares (sum to 1): honor the full TTL; refresh early
    # (caps/fragmentation, ~half of these near TTL/2); query in parallel
    # bursts; frequent re-askers.
    honor_share: float = 0.45
    early_share: float = 0.18
    burst_share: float = 0.32
    heavy_share: float = 0.05
    # One extreme querier per trace models the paper's "one query every
    # 4 seconds from the same IP" observation.
    extreme_period: float = 4.0
    seed: int = 42


def _emit_periodic(
    rng: random.Random,
    src: str,
    names: Tuple[str, ...],
    duration: float,
    period: float,
    jitter: float,
    out: List[TraceQuery],
) -> None:
    time = rng.random() * period
    while time < duration:
        out.append(TraceQuery(time, src, rng.choice(names)))
        time += period * (1.0 + (rng.random() - 0.5) * jitter)


def generate_nl_trace(config: Optional[NlTraceConfig] = None) -> List[TraceQuery]:
    """Generate the six-hour trace, sorted by time."""
    config = config or NlTraceConfig()
    rng = random.Random(config.seed)
    out: List[TraceQuery] = []
    shares = (
        ("honor", config.honor_share),
        ("early", config.early_share),
        ("burst", config.burst_share),
        ("heavy", config.heavy_share),
    )
    for index in range(config.recursive_count):
        src = f"rec-{index}"
        draw = rng.random()
        kind = "honor"
        for name, share in shares:
            if draw < share:
                kind = name
                break
            draw -= share
        if kind == "honor":
            # Refetch right after TTL expiry, small positive slack.
            period = config.ttl * (1.0 + rng.random() * 0.04)
            _emit_periodic(rng, src, config.names, config.duration, period, 0.02, out)
        elif kind == "early":
            # TTL limiting / fragmentation: a cluster near TTL/2, the
            # rest spread below the TTL.
            if rng.random() < 0.5:
                period = config.ttl / 2 * (1.0 + (rng.random() - 0.5) * 0.1)
            else:
                period = config.ttl * (0.1 + 0.8 * rng.random())
            _emit_periodic(rng, src, config.names, config.duration, period, 0.05, out)
        elif kind == "burst":
            # Happy-eyeballs-style: TTL-paced rounds, but each round is a
            # burst of near-simultaneous queries to several names.
            period = config.ttl * (1.0 + rng.random() * 0.05)
            time = rng.random() * period
            while time < config.duration:
                burst = rng.randint(3, 5)
                for __ in range(burst):
                    query_time = time + rng.random() * 5.0
                    if query_time < config.duration:
                        out.append(
                            TraceQuery(query_time, src, rng.choice(config.names))
                        )
                time += period
        else:
            # Frequent re-askers: sub-TTL periods down to sub-minute.
            period = rng.choice((30.0, 60.0, 120.0, 300.0, 600.0))
            _emit_periodic(rng, src, config.names, config.duration, period, 0.5, out)
    # One extreme abuser, as the paper observes in the wild.
    _emit_periodic(
        rng,
        "rec-extreme",
        config.names,
        config.duration,
        config.extreme_period,
        0.2,
        out,
    )
    out.sort(key=attrgetter("time"))
    return out


class Interarrivals(NamedTuple):
    """The paper's §4.1 reading of a trace (see :func:`interarrivals`)."""

    medians: Dict[str, float]
    close: int
    total: int

    @property
    def close_fraction(self) -> float:
        return self.close / self.total if self.total else 0.0


def interarrivals(
    times_by_src: Dict[str, List[float]],
    min_queries: int = 5,
    exclude_below: float = 10.0,
) -> Interarrivals:
    """Per-source inter-arrival times, the paper's §4.1 method.

    Sorts each source's query times in place and counts its gaps
    (``total``) and those below ``exclude_below`` seconds (``close``:
    parallel queries, not caching). A source with at least
    ``min_queries`` queries and one gap left gets the median of the rest.
    """
    medians: Dict[str, float] = {}
    close = total = 0
    for src, times in times_by_src.items():
        times.sort()
        deltas = [later - earlier for earlier, later in zip(times, times[1:])]
        kept = sorted(delta for delta in deltas if delta >= exclude_below)
        total += len(deltas)
        close += len(deltas) - len(kept)
        if kept and len(times) >= min_queries:
            medians[src] = kept[len(kept) // 2]
    return Interarrivals(medians, close, total)


def _times_by_src(trace: List[TraceQuery]) -> Dict[str, List[float]]:
    by_src: Dict[str, List[float]] = {}
    for query in trace:
        by_src.setdefault(query.src, []).append(query.time)
    return by_src


def interarrival_medians(
    trace: List[TraceQuery],
    min_queries: int = 5,
    exclude_below: float = 10.0,
) -> Dict[str, float]:
    """Median inter-arrival per recursive (the paper's Figure 4 series)."""
    return interarrivals(_times_by_src(trace), min_queries, exclude_below).medians


def close_query_fraction(
    trace: List[TraceQuery], threshold: float = 10.0
) -> float:
    """Fraction of queries with per-source Δt below ``threshold`` (the
    paper's ~28% of frequent, parallel queries)."""
    return interarrivals(_times_by_src(trace), exclude_below=threshold).close_fraction
