"""Unit tests for the synthetic passive-trace generators (§4)."""

import hashlib
import json

import pytest

from repro.workloads.ditl import (
    DitlConfig,
    fraction_at_least,
    generate_ditl_counts,
    per_letter_cdf,
)
from repro.workloads.nl_trace import (
    NlTraceConfig,
    close_query_fraction,
    generate_nl_trace,
    interarrival_medians,
)


@pytest.fixture(scope="module")
def trace():
    return generate_nl_trace(NlTraceConfig(recursive_count=1200, seed=7))


@pytest.fixture(scope="module")
def ditl_counts():
    return generate_ditl_counts(DitlConfig(recursive_count=8000, seed=7))


def test_trace_sorted_and_bounded(trace):
    config = NlTraceConfig()
    assert all(
        earlier.time <= later.time for earlier, later in zip(trace, trace[1:])
    )
    assert all(0 <= query.time < config.duration for query in trace)
    assert all(query.qname.endswith("dns.nl.") for query in trace)


def test_close_query_fraction_near_paper(trace):
    # Paper §4.1: ~28% of queries arrive within 10 s of the previous one.
    fraction = close_query_fraction(trace)
    assert 0.15 < fraction < 0.45


def test_median_interarrival_peaks_at_ttl(trace):
    medians = interarrival_medians(trace)
    assert medians, "no qualifying recursives"
    near_ttl = sum(1 for value in medians.values() if 3400 <= value <= 3900)
    assert near_ttl / len(medians) > 0.4  # the paper's biggest peak


def test_early_refreshers_visible(trace):
    # Paper: ~22% of recursives re-ask faster than the TTL.
    medians = interarrival_medians(trace)
    early = sum(1 for value in medians.values() if value < 3400)
    assert 0.10 < early / len(medians) < 0.45


def test_min_queries_filter():
    tiny = generate_nl_trace(NlTraceConfig(recursive_count=50, seed=1))
    strict = interarrival_medians(tiny, min_queries=10**6)
    assert strict == {}


def test_ditl_majority_single_query(ditl_counts):
    totals = [sum(counts.values()) for counts in ditl_counts.values()]
    singles = sum(1 for total in totals if total == 1)
    # Paper §4.2: ~87% of recursives send exactly one query per day.
    assert 0.80 < singles / len(totals) < 0.93


def test_ditl_long_tail_exists(ditl_counts):
    totals = [sum(counts.values()) for counts in ditl_counts.values()]
    assert max(totals) > 100  # heavy tail


def test_ditl_tail_capped(ditl_counts):
    totals = [sum(counts.values()) for counts in ditl_counts.values()]
    assert max(totals) <= DitlConfig().max_count


def test_h_root_worse_than_f_root(ditl_counts):
    # Paper Figure 5: H-Root sees the most re-asking, F-Root the least.
    f_heavy = fraction_at_least(ditl_counts, "F", 5)
    h_heavy = fraction_at_least(ditl_counts, "H", 5)
    assert h_heavy > f_heavy


def test_per_letter_cdf_monotone(ditl_counts):
    cdfs = per_letter_cdf(ditl_counts)
    assert "ALL" in cdfs and "F" in cdfs and "H" in cdfs
    for series in cdfs.values():
        assert all(
            earlier <= later + 1e-12
            for earlier, later in zip(series, series[1:])
        )
        assert 0.0 <= series[0] <= 1.0


def test_cdf_all_majority_at_one(ditl_counts):
    cdfs = per_letter_cdf(ditl_counts)
    assert cdfs["ALL"][0] > 0.8  # ≥80% of recursives sent ≤1 query


def test_generators_deterministic():
    a = generate_nl_trace(NlTraceConfig(recursive_count=100, seed=3))
    b = generate_nl_trace(NlTraceConfig(recursive_count=100, seed=3))
    assert [(q.time, q.src, q.qname) for q in a] == [
        (q.time, q.src, q.qname) for q in b
    ]
    assert generate_ditl_counts(DitlConfig(recursive_count=100, seed=3)) == (
        generate_ditl_counts(DitlConfig(recursive_count=100, seed=3))
    )


# The exact draws of both generators, pinned as sha256 digests of a
# canonical JSON. A rewrite of either generator must reproduce every
# number (and, for DITL, each recursive's per-letter key order), because
# the report's Figure 4/5 cells read them.
DITL_GOLDEN = {
    42: "67e9d34beda73c6f2577fb08937c7b8624572e1e2bd8f21b433a082a9aed546c",
    7: "874c06402a124cc568770772669b730bb1a8e6564a629506572ebab56c275d0c",
}
NL_TRACE_GOLDEN = {
    42: "1a7e432a0a138c13799216f681e38cb97333a7feecb9c953824035f04d80c4ff",
    7: "5661fc9d7df5e3133fa2851648835567bbe0f2b86012691e50902c0e17408207",
}


def _digest(rows) -> str:
    canonical = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DITL_GOLDEN))
def test_ditl_counts_match_golden_draws(seed):
    counts = generate_ditl_counts(DitlConfig(recursive_count=20000, seed=seed))
    rows = [[src, list(per_letter.items())] for src, per_letter in counts.items()]
    assert _digest(rows) == DITL_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(NL_TRACE_GOLDEN))
def test_nl_trace_matches_golden_draws(seed):
    trace = generate_nl_trace(NlTraceConfig(recursive_count=2000, seed=seed))
    rows = [[query.time, query.src, query.qname] for query in trace]
    assert _digest(rows) == NL_TRACE_GOLDEN[seed]
