"""Unit tests for metric aggregations."""

import pytest

from repro.core.metrics import (
    amplification_factor,
    authoritative_load_by_round,
    failure_fraction,
    latency_by_round,
    per_probe_amplification,
    quantile,
    responses_by_round,
    round_index_of,
    unique_rn_by_round,
)
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.resolvers.stub import AnswerLog, StubAnswer
from repro.servers.querylog import QueryLog

ZONE = Name.from_text("cachetest.nl.")


def make_answer(sent_at, status=StubAnswer.OK, latency=0.05):
    answered_at = sent_at + latency if status == StubAnswer.OK else None
    return StubAnswer(1, "r", int(sent_at // 600), sent_at, answered_at, status)


def test_round_index_of():
    assert round_index_of(0.0, 600.0) == 0
    assert round_index_of(599.9, 600.0) == 0
    assert round_index_of(600.0, 600.0) == 1


def test_quantile_interpolation():
    values = [0.0, 10.0, 20.0, 30.0]
    assert quantile(values, 0.0) == 0.0
    assert quantile(values, 1.0) == 30.0
    assert quantile(values, 0.5) == 15.0
    assert quantile([5.0], 0.9) == 5.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_responses_by_round_buckets():
    answers = [
        make_answer(10.0),
        make_answer(20.0, status=StubAnswer.NO_ANSWER),
        make_answer(610.0, status=StubAnswer.SERVFAIL),
        make_answer(620.0),
    ]
    series = responses_by_round(AnswerLog(answers), 600.0)
    assert series[0] == {"ok": 1, "servfail": 0, "no_answer": 1, "error": 0}
    assert series[1] == {"ok": 1, "servfail": 1, "no_answer": 0, "error": 0}


def test_failure_fraction_with_window():
    answers = [
        make_answer(10.0),
        make_answer(20.0, status=StubAnswer.NO_ANSWER),
        make_answer(1000.0, status=StubAnswer.SERVFAIL),
    ]
    assert failure_fraction(AnswerLog(answers)) == pytest.approx(2 / 3)
    assert failure_fraction(AnswerLog(answers), (0.0, 600.0)) == pytest.approx(0.5)
    assert failure_fraction(AnswerLog(), None) == 0.0


def test_latency_by_round_quantiles():
    answers = [make_answer(10.0, latency=ms / 1000.0) for ms in (10, 20, 30, 40)]
    answers.append(make_answer(15.0, status=StubAnswer.NO_ANSWER))
    rounds = latency_by_round(AnswerLog(answers), 600.0)
    assert len(rounds) == 1
    row = rounds[0]
    assert row.count == 4
    assert row.median_ms == pytest.approx(25.0)
    assert row.mean_ms == pytest.approx(25.0)
    assert row.p90_ms == pytest.approx(37.0)


def test_authoritative_load_by_round_kinds():
    log = QueryLog()
    ns1 = Name.from_text("ns1.cachetest.nl.")
    log.record(10.0, "r1", Name.from_text("7.cachetest.nl."), RRType.AAAA, "at1")
    log.record(20.0, "r1", ns1, RRType.AAAA, "at1")
    log.record(610.0, "r1", ZONE, RRType.NS, "at1")
    series = authoritative_load_by_round(log, ZONE, [ns1], 600.0)
    assert series[0] == {"AAAA-for-PID": 1, "AAAA-for-NS": 1}
    assert series[1] == {"NS": 1}


def test_amplification_factor():
    load = {
        0: {"AAAA-for-PID": 100},
        1: {"AAAA-for-PID": 100},
        2: {"AAAA-for-PID": 800},
        3: {"AAAA-for-PID": 800},
    }
    assert amplification_factor(load, [0, 1], [2, 3]) == pytest.approx(8.0)
    assert amplification_factor(load, [], [2]) in (0.0, float("inf"))


def test_per_probe_amplification():
    log = QueryLog()
    # Probe 1: three queries from two Rn; probe 2: one query.
    log.record(10.0, "rnA", Name.from_text("1.cachetest.nl."), RRType.AAAA, "at1")
    log.record(11.0, "rnB", Name.from_text("1.cachetest.nl."), RRType.AAAA, "at2")
    log.record(12.0, "rnA", Name.from_text("1.cachetest.nl."), RRType.AAAA, "at1")
    log.record(13.0, "rnA", Name.from_text("2.cachetest.nl."), RRType.AAAA, "at1")
    # Non-probe names ignored:
    log.record(14.0, "rnA", Name.from_text("ns1.cachetest.nl."), RRType.AAAA, "at1")
    log.record(15.0, "rnA", Name.from_text("1.cachetest.nl."), RRType.A, "at1")
    rows = per_probe_amplification(log, ZONE, 600.0)
    assert len(rows) == 1
    row = rows[0]
    assert row.queries_max == 3.0
    assert row.rn_max == 2.0
    assert row.queries_median == 2.0  # probes saw 3 and 1 queries


def test_unique_rn_by_round():
    log = QueryLog()
    log.record(10.0, "a", ZONE, RRType.NS, "at1")
    log.record(20.0, "b", ZONE, RRType.NS, "at1")
    log.record(30.0, "a", ZONE, RRType.NS, "at2")
    log.record(610.0, "c", ZONE, RRType.NS, "at1")
    assert unique_rn_by_round(log, 600.0) == {0: 2, 1: 1}
