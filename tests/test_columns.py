"""The column stores behind the query log, the span log, and the stub's
answers and their classes.

Every aggregation and exporter is checked against a plain reference row
list (the per-row algorithms the stores replaced), over random
``record``/``append`` sequences; then the view contract, id-column
widths, pickling and the payload budget.
"""

import dataclasses
import gc
import io
import json
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.traceio import analyze_trace, export_query_log
from repro.attackload import AttackLoadSpec
from repro.clients.publicdns import ResolverRegistry
from repro.core.classification import (
    AC_ID,
    AnswerClass,
    ClassificationTable,
    ClassifiedAnswer,
    ClassifiedLog,
    RotationSchedule,
    class_timeseries,
    classify_answers,
    classify_misses_by_resolver,
)
from repro.core.experiments import DDOS_EXPERIMENTS
from repro.core.experiments.ddos import DDoSSpec, run_ddos
from repro.core.experiments.defense_study import defense_spec_for
from repro.core.metrics import (
    failure_fraction,
    latency_by_round,
    per_probe_amplification,
    quantile,
    responses_by_round,
)
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import Rcode, RRType
from repro.obs import SpanEvent, export_spans, validate_span_chains
from repro.obs.records import SPAN_KINDS, SpanLog
from repro.resolvers.stub import STATUSES, AnswerLog, StubAnswer
from repro.runner import DiskCache, detach_result
from repro.servers.querylog import QueryLog, QueryLogEntry, classify_query_kind

ZONE = Name.from_text("cachetest.nl.")
NS_NAMES = frozenset({Name.from_text("ns1.cachetest.nl."), Name.from_text("ns2.cachetest.nl.")})

# Small pools, so random sequences repeat values (the interned path) and
# mix spellings, zones and qtypes.
QNAMES = [
    Name.from_text(text)
    for text in (
        "1.cachetest.nl.",
        "1.CacheTest.NL.",
        "2.cachetest.nl.",
        "17.cachetest.nl.",
        "ns1.cachetest.nl.",
        "NS2.cachetest.nl.",
        "cachetest.nl.",
        "a.b.cachetest.nl.",
        "x.example.com.",
        ".",
    )
]
ROWS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4000.0, allow_nan=False),
        st.sampled_from(["100.64.0.1", "100.64.0.2", "8.8.8.8", "8.8.4.4", "r5"]),
        st.sampled_from(QNAMES),
        st.sampled_from([RRType.AAAA, RRType.A, RRType.NS, RRType.TXT]),
        st.sampled_from(["at-ns1", "at-ns2", ""]),
    ),
    max_size=60,
)


def build_log(rows) -> QueryLog:
    log = QueryLog()
    for row in rows:
        log.record(*row)
    return log


def classify(qname, qtype):
    return classify_query_kind(qname, qtype, ZONE, NS_NAMES)


# ----------------------------------------------------------------------
# Reference: the per-row algorithms, over a plain list of entries
# ----------------------------------------------------------------------
def reference_count_by_round(entries, round_seconds):
    result = {}
    for entry in entries:
        bucket = result.setdefault(int(entry.time // round_seconds), {})
        label = classify(entry.qname, entry.qtype)
        bucket[label] = bucket.get(label, 0) + 1
    return result


def reference_unique_sources(entries, round_seconds):
    seen = {}
    for entry in entries:
        seen.setdefault(int(entry.time // round_seconds), set()).add(entry.src)
    return {index: len(sources) for index, sources in seen.items()}


def reference_counts(entries, field):
    counts = {}
    for entry in entries:
        key = getattr(entry, field)
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_per_probe(entries, round_seconds):
    queries, rn = {}, {}
    for entry in entries:
        if entry.qtype != RRType.AAAA or not entry.qname.is_subdomain_of(ZONE):
            continue
        labels = entry.qname.relativize(ZONE)
        if len(labels) != 1 or not labels[0].isdigit():
            continue
        key = (int(entry.time // round_seconds), labels[0])
        queries[key] = queries.get(key, 0) + 1
        rn.setdefault(key, set()).add(entry.src)
    result = []
    for round_index in sorted({key[0] for key in queries}):
        rn_counts = sorted(float(len(rn[key])) for key in rn if key[0] == round_index)
        query_counts = sorted(float(queries[key]) for key in queries if key[0] == round_index)
        result.append(
            (
                round_index,
                quantile(rn_counts, 0.5),
                quantile(rn_counts, 0.9),
                rn_counts[-1],
                quantile(query_counts, 0.5),
                quantile(query_counts, 0.9),
                query_counts[-1],
            )
        )
    return result


def reference_export(entries) -> str:
    return "".join(
        json.dumps(
            {
                "t": round(entry.time, 6),
                "src": entry.src,
                "qname": str(entry.qname),
                "qtype": str(entry.qtype),
                "server": entry.server,
            },
            separators=(",", ":"),
        )
        + "\n"
        for entry in entries
    )


@given(ROWS)
@settings(max_examples=150, deadline=None)
def test_query_log_matches_reference_rows(rows):
    log = build_log(rows)
    entries = [QueryLogEntry(*row) for row in rows]

    assert len(log) == len(entries)
    assert log.entries == entries
    # Dict equality ignores order; the report renders in insertion order.
    counted = log.count_by_round(600.0, classify)
    expected = reference_count_by_round(entries, 600.0)
    assert counted == expected
    assert list(counted) == list(expected)
    assert [list(bucket) for bucket in counted.values()] == [
        list(bucket) for bucket in expected.values()
    ]
    unique = log.unique_sources_by_round(600.0)
    assert unique == reference_unique_sources(entries, 600.0)
    assert list(unique) == list(reference_unique_sources(entries, 600.0))
    assert log.per_server_counts() == reference_counts(entries, "server")
    assert list(log.per_server_counts()) == list(reference_counts(entries, "server"))
    assert log.per_source_counts() == reference_counts(entries, "src")
    assert list(log.per_source_counts()) == list(reference_counts(entries, "src"))
    aaaa = [entry for entry in entries if entry.qtype == RRType.AAAA]
    assert log.per_source_counts(
        lambda entry: entry.qtype == RRType.AAAA
    ) == reference_counts(aaaa, "src")
    assert list(log.filtered(lambda entry: entry.time > 600.0)) == [
        entry for entry in entries if entry.time > 600.0
    ]
    assert [
        dataclasses.astuple(row) for row in per_probe_amplification(log, ZONE, 600.0)
    ] == reference_per_probe(entries, 600.0)

    stream = io.StringIO()
    assert export_query_log(log, stream) == len(entries)
    assert stream.getvalue() == reference_export(entries)


@given(ROWS)
@settings(max_examples=50, deadline=None)
def test_analyze_trace_matches_reference_rows(rows):
    log = build_log(rows)
    by_src = {}
    for time, src, *_ in rows:
        by_src.setdefault(src, []).append(time)
    analysis = analyze_trace(log, ttl=600.0, min_queries=2, exclude_below=1.0)
    assert analysis.total_queries == len(rows)
    assert analysis.sources == len(by_src)
    assert analysis.public_sources == sum(
        1 for src in by_src if src in ("8.8.8.8", "8.8.4.4")
    )
    deltas = [
        b - a
        for times in by_src.values()
        for a, b in zip(sorted(times), sorted(times)[1:])
    ]
    close = sum(1 for delta in deltas if delta < 1.0)
    assert analysis.close_query_fraction == (close / len(deltas) if deltas else 0.0)


def _ac_answers(*answers) -> ClassifiedLog:
    """Each (probe_id, resolver, sent_at) as an answered query classed AC."""
    log = AnswerLog(
        StubAnswer(probe_id, resolver, 0, sent_at, sent_at + 1.0, StubAnswer.OK)
        for probe_id, resolver, sent_at in answers
    )
    classified = ClassifiedLog(log)
    for row in range(len(log)):
        classified.append(row, AC_ID, False, False)
    return classified


def test_miss_attribution_reads_every_spelling_of_the_probe_name():
    registry = ResolverRegistry()
    google = "172.217.0.1"
    registry.register_public_backend(google, google=True)
    log = QueryLog()
    # Probe 1's miss was carried by a Google Rn under a mixed-case
    # spelling; probe 2's by a non-public Rn; probe 17's query falls
    # outside the answer's window.
    log.record(10.2, google, Name.from_text("1.CacheTest.NL."), RRType.AAAA, "at-ns1")
    log.record(10.3, "100.64.0.9", Name.from_text("2.cachetest.nl."), RRType.AAAA, "at-ns1")
    log.record(99.0, google, Name.from_text("17.cachetest.nl."), RRType.AAAA, "at-ns1")
    classified = _ac_answers(
        (1, "100.64.0.1", 10.0),
        (2, "100.64.0.1", 10.0),
        (17, "100.64.0.1", 10.0),
    )
    table = classify_misses_by_resolver(classified, registry, log, ZONE)
    assert (table.ac_total, table.non_public_r1) == (3, 3)
    assert (table.google_rn, table.other_rn) == (1, 2)


# ----------------------------------------------------------------------
# Answer log and classes against a plain list of StubAnswer
# ----------------------------------------------------------------------
def _resolver(index: int) -> str:
    return f"100.64.{index >> 8}.{index & 255}"


def _optional(values):
    return st.none() | values


# Probes and resolvers mostly from small pools, so VPs repeat and the
# classifier sees histories; now and then from wide ranges, so the id
# columns widen.
ANSWERS = st.lists(
    st.tuples(
        st.just(1) | st.just(2) | st.integers(min_value=0, max_value=70_000),
        st.just(0) | st.just(1) | st.integers(min_value=0, max_value=299),
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False),
        _optional(st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False)),
        st.just(StubAnswer.OK) | st.sampled_from(STATUSES),
        _optional(st.sampled_from(list(Rcode))),
        _optional(st.sampled_from([0, 60, 1700, 1800, 1900]) | st.integers(min_value=0, max_value=2**32)),
        st.integers(min_value=0, max_value=40) | _optional(st.integers(min_value=0, max_value=40)),
        _optional(st.integers(min_value=0, max_value=2**32 - 1)),
        st.integers(min_value=0, max_value=300),
        _optional(st.integers(min_value=0, max_value=2**40)),
    ),
    max_size=60,
)

#: 300 distinct resolvers, and None in every optional field.
WIDE_ANSWERS = [
    (index % 7, index, index % 4, index * 7.0, None, StubAnswer.NO_ANSWER,
     None, None, None, None, 0, None)
    for index in range(300)
] + [
    (1, 299, 5, 4000.0, 4000.5, StubAnswer.OK, Rcode.NOERROR, 1800, 3, 1800, 1, 9),
    (1, 299, 6, 4600.0, 4600.5, StubAnswer.OK, Rcode.NOERROR, 1200, 3, 1800, 1, None),
]

ANSWER_ROTATION = RotationSchedule(initial_serial=1, interval=600.0)


def build_answers(rows):
    return [
        StubAnswer(probe_id, _resolver(resolver), *rest)
        for probe_id, resolver, *rest in rows
    ]


def reference_responses(answers, round_seconds):
    series = {}
    for answer in answers:
        bucket = series.setdefault(
            int(answer.sent_at // round_seconds),
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


def reference_failure_fraction(answers, window=None):
    total = failed = 0
    for answer in answers:
        if window is not None and not window[0] <= answer.sent_at < window[1]:
            continue
        total += 1
        failed += answer.status != StubAnswer.OK
    return failed / total if total else 0.0


def reference_latency(answers, round_seconds):
    latencies = {}
    for answer in answers:
        if answer.latency is None or answer.status != StubAnswer.OK:
            continue
        latencies.setdefault(int(answer.sent_at // round_seconds), []).append(
            answer.latency * 1000.0
        )
    result = []
    for round_index in sorted(latencies):
        values = sorted(latencies[round_index])
        result.append(
            (
                round_index,
                len(values),
                quantile(values, 0.5),
                sum(values) / len(values),
                quantile(values, 0.75),
                quantile(values, 0.90),
            )
        )
    return result


def reference_classify(answers, zone_ttl, rotation):
    """The per-row §3.4 classifier the class store replaced."""
    table = ClassificationTable()
    classified = []
    by_vp = {}
    for answer in answers:
        if answer.is_success and answer.serial is not None:
            by_vp.setdefault((answer.probe_id, answer.resolver), []).append(answer)
    for vp_answers in by_vp.values():
        vp_answers.sort(key=lambda item: item.sent_at)
        table.answers_valid += len(vp_answers)
        if len(vp_answers) == 1:
            table.one_answer_vps += 1
            continue
        previous_serial = cache_valid_until = None
        for index, answer in enumerate(vp_answers):
            ttl = answer.returned_ttl
            altered = ttl is not None and abs(ttl - zone_ttl) > 0.1 * zone_ttl
            decreased = previous_serial is not None and answer.serial < previous_serial
            if index == 0:
                table.warmup += 1
                if altered:
                    table.warmup_ttl_altered += 1
                else:
                    table.warmup_ttl_as_zone += 1
                answer_class = AnswerClass.WARMUP
            else:
                from_cache = answer.serial < rotation.serial_at(answer.sent_at)
                expected = cache_valid_until is not None and answer.sent_at < cache_valid_until
                if from_cache and expected:
                    answer_class = AnswerClass.CC
                    table.cc += 1
                    table.cc_decreasing += decreased
                elif from_cache:
                    answer_class = AnswerClass.CA
                    table.ca += 1
                    table.ca_decreasing += decreased
                elif expected:
                    answer_class = AnswerClass.AC
                    table.ac += 1
                    if altered:
                        table.ac_ttl_altered += 1
                    else:
                        table.ac_ttl_as_zone += 1
                else:
                    answer_class = AnswerClass.AA
                    table.aa += 1
            classified.append(ClassifiedAnswer(answer, answer_class, altered, decreased))
            previous_serial = answer.serial
            if answer.answered_at is not None and ttl is not None:
                cache_valid_until = answer.answered_at + ttl
    return table, classified


def reference_class_timeseries(classified, round_seconds, warmup_as_aa):
    series = {}
    for item in classified:
        if item.answer_class == AnswerClass.WARMUP and not warmup_as_aa:
            continue
        bucket = series.setdefault(
            int(item.time // round_seconds), {"AA": 0, "AC": 0, "CC": 0, "CA": 0}
        )
        if item.answer_class == AnswerClass.WARMUP:
            bucket["AA"] += 1
        else:
            bucket[item.answer_class.value] += 1
    return series


def assert_same_series(mine, reference):
    """Equal, and in the same key order at both levels."""
    assert mine == reference
    assert list(mine) == list(reference)
    assert [list(bucket) for bucket in mine.values()] == [
        list(bucket) for bucket in reference.values()
    ]


@given(ANSWERS)
@example(WIDE_ANSWERS)
@settings(max_examples=150, deadline=None)
def test_answer_log_matches_reference_rows(rows):
    answers = build_answers(rows)
    log = AnswerLog(answers)

    assert len(log) == len(answers)
    assert log == answers and list(log) == answers
    for row in log:
        for name in StubAnswer.__slots__:
            value = getattr(row, name)
            assert not (isinstance(value, float) and math.isnan(value))
    assert pickle.loads(pickle.dumps(log)) == answers
    picked = list(range(0, len(answers), 2))[::-1]
    assert log.take(picked) == [answers[index] for index in picked]

    assert_same_series(responses_by_round(log, 600.0), reference_responses(answers, 600.0))
    for window in (None, (600.0, 4200.0)):
        assert failure_fraction(log, window) == reference_failure_fraction(answers, window)
    assert [
        dataclasses.astuple(row) for row in latency_by_round(log, 600.0)
    ] == reference_latency(answers, 600.0)

    table, classified = classify_answers(log, 1800, ANSWER_ROTATION)
    reference_table, reference_rows = reference_classify(answers, 1800, ANSWER_ROTATION)
    assert table == reference_table
    assert classified == reference_rows
    for warmup_as_aa in (True, False):
        assert_same_series(
            class_timeseries(classified, 600.0, warmup_as_aa),
            reference_class_timeseries(reference_rows, 600.0, warmup_as_aa),
        )
    loaded = pickle.loads(pickle.dumps(classified))
    assert loaded == reference_rows


def test_answer_log_rejects_values_it_cannot_hold():
    log = AnswerLog()
    log.append(7, "r1", 0, 1.0)
    fields = {"probe_id": 7, "resolver": "r1", "round_index": 0, "sent_at": 3.0}
    for bad in (
        {"probe_id": -1},
        {"round_index": 2**64},
        {"trace_id": -1},
        {"trace_id": 2**64 - 1},
    ):
        with pytest.raises(OverflowError):
            log.append(**{**fields, **bad})
    # A refused row leaves nothing behind in any column.
    assert log == [StubAnswer(7, "r1", 0, 1.0)]
    assert {len(getattr(log, name)) for name in AnswerLog.__slots__ if name != "resolver"} == {1}
    for bad in (
        {"serial": -1},
        {"returned_ttl": -5},
        {"encoded_ttl": 2**64},
        {"record_count": -1},
    ):
        row = log.append(8, "r2", 1, 2.0)
        with pytest.raises(OverflowError):
            log.settle(row, 2.5, StubAnswer.OK, Rcode.NOERROR, **bad)
    with pytest.raises(AttributeError):
        log[0].status = StubAnswer.OK


# ----------------------------------------------------------------------
# Span log against a plain list of SpanEvent
# ----------------------------------------------------------------------
SPANS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=70000),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from(sorted(SPAN_KINDS)),
        st.sampled_from(["stub", "rec0", "net", "at-ns1"]),
        st.sampled_from(["", "p0:r0", "p1:r0"]),
        st.sampled_from(["", "ns1", "attempt=2", "a->b"]),
    ),
    max_size=40,
)


@given(SPANS)
@settings(max_examples=100, deadline=None)
def test_span_log_matches_reference_rows(rows):
    log = SpanLog()
    for row in rows:
        log.append(*row)
    events = [SpanEvent(*row) for row in rows]
    assert log == events
    assert SpanLog(events) == log

    from_log, from_list = io.StringIO(), io.StringIO()
    assert export_spans(log, from_log, run="r") == len(events)
    export_spans(events, from_list, run="r")
    assert from_log.getvalue() == from_list.getvalue()


def test_span_chains_match_reference_grouping():
    rng = random.Random(7)
    events = []
    for trace_id in range(40):
        start = rng.uniform(0.0, 50.0)
        events.append(SpanEvent(trace_id, start, "issue", "stub", vp=f"p{trace_id}:r0"))
        for hop in range(rng.randrange(4)):
            events.append(SpanEvent(trace_id, start + 0.1 * (hop + 1), "send", "rec0"))
        events.append(SpanEvent(trace_id, start + 1.0, "answer", "stub"))
    rng.shuffle(events)  # chains are re-ordered by time, stably

    expected = {}
    for event in events:
        expected.setdefault(event.trace_id, []).append(event)
    for chain in expected.values():
        chain.sort(key=lambda event: event.time)

    assert validate_span_chains(events) == expected
    assert validate_span_chains(SpanLog(events)) == expected


# ----------------------------------------------------------------------
# The view contract of ``entries`` / ``spans``
# ----------------------------------------------------------------------
def test_views_behave_like_read_only_sequences():
    rows = [
        (1.0, "r1", QNAMES[0], RRType.AAAA, "at1"),
        (2.0, "r2", QNAMES[4], RRType.A, "at2"),
        (3.0, "r1", QNAMES[2], RRType.AAAA, "at1"),
    ]
    log = build_log(rows)
    entries = log.entries
    assert len(entries) == 3
    assert [entry.time for entry in entries] == [1.0, 2.0, 3.0]
    assert entries[0].src == "r1" and entries[-1].time == 3.0
    assert entries[-3] == entries[0]
    assert [entry.time for entry in entries[1:]] == [2.0, 3.0]
    assert [entry.time for entry in entries[::-1]] == [3.0, 2.0, 1.0]
    assert entries[5:] == []
    for index in (3, -4):
        with pytest.raises(IndexError):
            entries[index]
    assert QueryLogEntry(*rows[1]) in entries
    assert entries == [QueryLogEntry(*row) for row in rows]
    assert entries != [QueryLogEntry(*row) for row in rows[:2]]
    assert QueryLog().entries == []
    assert not QueryLog()
    # The view is live: it is the log, not a copy of it.
    log.record(4.0, "r3", QNAMES[0], RRType.AAAA, "at1")
    assert len(entries) == 4
    with pytest.raises(TypeError):
        entries[0] = entries[1]
    with pytest.raises(TypeError):
        hash(entries)

    spans = SpanLog([SpanEvent(0, 0.0, "issue", "stub", vp="p0:r0")])
    assert len(spans) == 1 and spans[-1].vp == "p0:r0"
    assert spans == [SpanEvent(0, 0.0, "issue", "stub", vp="p0:r0")]
    assert SpanLog() == []


def test_mixed_case_qnames_keep_their_spelling():
    log = QueryLog()
    for text in ("WWW.Example.NL.", "www.example.nl.", "WWW.Example.NL."):
        log.record(0.0, "r", Name.from_text(text), RRType.A, "s")
    assert [str(entry.qname) for entry in log.entries] == [
        "WWW.Example.NL.",
        "www.example.nl.",
        "WWW.Example.NL.",
    ]
    # Equal names, two spellings: two table rows, one classification.
    assert len(log.qnames) == 2 and log.qnames[0] == log.qnames[1]
    loaded = pickle.loads(pickle.dumps(log))
    assert [str(entry.qname) for entry in loaded.entries] == [
        str(entry.qname) for entry in log.entries
    ]


def test_per_server_counts_is_a_running_total_and_a_copy():
    log = QueryLog()
    assert log.per_server_counts() == {}
    for index in range(10):
        log.record(float(index), "r", QNAMES[0], RRType.AAAA, f"at{index % 3}")
        assert sum(log.per_server_counts().values()) == index + 1
    counts = log.per_server_counts()
    assert counts == {"at0": 4, "at1": 3, "at2": 3}
    counts["at0"] = 0
    assert log.per_server_counts()["at0"] == 4
    assert pickle.loads(pickle.dumps(log)).per_server_counts() == log.per_server_counts()


# ----------------------------------------------------------------------
# Id-column widths
# ----------------------------------------------------------------------
def test_more_than_65535_distinct_sources_do_not_overflow():
    log = QueryLog()
    qname = QNAMES[0]
    total = 70_000
    for index in range(total):
        log.record(index * 0.01, f"10.{index >> 16}.{(index >> 8) & 255}.{index & 255}", qname, RRType.AAAA, "at1")
    assert log.src.ids.itemsize == 4
    assert log.qname.ids.itemsize == 1
    assert len(log.per_source_counts()) == total
    assert log.entries[255].src == "10.0.0.255"
    assert log.entries[256].src == "10.0.1.0"
    assert log.entries[65_536].src == "10.1.0.0"
    assert log.entries[-1].src == "10.1.17.111"
    assert log.unique_sources_by_round(600.0) == {0: 60_000, 1: 10_000}


def test_more_than_255_distinct_span_strings_do_not_overflow():
    log = SpanLog()
    for index in range(300):
        log.append(index, float(index), "send", f"rec{index}", detail=f"attempt={index}")
    log.append(70_000, 300.0, "send", "rec0")
    log.append(2**40, 301.0, "send", "rec0")
    assert log.site.ids.itemsize == 2 and log.kind.ids.itemsize == 1
    assert log.trace_ids.itemsize == 8
    assert [log[i].site for i in (0, 255, 256, 299)] == ["rec0", "rec255", "rec256", "rec299"]
    assert log[299].detail == "attempt=299"
    assert [span.trace_id for span in log[-2:]] == [70_000, 2**40]
    for bad in (-1, 2**64):
        with pytest.raises(OverflowError):
            log.append(bad, 302.0, "send", "rec0")
    assert len(log) == 302 and len(log.trace_ids) == 302


# ----------------------------------------------------------------------
# Pickling and the payload budget
# ----------------------------------------------------------------------
def test_stores_round_trip_through_the_disk_cache(tmp_path):
    rng = random.Random(3)
    log = QueryLog()
    spans = SpanLog()
    for index in range(500):
        log.record(
            index * 1.5,
            f"100.64.0.{rng.randrange(40)}",
            rng.choice(QNAMES),
            rng.choice([RRType.AAAA, RRType.A, RRType.NS]),
            rng.choice(["at-ns1", "at-ns2"]),
        )
        spans.append(index // 4, index * 0.1, "send", f"rec{index % 7}", detail=f"n{index % 300}")
    cache = DiskCache(tmp_path / "cache")
    cache.put("stores", (log, spans))
    loaded_log, loaded_spans = cache.get("stores")
    assert loaded_log == log and loaded_spans == spans
    assert loaded_log.count_by_round(600.0, classify) == log.count_by_round(600.0, classify)
    # Names are rebuilt, not carried: lookups by a fresh Name work in
    # whatever process loads the pickle.
    assert loaded_log.qnames == log.qnames
    assert loaded_log.qnames[0] in set(log.qnames)
    # Loaded stores keep recording.
    loaded_log.record(1e4, "new-source", Name.from_text("new.cachetest.nl."), RRType.TXT, "at-ns3")
    assert loaded_log.entries[-1].server == "at-ns3" and len(loaded_log) == 501
    assert loaded_log.per_server_counts()["at-ns3"] == 1


def _pickled(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("shape", ["water-torture", "spoofed"])
def test_high_cardinality_logs_pickle_no_larger_than_rows(shape):
    rng = random.Random(11)
    rows = []
    for index in range(20_000):
        if shape == "water-torture":
            src = f"203.0.113.{index % 8}"
            qname = ZONE.child(f"{rng.getrandbits(48):012x}")
        else:
            src = f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}"
            qname = QNAMES[index % 3]
        rows.append((index * 0.01, src, qname, RRType.A, f"at-ns{1 + index % 2}"))
    log = build_log(rows)
    assert _pickled(log) <= _pickled([QueryLogEntry(*row) for row in rows])
    assert pickle.loads(pickle.dumps(log)) == log


def test_detached_flood_result_stays_within_32_bytes_per_offered_query():
    spec = DDoSSpec("flood", 60, 10, 5, 1, 20, 10, 0.0, "both")
    result = run_ddos(
        spec,
        probe_count=16,
        seed=5,
        attack_load=AttackLoadSpec(
            mode="direct-flood", attackers=8, qps=10.0, start=600.0, duration=300.0
        ),
        defense=defense_spec_for("+rrl+filter", 20.0),
    )
    offered = len(result.testbed.offered_query_log)
    assert offered > 20_000
    assert _pickled(detach_result(result)) <= 32 * offered


def _tracked_objects_loaded(blob: bytes) -> int:
    """gc-tracked objects that one ``pickle.loads`` of ``blob`` leaves."""
    gc.collect()
    before = len(gc.get_objects())
    loaded = pickle.loads(blob)
    gc.collect()
    count = len(gc.get_objects()) - before
    del loaded
    return count


def test_detached_h_result_answer_stores_stay_columnar():
    """At most 48 B per answer row for the answers and their classes, and
    a load that builds a fixed number of objects, whatever the probe
    count: a warm rerun reads arrays, not one object per row."""
    results = {
        probes: detach_result(run_ddos(DDOS_EXPERIMENTS["H"], probe_count=probes, seed=42))
        for probes in (50, 200)
    }
    for result in results.values():
        stores = (result.answers, result.classified)
        assert _pickled(stores) <= 48 * len(result.answers)
    small, large = (
        _tracked_objects_loaded(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        for result in results.values()
    )
    assert len(results[200].answers) > 3 * len(results[50].answers)
    assert abs(large - small) < 200
