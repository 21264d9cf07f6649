"""Tests for trace export/import and the §4-style trace analyzer."""

import io

import pytest

from repro.analysis.traceio import (
    TraceFormatError,
    analyze_trace,
    export_query_log,
    import_query_log,
)
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.servers.querylog import QueryLog


def make_log() -> QueryLog:
    log = QueryLog()
    log.record(1.5, "100.64.0.1", Name.from_text("1.cachetest.nl."), RRType.AAAA, "at1")
    log.record(2.0, "8.8.8.8", Name.from_text("cachetest.nl."), RRType.NS, "at2")
    log.record(700.0, "100.64.0.1", Name.from_text("1.cachetest.nl."), RRType.AAAA, "at1")
    return log


def test_export_import_roundtrip():
    log = make_log()
    buffer = io.StringIO()
    assert export_query_log(log, buffer) == 3
    buffer.seek(0)
    loaded = import_query_log(buffer)
    assert len(loaded) == 3
    original = [(e.time, e.src, str(e.qname), e.qtype, e.server) for e in log.entries]
    restored = [(e.time, e.src, str(e.qname), e.qtype, e.server) for e in loaded.entries]
    assert original == restored


def test_import_skips_blank_lines():
    buffer = io.StringIO(
        '\n{"t":1,"src":"a","qname":"x.nl.","qtype":"A","server":"s"}\n\n'
    )
    assert len(import_query_log(buffer)) == 1


def test_import_rejects_bad_json():
    with pytest.raises(TraceFormatError) as error:
        import_query_log(io.StringIO("{not json}\n"))
    assert error.value.line_number == 1


def test_import_rejects_missing_fields():
    with pytest.raises(TraceFormatError):
        import_query_log(io.StringIO('{"t":1,"src":"a"}\n'))


def test_import_rejects_unknown_qtype():
    with pytest.raises(TraceFormatError):
        import_query_log(
            io.StringIO('{"t":1,"src":"a","qname":"x.","qtype":"BOGUS","server":"s"}\n')
        )


@pytest.mark.parametrize(
    "row",
    [
        '{"t":null,"src":"a","qname":"x.nl.","qtype":"A","server":"s"}',
        '{"t":"1.5","src":"a","qname":"x.nl.","qtype":"A","server":"s"}',
        '{"t":true,"src":"a","qname":"x.nl.","qtype":"A","server":"s"}',
        '{"t":NaN,"src":"a","qname":"x.nl.","qtype":"A","server":"s"}',
        '{"t":1e999,"src":"a","qname":"x.nl.","qtype":"A","server":"s"}',
        '{"t":1,"src":5,"qname":"x.nl.","qtype":"A","server":"s"}',
        '{"t":1,"src":"a","qname":5,"qtype":"A","server":"s"}',
        '{"t":1,"src":"a","qname":["x","nl"],"qtype":"A","server":"s"}',
        '{"t":1,"src":"a","qname":"x..nl.","qtype":"A","server":"s"}',
        '{"t":1,"src":"a","qname":"x.nl.","qtype":28,"server":"s"}',
        '{"t":1,"src":"a","qname":"x.nl.","qtype":"A","server":{"name":"s"}}',
        '[1,"a","x.nl.","A","s"]',
        '"just a string"',
        "17",
    ],
)
def test_import_rejects_hostile_rows_with_the_line_number(row):
    good = '{"t":1,"src":"a","qname":"x.nl.","qtype":"A","server":"s"}'
    with pytest.raises(TraceFormatError) as error:
        import_query_log(io.StringIO(f"{good}\n\n{row}\n"))
    assert error.value.line_number == 3


def test_import_parses_each_distinct_qname_once():
    row = '{"t":%d,"src":"a","qname":"1.CacheTest.nl.","qtype":"AAAA"}\n'
    log = import_query_log(io.StringIO("".join(row % index for index in range(50))))
    assert len(log) == 50 and len(log.qnames) == 1
    assert {id(entry.qname) for entry in log.entries} == {id(log.qnames[0])}
    assert str(log.entries[0].qname) == "1.CacheTest.nl."
    assert log.entries[0].server == ""


def make_behavior_log() -> QueryLog:
    """Two honoring sources, one early, one parallel burst source."""
    log = QueryLog()
    qname = Name.from_text("ns1.dns.nl.")
    for src, period in (("honor-1", 3650.0), ("honor-2", 3700.0), ("early", 1800.0)):
        for step in range(6):
            log.record(step * period, src, qname, RRType.A, "s")
    # Parallel-query source: bursts of 3 every TTL.
    for step in range(6):
        for offset in (0.0, 0.5, 1.0):
            log.record(step * 3650.0 + offset, "bursty", qname, RRType.A, "s")
    # Public source (on the Appendix C list) with too few queries.
    log.record(1.0, "8.8.8.8", qname, RRType.A, "s")
    return log


def test_analyze_trace_classifies_behavior():
    analysis = analyze_trace(make_behavior_log(), ttl=3600.0)
    assert analysis.analyzed_sources == 4
    assert analysis.honoring_fraction == pytest.approx(3 / 4)
    assert analysis.early_fraction == pytest.approx(1 / 4)
    assert analysis.public_sources == 1
    assert analysis.close_query_fraction > 0.2  # the burst deltas
    assert analysis.median_of_medians is not None


def test_analyze_trace_empty():
    analysis = analyze_trace(QueryLog(), ttl=3600.0)
    assert analysis.total_queries == 0
    assert analysis.close_query_fraction == 0.0
    assert analysis.median_of_medians is None


def test_analyze_simulated_experiment_trace(world):
    """End to end: run a resolver against the world, export its server
    trace, re-import, analyze."""
    from repro.resolvers.recursive import RecursiveResolver

    resolver = RecursiveResolver(
        world.sim, world.network, "100.64.0.1", world.root_hints
    )
    qname = Name.from_text("1414.cachetest.nl.")
    # Query every TTL (3600): TTL-honoring pattern.
    for step in range(5):
        world.sim.at(
            step * 3650.0, resolver.resolve, qname, RRType.AAAA, lambda o: None
        )
    world.sim.run(until=5 * 3650.0 + 30.0)
    buffer = io.StringIO()
    export_query_log(world.query_log, buffer)
    buffer.seek(0)
    analysis = analyze_trace(import_query_log(buffer), ttl=3600.0)
    assert analysis.total_queries >= 5
    assert analysis.honoring_fraction == 1.0


def test_rows_shape():
    rows = analyze_trace(make_behavior_log(), ttl=3600.0).as_rows()
    labels = [label for label, _ in rows]
    assert "Close-query fraction (<10s)" in labels
    assert "Sources on the paper's public list" in labels
