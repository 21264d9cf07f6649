"""Query-lifecycle tracing: tracer units, span IO, and completeness."""

import io

import pytest

from repro.core.experiments.ddos import DDOS_EXPERIMENTS, run_ddos
from repro.obs import (
    ObsSpec,
    SpanEvent,
    SpanFormatError,
    export_spans,
    import_spans,
    summarize_spans,
    validate_span_chains,
)
from repro.obs.records import SPAN_ISSUE, TERMINAL_KINDS
from repro.obs.trace import Tracer
from repro.simcore.simulator import Simulator


# ----------------------------------------------------------------------
# Tracer units
# ----------------------------------------------------------------------
def test_tracer_allocates_distinct_trace_ids():
    tracer = Tracer(Simulator())
    ids = [tracer.new_trace() for _ in range(5)]
    assert len(set(ids)) == 5


def test_tracer_stamps_sim_time():
    sim = Simulator()
    tracer = Tracer(sim)
    trace_id = tracer.new_trace()
    sim.at(12.5, tracer.emit, trace_id, "issue", "stub", "p0:r0")
    sim.run()
    [span] = tracer.events
    assert span.time == 12.5
    assert span.kind == "issue"
    assert span.vp == "p0:r0"


def test_span_event_repr_and_dict():
    span = SpanEvent(7, 1.25, "answer", "stub", vp="p1:r1", detail="x")
    assert "7" in repr(span) and "answer" in repr(span)
    row = span.as_dict()
    assert row["trace_id"] == 7 and row["kind"] == "answer"
    # Empty optional fields are omitted from the JSONL row.
    assert "vp" not in SpanEvent(7, 0.0, "answer", "stub").as_dict()


# ----------------------------------------------------------------------
# Event.cancel() / trace interaction (regression: cancel-after-trace)
# ----------------------------------------------------------------------
def test_cancel_before_fire_emits_cancelled_span():
    sim = Simulator()
    tracer = Tracer(sim)
    trace_id = tracer.new_trace()
    timer = sim.call_later(10.0, lambda: None)
    timer.span = (tracer, trace_id, "resolver")
    sim.at(4.0, timer.cancel)
    sim.run()
    [span] = tracer.events
    assert span.kind == "cancelled"
    assert span.site == "resolver"
    assert span.time == 4.0


def test_cancel_after_fire_emits_nothing():
    sim = Simulator()
    tracer = Tracer(sim)
    timer = sim.call_later(1.0, lambda: None)
    timer.span = (tracer, tracer.new_trace(), "resolver")
    sim.run()
    timer.cancel()  # already fired: must stay silent
    assert tracer.events == []


def test_double_cancel_emits_one_span():
    sim = Simulator()
    tracer = Tracer(sim)
    timer = sim.call_later(1.0, lambda: None)
    timer.span = (tracer, tracer.new_trace(), "resolver")
    timer.cancel()
    timer.cancel()
    assert len(tracer.events) == 1


# ----------------------------------------------------------------------
# JSONL round-trip and schema validation
# ----------------------------------------------------------------------
def test_span_jsonl_round_trip():
    spans = [
        SpanEvent(0, 0.0, "issue", "stub", vp="p0:r0", detail="q0 AAAA"),
        SpanEvent(0, 0.2, "send", "rec0", detail="ns1"),
        SpanEvent(0, 0.4, "answer", "stub", vp="p0:r0"),
    ]
    stream = io.StringIO()
    assert export_spans(spans, stream, run="ddos-H") == 3
    stream.seek(0)
    assert import_spans(stream) == spans


def test_import_rejects_bad_rows():
    for line in (
        '{"time": 1.0, "kind": "issue", "site": "s"}',  # missing trace_id
        '{"trace_id": true, "time": 1.0, "kind": "issue", "site": "s"}',
        '{"trace_id": 1, "time": 1.0, "kind": "warp", "site": "s"}',
        "not json",
        # Optional fields are interned as they are: they must be strings.
        '{"trace_id": 1, "time": 1.0, "kind": "issue", "site": "s", "vp": 7}',
        '{"trace_id": 1, "time": 1.0, "kind": "issue", "site": "s", "detail": ["x"]}',
        '{"trace_id": 1, "time": 1.0, "kind": "issue", "site": "s", "vp": null}',
        # Values no column can hold.
        '{"trace_id": -1, "time": 1.0, "kind": "issue", "site": "s"}',
        '{"trace_id": 18446744073709551616, "time": 1.0, "kind": "issue", "site": "s"}',
        '{"trace_id": 1, "time": NaN, "kind": "issue", "site": "s"}',
        '{"trace_id": 1, "time": 1e999, "kind": "issue", "site": "s"}',
        '{"trace_id": 1, "time": %s, "kind": "issue", "site": "s"}' % ("9" * 400),
        '[1, 1.0, "issue", "s"]',
    ):
        with pytest.raises(SpanFormatError, match="line 1"):
            import_spans(io.StringIO(line + "\n"))


def test_validate_rejects_incomplete_chains():
    issue = SpanEvent(1, 0.0, "issue", "stub")
    answer = SpanEvent(1, 1.0, "answer", "stub")
    with pytest.raises(SpanFormatError, match="orphan"):
        validate_span_chains([SpanEvent(2, 1.0, "send", "rec0")])
    with pytest.raises(SpanFormatError, match="no terminal"):
        validate_span_chains([issue])
    with pytest.raises(SpanFormatError, match="terminal"):
        validate_span_chains([issue, answer, SpanEvent(1, 2.0, "servfail", "stub")])
    assert validate_span_chains([issue, answer]) == {1: [issue, answer]}


# ----------------------------------------------------------------------
# Traced experiment: every stub query has a complete span chain
# ----------------------------------------------------------------------
def test_traced_ddos_run_has_complete_chains():
    result = run_ddos(
        DDOS_EXPERIMENTS["H"],
        probe_count=24,
        seed=5,
        obs=ObsSpec(trace=True),
    )
    spans = result.testbed.spans
    assert spans, "traced run emitted no spans"
    chains = validate_span_chains(spans)
    # One lifecycle per stub query issued.
    assert len(chains) == len(result.answers)
    for chain in chains.values():
        assert chain[0].kind == SPAN_ISSUE
        assert sum(1 for span in chain if span.kind in TERMINAL_KINDS) == 1
    # The summary renders for real traces too.
    summary = summarize_spans(spans, top_n=5)
    assert "slowest" in summary and "outcome" in summary


def test_untraced_run_emits_no_spans():
    result = run_ddos(DDOS_EXPERIMENTS["H"], probe_count=12, seed=5)
    assert result.testbed.spans == []
    assert result.testbed.metric_snapshots == []
    assert result.testbed.profile_summary() is None
