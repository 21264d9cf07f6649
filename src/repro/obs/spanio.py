"""JSONL import/export, schema validation, and summaries for span traces.

The span JSONL schema (one object per line)::

    {"trace_id": 17, "time": 1203.5, "kind": "issue", "site": "stub",
     "vp": "p3:rec0", "detail": "", "run": "ddos:H"}

``vp``/``detail``/``run`` are optional. ``kind`` must come from
:data:`repro.obs.records.SPAN_KINDS`. Completeness (the acceptance
criterion for traced runs): every trace id has exactly one ``issue`` span,
it is the earliest span of the trace, and exactly one terminal outcome
span from :data:`repro.obs.records.TERMINAL_KINDS` follows it.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO

from repro.obs.records import (
    SPAN_AUTH_QUERY,
    SPAN_FORWARD,
    SPAN_ISSUE,
    SPAN_KINDS,
    SPAN_SEND,
    TERMINAL_KINDS,
    MetricsSnapshot,
    SpanEvent,
    SpanLog,
    TimelinePoint,
)
from repro.obs.timeline import render_table


class SpanFormatError(ValueError):
    """Raised when a JSONL span trace fails schema or completeness checks."""


def export_spans(
    spans: Iterable[SpanEvent], stream: TextIO, run: Optional[str] = None
) -> int:
    """Write spans as JSONL; returns the number of rows written."""
    count = 0
    for span in spans:
        row = span.as_dict()
        if run is not None:
            row["run"] = run
        stream.write(json.dumps(row, separators=(",", ":")) + "\n")
        count += 1
    return count


def import_spans(stream: TextIO) -> SpanLog:
    """Read JSONL spans back, validating each row against the schema."""
    spans = SpanLog()
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpanFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        _append_row(spans, row, lineno)
    return spans


def _append_row(spans: SpanLog, row: Any, lineno: int) -> None:
    if not isinstance(row, dict):
        raise SpanFormatError(f"line {lineno}: expected an object")
    row.setdefault("vp", "")
    row.setdefault("detail", "")
    for field, kinds in (
        ("trace_id", int),
        ("time", (int, float)),
        ("kind", str),
        ("site", str),
        ("vp", str),
        ("detail", str),
    ):
        if field not in row:
            raise SpanFormatError(f"line {lineno}: missing field {field!r}")
        if not isinstance(row[field], kinds) or isinstance(row[field], bool):
            raise SpanFormatError(
                f"line {lineno}: field {field!r} has wrong type "
                f"{type(row[field]).__name__}"
            )
    if row["kind"] not in SPAN_KINDS:
        raise SpanFormatError(f"line {lineno}: unknown span kind {row['kind']!r}")
    if isinstance(row["time"], float) and not math.isfinite(row["time"]):
        raise SpanFormatError(f"line {lineno}: time {row['time']} is not finite")
    try:
        spans.append(
            row["trace_id"],
            float(row["time"]),
            row["kind"],
            row["site"],
            row["vp"],
            row["detail"],
        )
    except OverflowError as exc:
        # A trace id no unsigned 64-bit column holds, or an integer
        # time beyond the float range.
        raise SpanFormatError(f"line {lineno}: {exc}") from exc


def _chain_rows(log: SpanLog) -> Dict[int, List[int]]:
    """Row indexes of every trace, time-ordered, after completeness checks."""
    chains: Dict[int, List[int]] = {}
    for row, trace_id in enumerate(log.trace_ids):
        chains.setdefault(trace_id, []).append(row)
    kinds, kind_ids, times = log.kind.values, log.kind.ids, log.times
    issue_id = log.kind.index.get(SPAN_ISSUE)
    terminal_ids = {log.kind.index[kind] for kind in TERMINAL_KINDS & set(kinds)}
    for trace_id, rows in chains.items():
        rows.sort(key=times.__getitem__)
        chain = [kind_ids[row] for row in rows]
        issues = chain.count(issue_id)
        terminals = [kind_id for kind_id in chain if kind_id in terminal_ids]
        if not issues:
            raise SpanFormatError(f"trace {trace_id}: orphan spans (no issue span)")
        if issues > 1:
            raise SpanFormatError(f"trace {trace_id}: {issues} issue spans")
        if not terminals:
            raise SpanFormatError(f"trace {trace_id}: no terminal outcome span")
        if len(terminals) > 1:
            raise SpanFormatError(
                f"trace {trace_id}: {len(terminals)} terminal spans "
                f"({[kinds[kind_id] for kind_id in terminals]})"
            )
        if chain[0] != issue_id:
            raise SpanFormatError(
                f"trace {trace_id}: span {kinds[chain[0]]!r} precedes the issue span"
            )
    return chains


def _as_log(spans: Iterable[SpanEvent]) -> SpanLog:
    return spans if isinstance(spans, SpanLog) else SpanLog(spans)


def validate_span_chains(spans: Iterable[SpanEvent]) -> Dict[int, List[SpanEvent]]:
    """Check completeness of every trace; returns spans grouped by trace id.

    Raises :class:`SpanFormatError` for orphan spans (no ``issue``),
    missing terminals, duplicated issue/terminal spans, or spans timed
    before their trace's issue. The checks run on the columns of a
    :class:`SpanLog` (any other iterable is loaded into one); only the
    returned chains are built as :class:`SpanEvent` rows.
    """
    log = _as_log(spans)
    return {
        trace_id: [log[row] for row in rows]
        for trace_id, rows in _chain_rows(log).items()
    }


def summarize_spans(spans: Iterable[SpanEvent], top_n: int = 10) -> str:
    """Render the ``trace-summary`` report: slowest lifecycles + outcome table.

    The latency of a lifecycle is terminal time minus issue time. Traces
    whose terminal is ``no_answer`` may have trailing spans (recursives
    keep retrying after the stub gives up); those retries still count
    toward the trace's span total but not its latency.
    """
    log = _as_log(spans)
    chains = _chain_rows(log)
    times, kinds, kind_ids = log.times, log.kind.values, log.kind.ids
    vps, vp_ids = log.vp.values, log.vp.ids
    rows = []
    outcome_stats: Dict[str, List[int]] = {}
    for trace_id, chain in sorted(chains.items()):
        issue = chain[0]
        terminal = next(
            row for row in chain if kinds[kind_ids[row]] in TERMINAL_KINDS
        )
        outcome = kinds[kind_ids[terminal]]
        latency = times[terminal] - times[issue]
        rows.append((latency, trace_id, vps[vp_ids[issue]], outcome, len(chain)))
        outcome_stats.setdefault(outcome, []).append(len(chain))

    lines = [f"traces: {len(rows)}   spans: {len(log)}", ""]
    lines.append(f"slowest {min(top_n, len(rows))} query lifecycles:")
    lines.append(
        f"{'latency':>10} {'trace':>7} {'vp':<14} {'outcome':<10} {'spans':>5}"
    )
    for latency, trace_id, vp, outcome, n_spans in sorted(
        rows, key=lambda row: (-row[0], row[1])
    )[:top_n]:
        lines.append(
            f"{latency:>9.3f}s {trace_id:>7} {vp:<14} {outcome:<10} {n_spans:>5}"
        )
    lines.append("")
    lines.append("spans per lifecycle by outcome:")
    lines.append(
        f"{'outcome':<10} {'traces':>7} {'min':>5} {'mean':>7} {'max':>5}"
    )
    for outcome in sorted(outcome_stats):
        counts = outcome_stats[outcome]
        lines.append(
            f"{outcome:<10} {len(counts):>7} {min(counts):>5} "
            f"{sum(counts) / len(counts):>7.1f} {max(counts):>5}"
        )
    lines.append("")
    lines.append("per-hop latency (first occurrence of each hop per trace):")
    lines.append(_per_hop_breakdown(log, chains))
    return "\n".join(lines)


#: Hop labels in pipeline order, for stable table ordering.
_HOP_ORDER = (
    "stub->forwarder",
    "stub->recursive",
    "forwarder->recursive",
    "recursive->auth",
    "auth->answer",
    "stub->answer",
)


def _per_hop_breakdown(log: SpanLog, chains: Dict[int, List[int]]) -> str:
    """Latency per resolution hop, from first-occurrence span times.

    A chain contributes a hop only when both of its endpoints exist
    *before the terminal*: forwarder-fronted VPs contribute
    ``stub->forwarder``, direct-recursive VPs ``stub->recursive``, and
    chains answered from cache (no ``send``) only the end-to-end row.
    Spans after the terminal (recursives retrying past the stub's
    give-up) are excluded, matching the latency convention above.
    """
    hops: Dict[str, List[float]] = {}

    def record(hop: str, delta: float) -> None:
        hops.setdefault(hop, []).append(delta)

    times, kinds, kind_ids = log.times, log.kind.values, log.kind.ids
    for chain in chains.values():
        issue_time = times[chain[0]]
        first: Dict[str, float] = {}
        terminal_time = None
        for row in chain:
            kind = kinds[kind_ids[row]]
            if kind in TERMINAL_KINDS:
                terminal_time = times[row]
                break
            if kind in (SPAN_FORWARD, SPAN_SEND, SPAN_AUTH_QUERY):
                first.setdefault(kind, times[row])
        if terminal_time is None:
            continue
        forward = first.get(SPAN_FORWARD)
        send = first.get(SPAN_SEND)
        auth = first.get(SPAN_AUTH_QUERY)
        if forward is not None:
            record("stub->forwarder", forward - issue_time)
            if send is not None:
                record("forwarder->recursive", send - forward)
        elif send is not None:
            record("stub->recursive", send - issue_time)
        if send is not None and auth is not None:
            record("recursive->auth", auth - send)
        if auth is not None:
            record("auth->answer", terminal_time - auth)
        record("stub->answer", terminal_time - issue_time)

    rows = []
    for hop in _HOP_ORDER:
        deltas = hops.get(hop)
        if not deltas:
            continue
        rows.append(
            [
                hop,
                str(len(deltas)),
                f"{min(deltas) * 1e3:.1f}",
                f"{sum(deltas) / len(deltas) * 1e3:.1f}",
                f"{max(deltas) * 1e3:.1f}",
            ]
        )
    if not rows:
        return "(no complete hops)"
    return render_table(
        ["hop", "traces", "min ms", "mean ms", "max ms"], rows
    )


def export_metrics(
    snapshots: Iterable[MetricsSnapshot], stream: TextIO, run: Optional[str] = None
) -> int:
    """Write metric snapshots as JSONL; returns the number of rows."""
    count = 0
    for snap in snapshots:
        row = snap.as_dict()
        if run is not None:
            row["run"] = run
        stream.write(json.dumps(row, separators=(",", ":"), sort_keys=True) + "\n")
        count += 1
    return count


def import_metrics(stream: TextIO) -> List[MetricsSnapshot]:
    """Read metric snapshots back from JSONL."""
    snapshots: List[MetricsSnapshot] = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpanFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if "time" not in row or "round_index" not in row or "values" not in row:
            raise SpanFormatError(f"line {lineno}: not a metrics snapshot row")
        snapshots.append(
            MetricsSnapshot(float(row["time"]), int(row["round_index"]), row["values"])
        )
    return snapshots


# ---------------------------------------------------------------------------
# Timeline JSONL (flight-recorder points)
# ---------------------------------------------------------------------------
# Schema, one object per line::
#
#     {"time": 3600.0, "index": 59, "values": {"offered_qps": 12.4, ...},
#      "run": "ddos-H"}
#
# ``run`` is optional and distinguishes interleaved timelines in one
# file (the report export). Within a run, indexes are contiguous from 0
# and times strictly increase; every value is a number.


def export_timeline(
    points: Iterable[TimelinePoint], stream: TextIO, run: Optional[str] = None
) -> int:
    """Write timeline points as JSONL; returns the number of rows."""
    count = 0
    for point in points:
        row = point.as_dict()
        if run is not None:
            row["run"] = run
        stream.write(json.dumps(row, separators=(",", ":"), sort_keys=True) + "\n")
        count += 1
    return count


def import_timeline(stream: TextIO) -> Dict[str, List[TimelinePoint]]:
    """Read timeline JSONL back, grouped by ``run`` label (\"\" if absent).

    Each row is schema-checked; call :func:`validate_timeline` on each
    group for the series-level invariants.
    """
    by_run: Dict[str, List[TimelinePoint]] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpanFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise SpanFormatError(f"line {lineno}: expected an object")
        for field, kinds in (("time", (int, float)), ("index", int)):
            if field not in row:
                raise SpanFormatError(f"line {lineno}: missing field {field!r}")
            if not isinstance(row[field], kinds) or isinstance(row[field], bool):
                raise SpanFormatError(
                    f"line {lineno}: field {field!r} has wrong type "
                    f"{type(row[field]).__name__}"
                )
        values = row.get("values")
        if not isinstance(values, dict):
            raise SpanFormatError(f"line {lineno}: missing or non-object 'values'")
        for key, number in values.items():
            if not isinstance(number, (int, float)) or isinstance(number, bool):
                raise SpanFormatError(
                    f"line {lineno}: series {key!r} is not a number"
                )
        by_run.setdefault(str(row.get("run", "")), []).append(
            TimelinePoint(float(row["time"]), row["index"], values)
        )
    return by_run


def validate_timeline(points: Sequence[TimelinePoint]) -> None:
    """Check one run's series invariants (contiguous indexes, monotone time).

    Raises :class:`SpanFormatError` on the first violation. Cumulative
    ``*_total`` series must also be monotone non-decreasing — they are
    integrals of the run, and a decrease means the exporter mixed runs
    or re-sampled out of order.
    """
    previous: Optional[TimelinePoint] = None
    for position, point in enumerate(points):
        if point.index != position:
            raise SpanFormatError(
                f"timeline point {position}: index {point.index} is not "
                f"contiguous"
            )
        if previous is not None:
            if point.time <= previous.time:
                raise SpanFormatError(
                    f"timeline point {position}: time {point.time} does not "
                    f"increase past {previous.time}"
                )
            for key, number in point.values.items():
                if key.endswith("_total") and key in previous.values:
                    if number < previous.values[key]:
                        raise SpanFormatError(
                            f"timeline point {position}: cumulative series "
                            f"{key!r} decreased ({previous.values[key]} -> "
                            f"{number})"
                        )
        previous = point
