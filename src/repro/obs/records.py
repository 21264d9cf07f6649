"""Typed observability records: spans, timeline points, metric snapshots.

Spans are the per-hop record of a traced run — 10⁵ of them on a 400-probe
experiment — so they are stored like the query log
(:mod:`repro.servers.querylog`): :class:`SpanLog` is a column store of
typed arrays plus interned string tables, and a :class:`SpanEvent` is a
value object built on demand when something indexes or iterates the log
(tests, the JSONL exporter). Timeline points and metric snapshots are a
few hundred per run and stay plain ``__slots__`` rows. Every row type
has a stable one-line ``repr`` and an ``as_dict`` feeding the JSONL
exporters in :mod:`repro.obs.spanio`.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable

from repro.columns import IdColumn, RowSequence, widened

# ---------------------------------------------------------------------------
# Span taxonomy
# ---------------------------------------------------------------------------
# Lifecycle start (exactly one per trace, always first):
SPAN_ISSUE = "issue"
# Intermediate hops:
SPAN_CACHE_HIT = "cache_hit"
SPAN_CACHE_MISS = "cache_miss"
SPAN_NEGCACHE_HIT = "negcache_hit"
SPAN_SERVFAIL_CACHED = "servfail_cached"
SPAN_COALESCED = "coalesced"
SPAN_CNAME = "cname"
SPAN_FORWARD = "forward"
SPAN_POOL_DISPATCH = "pool_dispatch"
SPAN_SEND = "send"
SPAN_REFERRAL = "referral"
SPAN_RETRY = "retry"
SPAN_TIMEOUT = "timeout"
SPAN_DROP_ATTACK = "drop_attack"
SPAN_DROP_BASELINE = "drop_baseline"
SPAN_AUTH_QUERY = "auth_query"
SPAN_STALE = "stale"
SPAN_GIVE_UP = "give_up"
SPAN_CANCELLED = "cancelled"
# Defense-layer decisions at a defended authoritative (repro.defense).
# All intermediate: a query that dies at a defense layer looks, to the
# client side, like a network drop — the chain still terminates at the
# stub (timeout/retry path), so completeness validation is unchanged.
SPAN_FILTERED = "filtered"
SPAN_RATE_LIMITED = "rate_limited"
SPAN_SLIP = "slip"
SPAN_QUEUED = "queued"
SPAN_DROP_CAPACITY = "drop_capacity"
# Terminal outcomes (exactly one per trace, at the stub):
SPAN_ANSWER = "answer"
SPAN_SERVFAIL = "servfail"
SPAN_NXDOMAIN = "nxdomain"
SPAN_NODATA = "nodata"
SPAN_NO_ANSWER = "no_answer"

#: Span kinds that terminate a stub query's lifecycle. Every complete
#: trace contains exactly one of these, emitted by the stub resolver.
TERMINAL_KINDS = frozenset(
    {SPAN_ANSWER, SPAN_SERVFAIL, SPAN_NXDOMAIN, SPAN_NODATA, SPAN_NO_ANSWER}
)

#: Every span kind the tracer may emit (the JSONL schema's closed set).
SPAN_KINDS = frozenset(
    {
        SPAN_ISSUE,
        SPAN_CACHE_HIT,
        SPAN_CACHE_MISS,
        SPAN_NEGCACHE_HIT,
        SPAN_SERVFAIL_CACHED,
        SPAN_COALESCED,
        SPAN_CNAME,
        SPAN_FORWARD,
        SPAN_POOL_DISPATCH,
        SPAN_SEND,
        SPAN_REFERRAL,
        SPAN_RETRY,
        SPAN_TIMEOUT,
        SPAN_DROP_ATTACK,
        SPAN_DROP_BASELINE,
        SPAN_AUTH_QUERY,
        SPAN_STALE,
        SPAN_GIVE_UP,
        SPAN_CANCELLED,
        SPAN_FILTERED,
        SPAN_RATE_LIMITED,
        SPAN_SLIP,
        SPAN_QUEUED,
        SPAN_DROP_CAPACITY,
    }
    | TERMINAL_KINDS
)


class SpanEvent:
    """One step in a traced query's lifecycle.

    ``trace_id`` ties the span to the stub query that started the chain,
    ``site`` names the component that emitted it (e.g. ``rec0``, ``net``,
    ``a.ns.example.com``), ``vp`` is set on the ``issue`` span to the
    vantage point (``p<probe>:<resolver>``), and ``detail`` carries
    kind-specific context such as the upstream server or attempt number.
    """

    __slots__ = ("trace_id", "time", "kind", "site", "vp", "detail")

    def __init__(
        self,
        trace_id: int,
        time: float,
        kind: str,
        site: str,
        vp: str = "",
        detail: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.time = time
        self.kind = kind
        self.site = site
        self.vp = vp
        self.detail = detail

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL exporter."""
        row: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "time": round(self.time, 6),
            "kind": self.kind,
            "site": self.site,
        }
        if self.vp:
            row["vp"] = self.vp
        if self.detail:
            row["detail"] = self.detail
        return row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanEvent):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.time == other.time
            and self.kind == other.kind
            and self.site == other.site
            and self.vp == other.vp
            and self.detail == other.detail
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.time, self.kind, self.site))

    def __repr__(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        vp = f" vp={self.vp}" if self.vp else ""
        return (
            f"<Span t={self.time:.6f} #{self.trace_id} {self.kind} "
            f"@{self.site}{vp}{extra}>"
        )


class SpanLog(RowSequence):
    """Every span of a run, as columns; a sequence of :class:`SpanEvent`.

    ``trace_ids`` (unsigned ints, widened as ids grow) and ``times`` are
    plain arrays; ``kind``, ``site``, ``vp`` and ``detail`` are
    :class:`~repro.columns.IdColumn` s over the distinct strings seen.
    This is what :attr:`repro.obs.trace.Tracer.events`, ``testbed.spans``
    and ``result.spans`` are: it compares equal to a list of the same
    spans and pickles as six buffers and four string tables.
    """

    __slots__ = ("trace_ids", "times", "kind", "site", "vp", "detail")

    def __init__(self, spans: Iterable[SpanEvent] = ()) -> None:
        self.trace_ids = array("B")
        self.times = array("d")
        self.kind = IdColumn()
        self.site = IdColumn()
        self.vp = IdColumn()
        self.detail = IdColumn()
        for span in spans:
            self.append(
                span.trace_id, span.time, span.kind, span.site, span.vp, span.detail
            )

    def append(
        self,
        trace_id: int,
        time: float,
        kind: str,
        site: str,
        vp: str = "",
        detail: str = "",
    ) -> None:
        try:
            self.trace_ids.append(trace_id)
        except OverflowError:
            self.trace_ids = widened(self.trace_ids, trace_id)
            self.trace_ids.append(trace_id)
        self.times.append(time)
        column = self.kind
        try:
            column.ids.append(column.index[kind])
        except KeyError:
            column.add(kind)
        column = self.site
        try:
            column.ids.append(column.index[site])
        except KeyError:
            column.add(site)
        column = self.vp
        try:
            column.ids.append(column.index[vp])
        except KeyError:
            column.add(vp)
        column = self.detail
        try:
            column.ids.append(column.index[detail])
        except KeyError:
            column.add(detail)

    def __len__(self) -> int:
        return len(self.times)

    def _row(self, index: int) -> SpanEvent:
        return SpanEvent(
            self.trace_ids[index],
            self.times[index],
            self.kind.values[self.kind.ids[index]],
            self.site.values[self.site.ids[index]],
            self.vp.values[self.vp.ids[index]],
            self.detail.values[self.detail.ids[index]],
        )

    def __repr__(self) -> str:
        return f"<SpanLog spans={len(self)}>"


class TimelinePoint:
    """One flight-recorder sample on the sim-time cadence.

    ``index`` counts samples from 0 in recording order; ``values`` maps
    flat series names (``offered_qps``, ``cache_hit_ratio``,
    ``sketch.entropy_bits``) to numbers. Points are plain data — like
    :class:`MetricsSnapshot` they pickle through ``TestbedSnapshot`` and
    the disk cache, so parallel and cached runs carry full timelines.
    """

    __slots__ = ("time", "index", "values")

    def __init__(self, time: float, index: int, values: Dict[str, float]) -> None:
        self.time = time
        self.index = index
        self.values = values

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": round(self.time, 6),
            "index": self.index,
            "values": self.values,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimelinePoint):
            return NotImplemented
        return (
            self.time == other.time
            and self.index == other.index
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.time, self.index))

    def __repr__(self) -> str:
        return (
            f"<TimelinePoint t={self.time:.6f} #{self.index} "
            f"series={len(self.values)}>"
        )


class MetricsSnapshot:
    """A flattened point-in-time reading of every registered metric.

    ``values`` maps flat metric names (``stub.outcome.ok.3``) to numbers.
    Snapshots are plain data so they pickle through ``TestbedSnapshot``
    and the disk cache without dragging live components along.
    """

    __slots__ = ("time", "round_index", "values")

    def __init__(self, time: float, round_index: int, values: Dict[str, float]) -> None:
        self.time = time
        self.round_index = round_index
        self.values = values

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": round(self.time, 6),
            "round_index": self.round_index,
            "values": self.values,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return (
            self.time == other.time
            and self.round_index == other.round_index
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.time, self.round_index))

    def __repr__(self) -> str:
        return (
            f"<MetricsSnapshot t={self.time:.6f} round={self.round_index} "
            f"metrics={len(self.values)}>"
        )
