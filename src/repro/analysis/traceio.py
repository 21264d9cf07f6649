"""Query-trace export/import and the §4-style trace analyzer.

Simulated server traces (and, in principle, real ones converted to the
same JSONL shape) can be written to disk, re-loaded, and analyzed with
the paper's production-zone methodology: per-source inter-arrival
medians against a TTL, parallel-query filtering, and public-resolver
classification against the Appendix C list.

JSONL row shape::

    {"t": 12.345, "src": "100.64.0.1", "qname": "1414.cachetest.nl.",
     "qtype": "AAAA", "server": "at1"}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO, Tuple

from repro.clients.paper_resolver_list import is_on_paper_list
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.servers.querylog import QueryLog
from repro.workloads.nl_trace import interarrivals


class TraceFormatError(ValueError):
    """Raised for malformed trace rows, with the offending line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def export_query_log(log: QueryLog, stream: TextIO) -> int:
    """Write a query log as JSONL; returns the number of rows written."""
    count = 0
    for entry in log.entries:
        stream.write(
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
        )
        stream.write("\n")
        count += 1
    return count


def import_query_log(stream: TextIO) -> QueryLog:
    """Read a JSONL trace back into a :class:`QueryLog`.

    Rows are type-checked before they reach the log — its tables would
    carry a wrong-typed value to every later reader — and each distinct
    qname text is parsed once.
    """
    log = QueryLog()
    names: Dict[str, Name] = {}
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(line_number, f"bad JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise TraceFormatError(line_number, "bad row: expected an object")
        row.setdefault("server", "")
        for field, kinds in (
            ("t", (int, float)),
            ("src", str),
            ("qname", str),
            ("qtype", str),
            ("server", str),
        ):
            if field not in row:
                raise TraceFormatError(line_number, f"bad row: missing {field!r}")
            if not isinstance(row[field], kinds) or isinstance(row[field], bool):
                raise TraceFormatError(
                    line_number,
                    f"bad row: field {field!r} has wrong type "
                    f"{type(row[field]).__name__}",
                )
        try:
            time = float(row["t"])
            if not math.isfinite(time):
                raise ValueError(f"time {time} is not finite")
            qname = names.get(row["qname"])
            if qname is None:
                qname = names[row["qname"]] = Name.from_text(row["qname"])
            log.record(
                time, row["src"], qname, RRType[row["qtype"]], row["server"]
            )
        except (KeyError, ValueError, OverflowError) as exc:
            raise TraceFormatError(line_number, f"bad row: {exc}") from exc
    return log


# ---------------------------------------------------------------------------
# §4-style analysis over an arbitrary trace
# ---------------------------------------------------------------------------
@dataclass
class TraceAnalysis:
    """Summary of one trace against a reference TTL (paper §4.1)."""

    ttl: float
    total_queries: int
    sources: int
    analyzed_sources: int
    close_query_fraction: float
    honoring_fraction: float
    early_fraction: float
    public_sources: int
    median_of_medians: Optional[float]

    def as_rows(self) -> List[Tuple[str, object]]:
        return [
            ("Total queries", self.total_queries),
            ("Sources", self.sources),
            ("Sources with >=5 queries", self.analyzed_sources),
            ("Close-query fraction (<10s)", f"{self.close_query_fraction:.3f}"),
            ("TTL-honoring sources", f"{self.honoring_fraction:.3f}"),
            ("Early-refresh sources", f"{self.early_fraction:.3f}"),
            ("Sources on the paper's public list", self.public_sources),
            ("Median of per-source medians", self.median_of_medians),
        ]


def analyze_trace(
    log: QueryLog,
    ttl: float,
    min_queries: int = 5,
    exclude_below: float = 10.0,
) -> TraceAnalysis:
    """Apply the paper's §4.1 methodology to a query trace.

    Per source: sort query times, drop inter-arrivals below
    ``exclude_below`` (parallel queries), take the median of the rest,
    and classify the source as TTL-honoring (median within ±10% of the
    TTL or above) or early-refreshing (median below 90% of the TTL).
    """
    times_by_id: Dict[int, List[float]] = {}
    for time, src_id in zip(log.times, log.src.ids):
        times_by_id.setdefault(src_id, []).append(time)
    by_src = {log.src.values[src_id]: times for src_id, times in times_by_id.items()}
    gaps = interarrivals(by_src, min_queries, exclude_below)
    medians = sorted(gaps.medians.values())
    honoring = sum(1 for median in medians if median >= ttl * 0.9)
    analyzed = len(medians)
    return TraceAnalysis(
        ttl=ttl,
        total_queries=len(log),
        sources=len(by_src),
        analyzed_sources=analyzed,
        close_query_fraction=gaps.close_fraction,
        honoring_fraction=honoring / analyzed if analyzed else 0.0,
        early_fraction=(analyzed - honoring) / analyzed if analyzed else 0.0,
        public_sources=sum(1 for src in by_src if is_on_paper_list(src)),
        median_of_medians=medians[len(medians) // 2] if medians else None,
    )
