"""Server-side query logging.

The paper's Figures 10–12 are built from queries observed at the
authoritatives *before* attack drops — we log at delivery (packets that
survived the drop are what the server answers) and separately count
offered load at the transport, matching the paper's tcpdump-at-the-server
vantage combined with its note that it measures queries "before they are
dropped" for offered-load analysis.

The log is a column store (:mod:`repro.columns`): one ``array('d')`` of
times and four interned id columns — source address, query name (keyed
on the case-preserving labels, so spellings survive), query type and
receiving server. A flood of 10⁵ packets from a handful of sources for a
handful of names costs a dozen bytes per packet, pickles as five
buffers, and the per-round aggregations below count ids in C instead of
visiting rows. ``entries`` is the row view of the same data.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Callable, Collection, Dict, Iterable, List, Optional

from repro.columns import IdColumn, RowSequence, round_indexes
from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType


class QueryLogEntry:
    """One observed query: a value object built on demand from the columns."""

    __slots__ = ("time", "src", "qname", "qtype", "server")

    def __init__(
        self, time: float, src: str, qname: Name, qtype: RRType, server: str
    ) -> None:
        self.time = time
        self.src = src
        self.qname = qname
        self.qtype = qtype
        self.server = server

    def _fields(self):
        # Spelling included: two rows are equal when they would export
        # to the same JSONL line.
        return (self.time, self.src, self.qname.labels, self.qtype, self.server)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryLogEntry):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"<Query t={self.time:.3f} {self.src} -> {self.server} "
            f"{self.qname} {self.qtype}>"
        )


class QueryLog(RowSequence):
    """Accumulates query observations across one or more servers.

    Columns are public and read-only by convention: ``times`` plus the
    :class:`~repro.columns.IdColumn` s ``src``, ``qname``, ``qtype`` and
    ``server`` (``column.ids[row]`` indexes ``column.values``). The
    ``qname`` table holds label tuples; ``qnames`` holds the matching
    :class:`Name` objects. As a sequence the log yields
    :class:`QueryLogEntry` rows — ``len``, iteration, indexing, slices,
    equality — each built per access; anything that scales with the row
    count should read the columns instead.
    """

    __slots__ = (
        "times",
        "src",
        "qname",
        "qnames",
        "qtype",
        "server",
        "_server_counts",
    )

    def __init__(self) -> None:
        self.times = array("d")
        self.src = IdColumn()
        self.qname = IdColumn()
        self.qnames: List[Name] = []
        self.qtype = IdColumn()
        self.server = IdColumn()
        # Running per-server row counts, by server id: the offered-load
        # collector reads them at every telemetry sample.
        self._server_counts: List[int] = []

    def record(
        self, time: float, src: str, qname: Name, qtype: RRType, server: str
    ) -> None:
        self.times.append(time)
        column = self.src
        try:
            column.ids.append(column.index[src])
        except KeyError:
            column.add(src)
        column = self.qname
        try:
            column.ids.append(column.index[qname.labels])
        except KeyError:
            column.add(qname.labels)
            self.qnames.append(qname)
        column = self.qtype
        try:
            column.ids.append(column.index[qtype])
        except KeyError:
            column.add(qtype)
        column = self.server
        try:
            server_id = column.index[server]
            column.ids.append(server_id)
        except KeyError:
            server_id = column.add(server)
            self._server_counts.append(0)
        self._server_counts[server_id] += 1

    # ------------------------------------------------------------------
    # Row view
    # ------------------------------------------------------------------
    @property
    def entries(self) -> "QueryLog":
        """The log as a read-only sequence of :class:`QueryLogEntry` rows."""
        return self

    def __len__(self) -> int:
        return len(self.times)

    def _row(self, index: int) -> QueryLogEntry:
        return QueryLogEntry(
            self.times[index],
            self.src.values[self.src.ids[index]],
            self.qnames[self.qname.ids[index]],
            self.qtype.values[self.qtype.ids[index]],
            self.server.values[self.server.ids[index]],
        )

    def __repr__(self) -> str:
        return f"<QueryLog queries={len(self)} sources={len(self.src.values)}>"

    def __getstate__(self):
        # The qname table travels as label tuples (already in the qname
        # column); Name objects are rebuilt on load with fresh hashes.
        return (
            self.times,
            self.src,
            self.qname,
            self.qtype,
            self.server,
            self._server_counts,
        )

    def __setstate__(self, state) -> None:
        (
            self.times,
            self.src,
            self.qname,
            self.qtype,
            self.server,
            self._server_counts,
        ) = state
        self.qnames = [Name(labels) for labels in self.qname.values]

    # ------------------------------------------------------------------
    # Aggregations used by the paper's figures
    # ------------------------------------------------------------------
    def count_by_round(
        self,
        round_seconds: float,
        classify: Callable[[Name, RRType], str],
    ) -> Dict[int, Dict[str, int]]:
        """Histogram: round index -> label -> count (Figure 10).

        ``classify`` labels a query by its (qname, qtype) and is called
        once per distinct pair, not once per row.
        """
        qnames, qtypes = self.qnames, self.qtype.values
        labels: Dict[tuple, str] = {}
        result: Dict[int, Dict[str, int]] = {}
        counted = Counter(
            zip(
                round_indexes(self.times, round_seconds),
                self.qname.ids,
                self.qtype.ids,
            )
        )
        for (round_index, qname_id, qtype_id), count in counted.items():
            pair = (qname_id, qtype_id)
            label = labels.get(pair)
            if label is None:
                label = labels[pair] = classify(qnames[qname_id], qtypes[qtype_id])
            bucket = result.setdefault(round_index, {})
            bucket[label] = bucket.get(label, 0) + count
        return result

    def unique_sources_by_round(
        self, round_seconds: float
    ) -> Dict[int, int]:
        """Unique querying addresses per round (Figure 12)."""
        # dict.fromkeys, not set: rounds come out in first-seen order.
        seen = dict.fromkeys(
            zip(round_indexes(self.times, round_seconds), self.src.ids)
        )
        return dict(Counter(round_index for round_index, _src in seen))

    def per_server_counts(self) -> Dict[str, int]:
        """Queries per receiving server (offered-load collector)."""
        return dict(zip(self.server.values, self._server_counts))

    def per_source_counts(
        self,
        predicate: Optional[Callable[[QueryLogEntry], bool]] = None,
    ) -> Dict[str, int]:
        """Queries per source address (Figure 5-style counting).

        With a ``predicate`` every row is built and tested; without one
        the source column is counted directly.
        """
        srcs = self.src.values
        if predicate is None:
            return {
                srcs[src_id]: count
                for src_id, count in Counter(self.src.ids).items()
            }
        counts: Dict[str, int] = {}
        for entry in self.filtered(predicate):
            counts[entry.src] = counts.get(entry.src, 0) + 1
        return counts

    def filtered(
        self, predicate: Callable[[QueryLogEntry], bool]
    ) -> Iterable[QueryLogEntry]:
        return (entry for entry in self if predicate(entry))


def classify_query_kind(
    qname: Name,
    qtype: RRType,
    target_zone: Name,
    ns_names: Collection[Name],
) -> str:
    """Label a query the way Figure 10 does.

    Returns one of ``NS``, ``A-for-NS``, ``AAAA-for-NS``, ``AAAA-for-PID``,
    or ``other``; probe-id queries are AAAA lookups for leaf names under
    the target zone that are not nameserver names. Pass ``ns_names`` as a
    set when labelling many queries.
    """
    if qtype == RRType.NS and qname == target_zone:
        return "NS"
    if qname in ns_names:
        if qtype == RRType.A:
            return "A-for-NS"
        if qtype == RRType.AAAA:
            return "AAAA-for-NS"
        return "other"
    if qtype == RRType.AAAA and qname.is_subdomain_of(target_zone):
        return "AAAA-for-PID"
    return "other"
