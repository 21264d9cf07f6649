"""The client stub resolver with the RIPE Atlas measurement discipline.

Atlas probes query each of their local recursives independently and
report "no answer" after a 5-second timeout (paper §3.2). Each
(probe, recursive) pair is one vantage point; the stub records one row
per VP per probing round, which is the raw material for every
client-side table and figure.

The rows live in an :class:`AnswerLog`, a column store like the query
log (:mod:`repro.columns`): typed arrays for the numbers, an interned
table for the resolver addresses, and small codes for the status and
the optional fields. Every stub of a population writes into one shared
log — :meth:`StubResolver.query_one` appends a row with the query's
fields and keeps the row index, the response or the timeout settles
that row's columns in place — so a run builds no per-query object, and
a result pickles as a dozen buffers. :class:`StubAnswer` is the
read-only row a log builds on access.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.columns import IdColumn, RowSequence, widened
from repro.dnscore.message import make_query
from repro.dnscore.name import Name
from repro.dnscore.records import AAAA
from repro.dnscore.rrtypes import Rcode, RRType
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet
from repro.simcore.simulator import Simulator

ATLAS_TIMEOUT = 5.0


class StubAnswer:
    """One VP observation: a query and what (if anything) came back.

    A read-only value object that :class:`AnswerLog` builds per access;
    two rows are equal when every field is.
    """

    __slots__ = (
        "probe_id",
        "resolver",
        "round_index",
        "sent_at",
        "answered_at",
        "status",
        "rcode",
        "returned_ttl",
        "serial",
        "encoded_ttl",
        "record_count",
        "trace_id",
    )

    OK = "ok"
    SERVFAIL = "servfail"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    NO_ANSWER = "no-answer"

    probe_id: int
    resolver: str
    round_index: int
    sent_at: float
    answered_at: Optional[float]
    status: str
    rcode: Optional[Rcode]
    returned_ttl: Optional[int]
    serial: Optional[int]
    encoded_ttl: Optional[int]
    record_count: int
    trace_id: Optional[int]

    def __init__(
        self,
        probe_id: int,
        resolver: str,
        round_index: int,
        sent_at: float,
        answered_at: Optional[float] = None,
        status: str = NO_ANSWER,
        rcode: Optional[Rcode] = None,
        returned_ttl: Optional[int] = None,
        serial: Optional[int] = None,
        encoded_ttl: Optional[int] = None,
        record_count: int = 0,
        trace_id: Optional[int] = None,
    ) -> None:
        values = (
            probe_id,
            resolver,
            round_index,
            sent_at,
            answered_at,
            status,
            rcode,
            returned_ttl,
            serial,
            encoded_ttl,
            record_count,
            trace_id,
        )
        for name, value in zip(StubAnswer.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"StubAnswer is read-only (cannot set {name!r})")

    @property
    def latency(self) -> Optional[float]:
        if self.answered_at is None:
            return None
        return self.answered_at - self.sent_at

    @property
    def is_success(self) -> bool:
        return self.status == StubAnswer.OK

    def _fields(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in StubAnswer.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StubAnswer):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> Tuple[Any, ...]:
        return StubAnswer, self._fields()

    def __repr__(self) -> str:
        return (
            f"<StubAnswer p{self.probe_id} via {self.resolver} "
            f"round={self.round_index} {self.status} serial={self.serial}>"
        )


#: Status strings by the code the log stores.
STATUSES: Tuple[str, ...] = (
    StubAnswer.OK,
    StubAnswer.SERVFAIL,
    StubAnswer.NXDOMAIN,
    StubAnswer.NODATA,
    StubAnswer.NO_ANSWER,
)
STATUS_CODES: Dict[str, int] = {status: code for code, status in enumerate(STATUSES)}
OK_CODE = STATUS_CODES[StubAnswer.OK]
NO_ANSWER_CODE = STATUS_CODES[StubAnswer.NO_ANSWER]


def optional_value(code: int) -> Optional[int]:
    """The value an optional column's stored ``code`` stands for."""
    return code - 1 if code else None


def _picked(column: Any, rows: Sequence[int]) -> Any:
    """``column``'s entries at ``rows``, as an array of the same type."""
    return array(column.typecode, map(column.__getitem__, rows))


#: The columns :meth:`AnswerLog.settle` writes besides the time and status.
_SETTLED = ("rcodes", "record_counts", "returned_ttls", "serials", "encoded_ttls")


class AnswerLog(RowSequence):
    """Every stub observation of a run, as columns; a sequence of rows.

    Columns are public and read-only by convention, one entry per row:

    * ``probe_ids``, ``rounds`` and ``record_counts`` — unsigned ints,
      widened as values grow;
    * ``resolver`` — an :class:`~repro.columns.IdColumn` of the queried
      recursive's address;
    * ``sent_at`` and ``answered_at`` — ``array('d')``, NaN where no
      response came;
    * ``statuses`` — codes into :data:`STATUSES`;
    * ``rcodes``, ``returned_ttls``, ``serials``, ``encoded_ttls`` and
      ``trace_ids`` — optional unsigned ints stored as ``value + 1``,
      with 0 for None (:func:`optional_value` decodes); -1 is refused
      like any other negative value rather than read back as None.

    As a sequence the log yields :class:`StubAnswer` rows, built per
    access; anything that scales with the row count reads the columns.
    ``AnswerLog(rows)`` builds a log holding the given rows.
    """

    __slots__ = (
        "probe_ids",
        "resolver",
        "rounds",
        "sent_at",
        "answered_at",
        "statuses",
        "rcodes",
        "returned_ttls",
        "serials",
        "encoded_ttls",
        "record_counts",
        "trace_ids",
    )

    def __init__(self, rows: Iterable[StubAnswer] = ()) -> None:
        self.probe_ids = array("B")
        self.resolver = IdColumn()
        self.rounds = array("B")
        self.sent_at = array("d")
        self.answered_at = array("d")
        self.statuses = array("B")
        self.rcodes = array("B")
        self.returned_ttls = array("B")
        self.serials = array("B")
        self.encoded_ttls = array("B")
        self.record_counts = array("B")
        self.trace_ids = array("B")
        for row in rows:
            index = self.append(
                row.probe_id, row.resolver, row.round_index, row.sent_at, row.trace_id
            )
            self.settle(
                index,
                math.nan if row.answered_at is None else row.answered_at,
                row.status,
                row.rcode,
                row.record_count,
                row.returned_ttl,
                row.serial,
                row.encoded_ttl,
            )

    def append(
        self,
        probe_id: int,
        resolver: str,
        round_index: int,
        sent_at: float,
        trace_id: Optional[int] = None,
    ) -> int:
        """Open a row for a query just sent, unanswered; its row index.

        A value no column can hold (negative, or 2**64 and above) raises
        :class:`OverflowError` and leaves the log as it was.
        """
        trace_code = 0 if trace_id is None else (trace_id + 1 or -1)
        row = len(self.sent_at)
        try:
            self.probe_ids.append(probe_id)
            self.rounds.append(round_index)
            self.trace_ids.append(trace_code)
        except OverflowError:
            # Slow path, once per new width: undo, widen (or raise), redo.
            del self.probe_ids[row:], self.rounds[row:], self.trace_ids[row:]
            probe_ids = widened(self.probe_ids, probe_id)
            rounds = widened(self.rounds, round_index)
            trace_ids = widened(self.trace_ids, trace_code)
            probe_ids.append(probe_id)
            rounds.append(round_index)
            trace_ids.append(trace_code)
            self.probe_ids, self.rounds, self.trace_ids = probe_ids, rounds, trace_ids
        self.sent_at.append(sent_at)
        self.answered_at.append(math.nan)
        self.statuses.append(NO_ANSWER_CODE)
        self.rcodes.append(0)
        self.returned_ttls.append(0)
        self.serials.append(0)
        self.encoded_ttls.append(0)
        self.record_counts.append(0)
        column = self.resolver
        try:
            column.ids.append(column.index[resolver])
        except KeyError:
            column.add(resolver)
        return row

    def settle(
        self,
        row: int,
        answered_at: float,
        status: str,
        rcode: Optional[Rcode],
        record_count: int = 0,
        returned_ttl: Optional[int] = None,
        serial: Optional[int] = None,
        encoded_ttl: Optional[int] = None,
    ) -> None:
        """Record what came back for ``row`` (``answered_at`` NaN: nothing).

        A value no column can hold raises :class:`OverflowError`.
        """
        codes = (
            0 if rcode is None else rcode + 1,
            record_count,
            0 if returned_ttl is None else (returned_ttl + 1 or -1),
            0 if serial is None else (serial + 1 or -1),
            0 if encoded_ttl is None else (encoded_ttl + 1 or -1),
        )
        try:
            (
                self.rcodes[row],
                self.record_counts[row],
                self.returned_ttls[row],
                self.serials[row],
                self.encoded_ttls[row],
            ) = codes
        except OverflowError:
            # Slow path, once per new width.
            for name, code in zip(_SETTLED, codes):
                column = widened(getattr(self, name), code)
                column[row] = code
                setattr(self, name, column)
        self.answered_at[row] = answered_at
        self.statuses[row] = STATUS_CODES[status]

    def take(self, rows: Iterable[int]) -> "AnswerLog":
        """A new log of the given rows, in the given order."""
        picked = list(rows)
        subset = AnswerLog()
        for name in AnswerLog.__slots__:
            if name != "resolver":
                setattr(subset, name, _picked(getattr(self, name), picked))
        # The subset keeps the whole resolver table, so the ids stay valid.
        subset.resolver.ids = _picked(self.resolver.ids, picked)
        subset.resolver.values = list(self.resolver.values)
        subset.resolver.index = dict(self.resolver.index)
        return subset

    # ------------------------------------------------------------------
    # Row view
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sent_at)

    def _row(self, index: int) -> StubAnswer:
        answered_at = self.answered_at[index]
        rcode = self.rcodes[index]
        return StubAnswer(
            self.probe_ids[index],
            self.resolver.values[self.resolver.ids[index]],
            self.rounds[index],
            self.sent_at[index],
            None if math.isnan(answered_at) else answered_at,
            STATUSES[self.statuses[index]],
            Rcode(rcode - 1) if rcode else None,
            optional_value(self.returned_ttls[index]),
            optional_value(self.serials[index]),
            optional_value(self.encoded_ttls[index]),
            self.record_counts[index],
            optional_value(self.trace_ids[index]),
        )

    def __repr__(self) -> str:
        return f"<AnswerLog answers={len(self)} resolvers={len(self.resolver.values)}>"

    def __getstate__(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in AnswerLog.__slots__)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        for name, column in zip(AnswerLog.__slots__, state):
            setattr(self, name, column)


class StubResolver(Host):
    """A probe's stub: queries local recursives, 5 s timeout, no retry."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        probe_id: int,
        recursives: Sequence[str],
        results: Optional[AnswerLog] = None,
        timeout: float = ATLAS_TIMEOUT,
        name: str = "",
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        super().__init__(sim, network, address, name=name or f"probe{probe_id}")
        if not recursives:
            raise ValueError("a stub needs at least one recursive")
        self.probe_id = probe_id
        self.recursives = list(recursives)
        self.timeout = timeout
        self.results = results if results is not None else AnswerLog()
        # msg_id -> the row of the results log the query will settle.
        self._pending: Dict[int, int] = {}
        self._trace = tracer
        # Metrics instruments are resolved once here; per-query updates are
        # plain attribute arithmetic (zero-cost contract: self._metrics is
        # None in unmetered runs and each update site guards on that).
        self._metrics = metrics
        if metrics is not None:
            self._queries_counter = metrics.counter("stub.queries")
            self._outcome_family = metrics.family("stub.outcome")

    # ------------------------------------------------------------------
    def query_round(self, qname: Name, qtype: RRType, round_index: int) -> None:
        """Send one query to every local recursive (one VP each)."""
        for resolver in self.recursives:
            self.query_one(qname, qtype, round_index, resolver)

    def query_one(
        self, qname: Name, qtype: RRType, round_index: int, resolver: str
    ) -> int:
        """Send one query to one recursive; the results row tracking it."""
        message = make_query(qname, qtype, rd=True)
        trace_id: Optional[int] = None
        if self._trace is not None:
            trace_id = message.trace_id = self._trace.new_trace()
            self._trace.emit(
                trace_id,
                "issue",
                self.name,
                vp=f"p{self.probe_id}:{resolver}",
                detail=f"{qname} {qtype.name} round={round_index}",
            )
        if self._metrics is not None:
            self._queries_counter.value += 1
        row = self.results.append(
            self.probe_id, resolver, round_index, self.sim.now, trace_id
        )
        self._pending[message.msg_id] = row
        self.sim.call_later(self.timeout, self._on_timeout, message.msg_id)
        self.send(resolver, message)
        return row

    # Span terminators and metric labels by stored status code. The label
    # keys match responses_by_round()'s buckets exactly so per-round
    # snapshots reconcile with the client-outcome series.
    _TERMINALS: Tuple[Tuple[str, str], ...] = tuple(
        {
            StubAnswer.OK: ("answer", "ok"),
            StubAnswer.SERVFAIL: ("servfail", "servfail"),
            StubAnswer.NXDOMAIN: ("nxdomain", "error"),
            StubAnswer.NODATA: ("nodata", "error"),
            StubAnswer.NO_ANSWER: ("no_answer", "no_answer"),
        }[status]
        for status in STATUSES
    )

    def _record_outcome(self, row: int) -> None:
        """Emit the terminal span and outcome metric for a settled query."""
        log = self.results
        kind, outcome = self._TERMINALS[log.statuses[row]]
        trace_code = log.trace_ids[row]
        if self._trace is not None and trace_code:
            resolver = log.resolver.values[log.resolver.ids[row]]
            self._trace.emit(
                trace_code - 1, kind, self.name, vp=f"p{self.probe_id}:{resolver}"
            )
        if self._metrics is not None:
            self._outcome_family.inc((outcome, log.rounds[row]))

    def _on_timeout(self, msg_id: int) -> None:
        # The row was opened unanswered; the timeout only closes it.
        row = self._pending.pop(msg_id, None)
        if row is None:
            return
        if self._trace is not None or self._metrics is not None:
            self._record_outcome(row)

    def on_packet(self, packet: Packet) -> None:
        message = packet.message
        if not message.qr:
            return
        row = self._pending.pop(message.msg_id, None)
        if row is None:
            return  # response after the 5 s timeout: probe already gave up
        rcode = message.rcode
        if rcode == Rcode.SERVFAIL or rcode == Rcode.REFUSED:
            self.results.settle(row, self.sim.now, StubAnswer.SERVFAIL, rcode)
        elif rcode == Rcode.NXDOMAIN:
            self.results.settle(row, self.sim.now, StubAnswer.NXDOMAIN, rcode)
        elif not message.answers:
            self.results.settle(row, self.sim.now, StubAnswer.NODATA, rcode)
        else:
            rrset = message.answer_rrset()
            records = list(rrset) if rrset is not None else message.answers
            serial: Optional[int] = None
            encoded_ttl: Optional[int] = None
            for record in records:
                if isinstance(record.rdata, AAAA):
                    serial, _probe, encoded_ttl = record.rdata.fields()
                    break
            self.results.settle(
                row,
                self.sim.now,
                StubAnswer.OK,
                rcode,
                len(message.answers),
                min(record.ttl for record in records),
                serial,
                encoded_ttl,
            )
        if self._trace is not None or self._metrics is not None:
            self._record_outcome(row)
