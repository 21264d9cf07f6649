"""The client stub resolver with the RIPE Atlas measurement discipline.

Atlas probes query each of their local recursives independently and
report "no answer" after a 5-second timeout (paper §3.2). Each
(probe, recursive) pair is one vantage point; the stub records one
:class:`StubAnswer` row per VP per probing round, which is the raw
material for every client-side table and figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.dnscore.message import make_query
from repro.dnscore.name import Name
from repro.dnscore.records import AAAA
from repro.dnscore.rrtypes import Rcode, RRType
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet
from repro.simcore.simulator import Simulator

ATLAS_TIMEOUT = 5.0


class StubAnswer:
    """One VP observation: a query and what (if anything) came back."""

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

    def __init__(
        self,
        probe_id: int,
        resolver: str,
        round_index: int,
        sent_at: float,
    ) -> None:
        self.probe_id = probe_id
        self.resolver = resolver
        self.round_index = round_index
        self.sent_at = sent_at
        self.answered_at: Optional[float] = None
        self.status = StubAnswer.NO_ANSWER
        self.rcode: Optional[Rcode] = None
        self.returned_ttl: Optional[int] = None
        self.serial: Optional[int] = None
        self.encoded_ttl: Optional[int] = None
        self.record_count = 0
        self.trace_id: Optional[int] = None

    @property
    def latency(self) -> Optional[float]:
        if self.answered_at is None:
            return None
        return self.answered_at - self.sent_at

    @property
    def is_success(self) -> bool:
        return self.status == StubAnswer.OK

    def __repr__(self) -> str:
        return (
            f"<StubAnswer p{self.probe_id} via {self.resolver} "
            f"round={self.round_index} {self.status} serial={self.serial}>"
        )


class StubResolver(Host):
    """A probe's stub: queries local recursives, 5 s timeout, no retry."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        probe_id: int,
        recursives: Sequence[str],
        results: Optional[List[StubAnswer]] = None,
        timeout: float = ATLAS_TIMEOUT,
        name: str = "",
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(sim, network, address, name=name or f"probe{probe_id}")
        if not recursives:
            raise ValueError("a stub needs at least one recursive")
        self.probe_id = probe_id
        self.recursives = list(recursives)
        self.timeout = timeout
        self.results = results if results is not None else []
        self._pending: Dict[int, StubAnswer] = {}
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
    ) -> StubAnswer:
        """Send one query to one recursive and track its outcome."""
        message = make_query(qname, qtype, rd=True)
        answer = StubAnswer(self.probe_id, resolver, round_index, self.sim.now)
        if self._trace is not None:
            trace_id = self._trace.new_trace()
            message.trace_id = trace_id
            answer.trace_id = trace_id
            self._trace.emit(
                trace_id,
                "issue",
                self.name,
                vp=f"p{self.probe_id}:{resolver}",
                detail=f"{qname} {qtype.name} round={round_index}",
            )
        if self._metrics is not None:
            self._queries_counter.value += 1
        self.results.append(answer)
        self._pending[message.msg_id] = answer
        self.sim.call_later(self.timeout, self._on_timeout, message.msg_id)
        self.send(resolver, message)
        return answer

    # Span terminators and metric labels per StubAnswer status. The label
    # keys match responses_by_round()'s buckets exactly so per-round
    # snapshots reconcile with the client-outcome series.
    _TERMINALS = {
        StubAnswer.OK: ("answer", "ok"),
        StubAnswer.SERVFAIL: ("servfail", "servfail"),
        StubAnswer.NXDOMAIN: ("nxdomain", "error"),
        StubAnswer.NODATA: ("nodata", "error"),
        StubAnswer.NO_ANSWER: ("no_answer", "no_answer"),
    }

    def _record_outcome(self, answer: StubAnswer) -> None:
        """Emit the terminal span and outcome metric for a settled query."""
        kind, outcome = self._TERMINALS[answer.status]
        if self._trace is not None and answer.trace_id is not None:
            self._trace.emit(
                answer.trace_id,
                kind,
                self.name,
                vp=f"p{answer.probe_id}:{answer.resolver}",
            )
        if self._metrics is not None:
            self._outcome_family.inc((outcome, answer.round_index))

    def _on_timeout(self, msg_id: int) -> None:
        answer = self._pending.pop(msg_id, None)
        if answer is None:
            return
        answer.status = StubAnswer.NO_ANSWER
        if self._trace is not None or self._metrics is not None:
            self._record_outcome(answer)

    def on_packet(self, packet: Packet) -> None:
        message = packet.message
        if not message.qr:
            return
        answer = self._pending.pop(message.msg_id, None)
        if answer is None:
            return  # response after the 5 s timeout: probe already gave up
        answer.answered_at = self.sim.now
        answer.rcode = message.rcode
        if message.rcode == Rcode.SERVFAIL or message.rcode == Rcode.REFUSED:
            answer.status = StubAnswer.SERVFAIL
        elif message.rcode == Rcode.NXDOMAIN:
            answer.status = StubAnswer.NXDOMAIN
        elif not message.answers:
            answer.status = StubAnswer.NODATA
        else:
            answer.status = StubAnswer.OK
            answer.record_count = len(message.answers)
            rrset = message.answer_rrset()
            records = list(rrset) if rrset is not None else message.answers
            answer.returned_ttl = min(record.ttl for record in records)
            for record in records:
                if isinstance(record.rdata, AAAA):
                    serial, _probe, encoded_ttl = record.rdata.fields()
                    answer.serial = serial
                    answer.encoded_ttl = encoded_ttl
                    break
        if self._trace is not None or self._metrics is not None:
            self._record_outcome(answer)
