"""DNS messages: header, question, and the three record sections."""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from repro.dnscore.name import Name
from repro.dnscore.records import ResourceRecord, RRset
from repro.dnscore.rrtypes import Opcode, Rcode, RRClass, RRType

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Monotonic 16-bit message id; uniqueness within a flight is what
    matters for the simulation, not unpredictability."""
    return next(_message_ids) & 0xFFFF


class Question:
    """The (qname, qtype, qclass) triple of a query."""

    __slots__ = ("qname", "qtype", "qclass")

    def __init__(
        self, qname: Name, qtype: RRType, qclass: RRClass = RRClass.IN
    ) -> None:
        self.qname = qname
        self.qtype = qtype
        self.qclass = qclass

    def key(self) -> tuple:
        return (self.qname, self.qtype, self.qclass)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Question):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Question({self.qname} {self.qtype})"


class Message:
    """A DNS message with standard header flags and sections.

    Attributes mirror the RFC 1035 header: ``qr`` (response), ``aa``
    (authoritative answer), ``tc`` (truncated), ``rd`` (recursion
    desired), ``ra`` (recursion available), plus opcode and rcode.
    """

    __slots__ = (
        "msg_id",
        "qr",
        "opcode",
        "aa",
        "tc",
        "rd",
        "ra",
        "rcode",
        "question",
        "answers",
        "authority",
        "additional",
        "edns_payload",
        "trace_id",
    )

    def __init__(
        self,
        msg_id: int,
        question: Optional[Question],
        qr: bool = False,
        opcode: Opcode = Opcode.QUERY,
        aa: bool = False,
        tc: bool = False,
        rd: bool = False,
        ra: bool = False,
        rcode: Rcode = Rcode.NOERROR,
        answers: Optional[Sequence[ResourceRecord]] = None,
        authority: Optional[Sequence[ResourceRecord]] = None,
        additional: Optional[Sequence[ResourceRecord]] = None,
        edns_payload: Optional[int] = None,
    ) -> None:
        self.msg_id = msg_id & 0xFFFF
        self.qr = qr
        self.opcode = opcode
        self.aa = aa
        self.tc = tc
        self.rd = rd
        self.ra = ra
        self.rcode = rcode
        self.question = question
        self.answers: List[ResourceRecord] = list(answers) if answers else []
        self.authority: List[ResourceRecord] = list(authority) if authority else []
        self.additional: List[ResourceRecord] = list(additional) if additional else []
        # EDNS0 (RFC 6891): advertised UDP payload size; None = no OPT
        # pseudo-record (plain DNS, 512-byte limit).
        self.edns_payload = edns_payload
        # Observability: id of the stub query lifecycle this message
        # belongs to (None in untraced runs). Not part of the wire format;
        # the network re-attaches it across serialization.
        self.trace_id: Optional[int] = None

    # ------------------------------------------------------------------
    # Interpretation helpers
    # ------------------------------------------------------------------
    def is_referral(self) -> bool:
        """A referral carries no answers, is not authoritative, and has
        NS records in the authority section (the paper's Appendix A)."""
        return (
            self.qr
            and not self.aa
            and not self.answers
            and self.rcode == Rcode.NOERROR
            and any(record.rtype == RRType.NS for record in self.authority)
        )

    def answer_rrset(self) -> Optional[RRset]:
        """The answer records matching the question, as an RRset."""
        if not self.question or not self.answers:
            return None
        matching = [
            record
            for record in self.answers
            if record.name == self.question.qname
            and record.rtype == self.question.qtype
        ]
        if not matching:
            return None
        return RRset(matching)

    def soa_minimum_ttl(self) -> Optional[int]:
        """Negative-cache TTL from the authority SOA, per RFC 2308."""
        for record in self.authority:
            if record.rtype == RRType.SOA:
                soa = record.rdata
                return min(record.ttl, soa.minimum)
        return None

    def __repr__(self) -> str:
        kind = "response" if self.qr else "query"
        return (
            f"<Message {kind} id={self.msg_id} {self.question!r} "
            f"rcode={self.rcode} an={len(self.answers)} "
            f"au={len(self.authority)} ad={len(self.additional)}>"
        )


def make_query(
    qname: Name,
    qtype: RRType,
    rd: bool = True,
    msg_id: Optional[int] = None,
    edns_payload: Optional[int] = None,
) -> Message:
    """Build a standard query message (optionally EDNS0-enabled)."""
    return Message(
        msg_id if msg_id is not None else next_message_id(),
        Question(qname, qtype),
        rd=rd,
        edns_payload=edns_payload,
    )


def make_response(
    query: Message,
    rcode: Rcode = Rcode.NOERROR,
    aa: bool = False,
    ra: bool = False,
    answers: Optional[Sequence[ResourceRecord]] = None,
    authority: Optional[Sequence[ResourceRecord]] = None,
    additional: Optional[Sequence[ResourceRecord]] = None,
    edns_payload: Optional[int] = None,
) -> Message:
    """Build a response echoing the query's id, question, and RD bit."""
    return Message(
        query.msg_id,
        query.question,
        qr=True,
        aa=aa,
        rd=query.rd,
        ra=ra,
        rcode=rcode,
        answers=answers,
        authority=authority,
        additional=additional,
        edns_payload=edns_payload,
    )
