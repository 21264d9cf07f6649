"""Authoritative zone data and RFC 1034 lookup semantics.

A :class:`Zone` holds the RRsets of one zone (everything from its origin
down to — but not across — its zone cuts), knows its delegations, and
answers lookups with one of four statuses: ANSWER, REFERRAL, NODATA, or
NXDOMAIN. Glue records for in-zone (or stored below-cut) nameservers are
attached to referrals.

Zones may also carry a *synthesizer*: a callback that fabricates records
for names under the origin that have no stored RRset. The reproduction
uses this for the paper's per-probe names (``{probeid}.cachetest.nl``),
whose AAAA answers encode the current zone serial.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.dnscore.name import Name
from repro.dnscore.records import NS, SOA, Rdata, ResourceRecord
from repro.dnscore.rrtypes import Rcode, RRType

Synthesizer = Callable[[Name, RRType], Optional[List[ResourceRecord]]]


class LookupStatus(enum.Enum):
    """Outcome of a zone lookup."""

    ANSWER = "answer"
    REFERRAL = "referral"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    OUT_OF_ZONE = "out-of-zone"


class LookupResult:
    """Records and status produced by :meth:`Zone.lookup`."""

    __slots__ = ("status", "answers", "authority", "additional", "aa")

    def __init__(
        self,
        status: LookupStatus,
        answers: Optional[List[ResourceRecord]] = None,
        authority: Optional[List[ResourceRecord]] = None,
        additional: Optional[List[ResourceRecord]] = None,
    ) -> None:
        self.status = status
        self.answers = answers or []
        self.authority = authority or []
        self.additional = additional or []
        # Referrals are the one non-authoritative answer a zone gives.
        self.aa = status != LookupStatus.REFERRAL

    @property
    def rcode(self) -> Rcode:
        if self.status == LookupStatus.NXDOMAIN:
            return Rcode.NXDOMAIN
        return Rcode.NOERROR

    def __repr__(self) -> str:
        return (
            f"<LookupResult {self.status.value} an={len(self.answers)} "
            f"au={len(self.authority)} ad={len(self.additional)}>"
        )


class Zone:
    """One DNS zone: origin, RRsets, delegations, and SOA."""

    def __init__(self, origin: Name, soa: SOA, soa_ttl: int = 86400) -> None:
        self.origin = origin
        self._records: Dict[Tuple[Name, RRType], List[ResourceRecord]] = {}
        self._names: set = set()
        self._delegations: Dict[Name, List[ResourceRecord]] = {}
        self.synthesizer: Optional[Synthesizer] = None
        self.soa_record = ResourceRecord(origin, soa_ttl, soa)
        self._records[(origin, RRType.SOA)] = [self.soa_record]
        self._names.add(origin)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, name: Name, ttl: int, rdata: Rdata) -> ResourceRecord:
        """Add one record; NS records below the origin become delegations."""
        if not name.is_subdomain_of(self.origin):
            raise ValueError(f"{name} is not under zone origin {self.origin}")
        record = ResourceRecord(name, ttl, rdata)
        self._records.setdefault((name, record.rtype), []).append(record)
        # Register the name and every intermediate (empty non-terminal).
        for ancestor in name.ancestors():
            self._names.add(ancestor)
            if ancestor == self.origin:
                break
        if record.rtype == RRType.NS and name != self.origin:
            self._delegations.setdefault(name, []).append(record)
        return record

    def set_serial(self, serial: int) -> None:
        """Bump the SOA serial (zone rotation in the paper's setup)."""
        old = self.soa_record.rdata
        new_soa = SOA(
            old.mname,
            old.rname,
            serial,
            old.refresh,
            old.retry,
            old.expire,
            old.minimum,
        )
        self.soa_record = ResourceRecord(
            self.origin, self.soa_record.ttl, new_soa
        )
        self._records[(self.origin, RRType.SOA)] = [self.soa_record]

    @property
    def serial(self) -> int:
        return self.soa_record.rdata.serial

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _negative_authority(self) -> List[ResourceRecord]:
        """SOA for the authority section of negative answers (RFC 2308)."""
        return [self.soa_record]

    def _find_delegation(self, qname: Name) -> Optional[Name]:
        """The closest zone cut at or above ``qname`` (below the origin)."""
        for candidate in qname.ancestors():
            if candidate == self.origin:
                return None
            if candidate in self._delegations:
                return candidate
        return None

    def _glue_for(self, ns_records: List[ResourceRecord]) -> List[ResourceRecord]:
        """A/AAAA records stored in this zone for the given NS targets."""
        glue: List[ResourceRecord] = []
        for ns_record in ns_records:
            target = ns_record.rdata.target
            glue.extend(self._records.get((target, RRType.A), []))
            glue.extend(self._records.get((target, RRType.AAAA), []))
        return glue

    def lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """Answer a query against this zone's data."""
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.OUT_OF_ZONE)

        cut = self._find_delegation(qname)
        # DS lives on the parent side of a cut (RFC 4035): answer it
        # authoritatively instead of referring (the root DITL analysis in
        # the paper counts exactly these queries).
        if cut is not None and cut == qname and qtype == RRType.DS:
            ds_records = self._records.get((qname, RRType.DS))
            if ds_records:
                return LookupResult(
                    LookupStatus.ANSWER, answers=list(ds_records)
                )
            return LookupResult(
                LookupStatus.NODATA, authority=self._negative_authority()
            )
        # A query *for* the NS RRset at the cut owner itself is still a
        # referral from the parent's perspective (paper Appendix A).
        if cut is not None:
            ns_records = self._delegations[cut]
            return LookupResult(
                LookupStatus.REFERRAL,
                authority=list(ns_records),
                additional=self._glue_for(ns_records),
            )

        exact = self._records.get((qname, qtype))
        if exact:
            return LookupResult(LookupStatus.ANSWER, answers=list(exact))

        cname = self._records.get((qname, RRType.CNAME))
        if cname and qtype != RRType.CNAME:
            return LookupResult(LookupStatus.ANSWER, answers=list(cname))

        if self.synthesizer is not None:
            synthesized = self.synthesizer(qname, qtype)
            if synthesized is not None:
                if synthesized:
                    return LookupResult(
                        LookupStatus.ANSWER, answers=list(synthesized)
                    )
                return LookupResult(
                    LookupStatus.NODATA,
                    authority=self._negative_authority(),
                )

        if qname in self._names:
            return LookupResult(
                LookupStatus.NODATA, authority=self._negative_authority()
            )
        return LookupResult(
            LookupStatus.NXDOMAIN, authority=self._negative_authority()
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def delegations(self) -> List[Name]:
        return sorted(self._delegations)

    def __repr__(self) -> str:
        return (
            f"<Zone {self.origin} serial={self.serial} "
            f"rrsets={len(self._records)} cuts={len(self._delegations)}>"
        )
