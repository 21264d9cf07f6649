"""One measurement probe: a stub resolver plus its first-hop recursives."""

from __future__ import annotations

from typing import List, Sequence

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.resolvers.stub import StubResolver


class Probe:
    """An Atlas-like probe.

    Each probe owns a stub resolver and queries a name unique to itself
    (``{probe_id}.<zone>``), once per round, to *each* of its first-hop
    recursives — every (probe, recursive) pair being one vantage point.
    """

    def __init__(
        self,
        probe_id: int,
        stub: StubResolver,
        qname: Name,
        r1_kinds: Sequence[str],
    ) -> None:
        self.probe_id = probe_id
        self.stub = stub
        self.qname = qname
        # Parallel to stub.recursives: the profile kind of each R1.
        self.r1_kinds: List[str] = list(r1_kinds)
        if len(self.r1_kinds) != len(stub.recursives):
            raise ValueError("r1_kinds must match the stub's recursive list")

    @property
    def vp_count(self) -> int:
        return len(self.stub.recursives)

    def query_round(self, round_index: int, qtype: RRType = RRType.AAAA) -> None:
        self.stub.query_round(self.qname, qtype, round_index)

    def __repr__(self) -> str:
        return f"<Probe {self.probe_id} vps={self.vp_count}>"
