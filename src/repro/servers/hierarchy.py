"""Zone-tree construction for the experiments' DNS hierarchies.

The paper's testbed hangs ``cachetest.nl`` under ``.nl`` under the root
(and ``cachetest.net`` under ``.net`` for the software study). This module
builds that tree from declarative :class:`ZoneSpec` rows: each zone gets
its SOA, apex NS RRset, in-bailiwick nameserver A records, and the parent
zone gets the delegation NS + glue (possibly with a *different* TTL — the
referral-vs-answer precedence question of Appendix A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dnscore.name import Name
from repro.dnscore.records import AAAA, NS, SOA, A, ResourceRecord
from repro.dnscore.rrtypes import RRType
from repro.dnscore.zone import Zone


@dataclass
class ZoneSpec:
    """Declarative description of one zone in the tree.

    ``nameservers`` maps nameserver host names to IPv4 addresses. TTLs:
    ``ns_ttl`` / ``a_ttl`` are what the zone itself publishes (the
    authoritative answer); ``delegation_ttl`` is what the parent publishes
    in referrals (the glue). The paper's Appendix A sets these apart to
    test which one recursives honor.
    """

    origin: str
    nameservers: Dict[str, str] = field(default_factory=dict)
    ns_ttl: int = 172800
    a_ttl: int = 172800
    delegation_ttl: Optional[int] = None
    negative_ttl: int = 3600
    soa_ttl: int = 86400
    serial: int = 1

    def origin_name(self) -> Name:
        return Name.from_text(self.origin)


def build_hierarchy(specs: Sequence[ZoneSpec]) -> Dict[Name, Zone]:
    """Build all zones and wire parent→child delegations with glue.

    Parents are located among the given specs by longest-suffix match;
    a spec without a parent in the list is simply not delegated (the root
    never is).
    """
    zones: Dict[Name, Zone] = {}
    spec_by_origin: Dict[Name, ZoneSpec] = {}

    for spec in specs:
        origin = spec.origin_name()
        if origin in zones:
            raise ValueError(f"duplicate zone {origin}")
        primary = _primary_ns_name(spec)
        soa = SOA(
            mname=primary,
            rname=Name.from_text(f"hostmaster.{spec.origin}")
            if not origin.is_root
            else Name.from_text("hostmaster.root-servers.test"),
            serial=spec.serial,
            minimum=spec.negative_ttl,
        )
        zone = Zone(origin, soa, soa_ttl=spec.soa_ttl)
        for host_text, address in spec.nameservers.items():
            host = Name.from_text(host_text)
            zone.add(origin, spec.ns_ttl, NS(host))
            if host.is_subdomain_of(origin):
                zone.add(host, spec.a_ttl, A(address))
        zones[origin] = zone
        spec_by_origin[origin] = spec

    # Delegations: each zone hangs off the closest enclosing zone present.
    for origin, spec in spec_by_origin.items():
        parent = _closest_parent(origin, zones)
        if parent is None:
            continue
        parent_zone = zones[parent]
        delegation_ttl = (
            spec.delegation_ttl if spec.delegation_ttl is not None else spec.ns_ttl
        )
        for host_text, address in spec.nameservers.items():
            host = Name.from_text(host_text)
            parent_zone.add(origin, delegation_ttl, NS(host))
            # Glue is needed when the host sits at/below the cut; we store
            # it unconditionally, as parents commonly carry it.
            parent_zone.add(host, delegation_ttl, A(address))
    return zones


def _primary_ns_name(spec: ZoneSpec) -> Name:
    if spec.nameservers:
        return Name.from_text(next(iter(spec.nameservers)))
    return Name.from_text(f"ns.{spec.origin}" if spec.origin != "." else "ns.test")


def _closest_parent(origin: Name, zones: Dict[Name, Zone]) -> Optional[Name]:
    return next((c for c in origin.ancestors() if c != origin and c in zones), None)


def attach_probe_synthesizer(zone: Zone, prefix: str, answer_ttl: int) -> None:
    """Make ``zone`` answer ``{probeid}.<origin>`` AAAA queries.

    The answer encodes (current zone serial, probe id, configured TTL)
    in the rdata, exactly like the paper's instrumented zone (§3.2), so
    client-side classification can tell cached from fresh answers.
    """
    prefix_value = AAAA(prefix).value

    def synthesize(qname: Name, qtype: RRType) -> Optional[List[ResourceRecord]]:
        labels = qname.relativize(zone.origin)
        if len(labels) != 1:
            return None
        try:
            probe_id = int(labels[0])
        except ValueError:
            return None
        if qtype != RRType.AAAA:
            return []  # name exists, no data of this type
        rdata = AAAA.from_fields(prefix_value, zone.serial & 0xFFF, probe_id, answer_ttl)
        return [ResourceRecord(qname, answer_ttl, rdata)]

    zone.synthesizer = synthesize


# The paper's instrumentation prefix (§3.2).
PROBE_ANSWER_PREFIX = "fd0f:3897:faf7:a375::"

# The paper's measurement zone and the TLD that delegates it (§3.2).
ZONE_ORIGIN = "cachetest.nl."
TLD_ORIGIN = "nl."
