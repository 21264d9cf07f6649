"""Resource records and rdata.

Rdata classes are immutable value objects; :class:`ResourceRecord` binds an
owner name, type, class, and TTL to one rdata, and :class:`RRset` groups
records sharing (name, type, class) — the unit DNS caches operate on.
"""

from __future__ import annotations

import ipaddress
from typing import List, Optional, Sequence, Tuple

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRClass, RRType


class Rdata:
    """Base class for record data. Subclasses are frozen value objects."""

    rtype: RRType

    def key(self) -> tuple:
        """Hash/equality key; subclasses return their field tuple."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rdata):
            return NotImplemented
        return self.rtype == other.rtype and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.rtype, self.key()))


class A(Rdata):
    """IPv4 address record."""

    rtype = RRType.A
    __slots__ = ("address",)

    def __init__(self, address: str) -> None:
        self.address = str(ipaddress.IPv4Address(address))

    def key(self) -> tuple:
        return (self.address,)

    def packed(self) -> bytes:
        return ipaddress.IPv4Address(self.address).packed

    def __repr__(self) -> str:
        return f"A({self.address})"


class AAAA(Rdata):
    """IPv6 address record, kept as its 128-bit integer ``value``; the
    text form is formatted only at the edge (:attr:`address`, ``repr``).

    The paper encodes measurement metadata inside AAAA rdata
    (prefix:serial:probeid:ttl); :meth:`fields` unpacks that layout.
    """

    rtype = RRType.AAAA
    __slots__ = ("value",)

    def __init__(self, address: str) -> None:
        self.value = int(ipaddress.IPv6Address(address))

    @classmethod
    def from_int(cls, value: int) -> "AAAA":
        """Wrap an already-valid 128-bit address without parsing text."""
        rdata = cls.__new__(cls)
        rdata.value = value
        return rdata

    @property
    def address(self) -> str:
        return str(ipaddress.IPv6Address(self.value))

    def key(self) -> tuple:
        return (self.value,)

    def packed(self) -> bytes:
        return self.value.to_bytes(16, "big")

    @classmethod
    def from_fields(
        cls, prefix: int, serial: int, probe_id: int, ttl: int
    ) -> "AAAA":
        """Build the paper's instrumented answer: the low 64 bits of the
        ``prefix`` address value carry (serial, probe id, ttl) so the
        client can classify the answer.

        Layout: serial (12 bits) | probe id (20 bits) | ttl (32 bits) —
        widened from the paper's 8/8/16 split so day-long TTLs and large
        probe populations fit.
        """
        if serial < 0 or serial > 0xFFF:
            raise ValueError(f"serial out of range: {serial}")
        if probe_id < 0 or probe_id > 0xFFFFF:
            raise ValueError(f"probe id out of range: {probe_id}")
        if ttl < 0 or ttl > 0xFFFFFFFF:
            raise ValueError(f"ttl out of range: {ttl}")
        return cls.from_int(prefix | (serial << 52) | (probe_id << 32) | ttl)

    def fields(self) -> Tuple[int, int, int]:
        """Decode (serial, probe_id, ttl) from the instrumented layout."""
        value = self.value
        return ((value >> 52) & 0xFFF, (value >> 32) & 0xFFFFF, value & 0xFFFFFFFF)

    def __repr__(self) -> str:
        return f"AAAA({self.address})"


class NS(Rdata):
    """Delegation: the target nameserver's host name."""

    rtype = RRType.NS
    __slots__ = ("target",)

    def __init__(self, target: Name) -> None:
        self.target = target

    def key(self) -> tuple:
        return (self.target,)

    def __repr__(self) -> str:
        return f"NS({self.target})"


class CNAME(Rdata):
    """Alias to another owner name."""

    rtype = RRType.CNAME
    __slots__ = ("target",)

    def __init__(self, target: Name) -> None:
        self.target = target

    def key(self) -> tuple:
        return (self.target,)

    def __repr__(self) -> str:
        return f"CNAME({self.target})"


class SOA(Rdata):
    """Start of authority; ``minimum`` doubles as the negative-cache TTL."""

    rtype = RRType.SOA
    __slots__ = ("mname", "rname", "serial", "refresh", "retry", "expire", "minimum")

    def __init__(
        self,
        mname: Name,
        rname: Name,
        serial: int,
        refresh: int = 7200,
        retry: int = 3600,
        expire: int = 1209600,
        minimum: int = 3600,
    ) -> None:
        self.mname = mname
        self.rname = rname
        self.serial = serial
        self.refresh = refresh
        self.retry = retry
        self.expire = expire
        self.minimum = minimum

    def key(self) -> tuple:
        return (
            self.mname,
            self.rname,
            self.serial,
            self.refresh,
            self.retry,
            self.expire,
            self.minimum,
        )

    def __repr__(self) -> str:
        return f"SOA(serial={self.serial}, minimum={self.minimum})"


class TXT(Rdata):
    """Free-form text record."""

    rtype = RRType.TXT
    __slots__ = ("strings",)

    def __init__(self, strings: Sequence[str]) -> None:
        strings = tuple(strings)
        for chunk in strings:
            if len(chunk.encode("utf-8")) > 255:
                raise ValueError("TXT chunk exceeds 255 octets")
        self.strings = strings

    def key(self) -> tuple:
        return self.strings

    def __repr__(self) -> str:
        return f"TXT({self.strings!r})"


class DS(Rdata):
    """Delegation signer digest (the record the root DITL analysis counts)."""

    rtype = RRType.DS
    __slots__ = ("key_tag", "algorithm", "digest_type", "digest")

    def __init__(
        self, key_tag: int, algorithm: int, digest_type: int, digest: bytes
    ) -> None:
        self.key_tag = key_tag
        self.algorithm = algorithm
        self.digest_type = digest_type
        self.digest = bytes(digest)

    def key(self) -> tuple:
        return (self.key_tag, self.algorithm, self.digest_type, self.digest)

    def __repr__(self) -> str:
        return f"DS(tag={self.key_tag}, alg={self.algorithm})"


class ResourceRecord:
    """One (name, type, class, TTL, rdata) row."""

    __slots__ = ("name", "rtype", "rclass", "ttl", "rdata")

    def __init__(
        self,
        name: Name,
        ttl: int,
        rdata: Rdata,
        rclass: RRClass = RRClass.IN,
    ) -> None:
        if ttl < 0 or ttl > 0x7FFFFFFF:
            raise ValueError(f"TTL out of range: {ttl}")
        self.name = name
        self.rtype = rdata.rtype
        self.rclass = rclass
        self.ttl = ttl
        self.rdata = rdata

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """Copy with a different TTL (cache decrement / TTL caps)."""
        return ResourceRecord(self.name, ttl, self.rdata, self.rclass)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceRecord):
            return NotImplemented
        return (
            self.name == other.name
            and self.rclass == other.rclass
            and self.ttl == other.ttl
            and self.rdata == other.rdata
        )

    def __hash__(self) -> int:
        return hash((self.name, self.rclass, self.ttl, self.rdata))

    def __repr__(self) -> str:
        return f"RR({self.name} {self.ttl} {self.rtype} {self.rdata!r})"


class RRset:
    """Records sharing (name, type, class): the caching unit.

    All members must share the owner/type/class; the TTL of the set is the
    minimum member TTL (RFC 2181 §5.2 says they should be equal; we
    normalize defensively).
    """

    __slots__ = ("name", "rtype", "rclass", "records")

    def __init__(self, records: Sequence[ResourceRecord]) -> None:
        if not records:
            raise ValueError("an RRset needs at least one record")
        first = records[0]
        for record in records[1:]:
            if (
                record.name != first.name
                or record.rtype != first.rtype
                or record.rclass != first.rclass
            ):
                raise ValueError("mixed (name, type, class) in RRset")
        self.name = first.name
        self.rtype = first.rtype
        self.rclass = first.rclass
        self.records: List[ResourceRecord] = list(records)

    @property
    def ttl(self) -> int:
        return min(record.ttl for record in self.records)

    def with_ttl(self, ttl: int) -> "RRset":
        # The members already share (name, type, class): skip the check.
        copy = RRset.__new__(RRset)
        copy.name, copy.rtype, copy.rclass = self.name, self.rtype, self.rclass
        copy.records = [record.with_ttl(ttl) for record in self.records]
        return copy

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __repr__(self) -> str:
        return f"RRset({self.name} {self.rtype} x{len(self.records)} ttl={self.ttl})"


def first_address(
    records: Sequence[ResourceRecord],
) -> Optional[str]:
    """Extract the first A/AAAA address from a record list, if any."""
    for record in records:
        if isinstance(record.rdata, (A, AAAA)):
            return record.rdata.address
    return None
