"""RFC 1035 wire format: full message encode/decode with name compression.

The simulator can run with or without serialization at the transport
boundary; this codec exists so messages crossing the emulated network are
real DNS packets, and it round-trips every message shape the library
produces. Compression pointers are emitted for owner names and for names
embedded in NS/CNAME/SOA rdata (the types RFC 3597 allows to compress).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.dnscore.message import Message, Question
from repro.dnscore.name import Name
from repro.dnscore.records import (
    AAAA,
    CNAME,
    DS,
    NS,
    SOA,
    TXT,
    A,
    Rdata,
    ResourceRecord,
)
from repro.dnscore.rrtypes import Opcode, Rcode, RRClass, RRType

_HEADER = struct.Struct("!HHHHHH")
_POINTER_MASK = 0xC000
_MAX_POINTER = 0x3FFF


class WireError(ValueError):
    """Raised on malformed wire data."""


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------
def _encode_name(name: Name, out: bytearray, offsets: Dict[Tuple[str, ...], int]) -> None:
    """Append ``name`` with compression against previously written names."""
    labels = name.labels
    for index in range(len(labels)):
        suffix = tuple(label.lower() for label in labels[index:])
        pointer = offsets.get(suffix)
        if pointer is not None:
            out += struct.pack("!H", _POINTER_MASK | pointer)
            return
        if len(out) <= _MAX_POINTER:
            offsets[suffix] = len(out)
        label = labels[index].encode("ascii")
        out.append(len(label))
        out += label
    out.append(0)


def _decode_name(data: bytes, offset: int) -> Tuple[Name, int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns the name and the offset just past its in-place encoding.
    """
    labels: List[str] = []
    jumps = 0
    cursor = offset
    end = -1  # set at first pointer jump
    while True:
        if cursor >= len(data):
            raise WireError("name runs past end of packet")
        length = data[cursor]
        if (length & 0xC0) == 0xC0:
            if cursor + 1 >= len(data):
                raise WireError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[cursor + 1]
            if pointer >= cursor:
                raise WireError("forward compression pointer")
            if end < 0:
                end = cursor + 2
            jumps += 1
            if jumps > 64:
                raise WireError("compression pointer loop")
            cursor = pointer
            continue
        if length & 0xC0:
            raise WireError(f"reserved label type 0x{length:02x}")
        cursor += 1
        if length == 0:
            break
        if cursor + length > len(data):
            raise WireError("label runs past end of packet")
        labels.append(data[cursor:cursor + length].decode("ascii"))
        cursor += length
        if len(labels) > 128:
            raise WireError("too many labels")
    if end < 0:
        end = cursor
    return Name(labels), end


# ---------------------------------------------------------------------------
# Rdata
# ---------------------------------------------------------------------------
def _encode_rdata(
    rdata: Rdata, out: bytearray, offsets: Dict[Tuple[str, ...], int]
) -> None:
    """Append rdata preceded by its 16-bit length."""
    length_at = len(out)
    out += b"\x00\x00"  # placeholder
    if isinstance(rdata, (A, AAAA)):
        out += rdata.packed()
    elif isinstance(rdata, (NS, CNAME)):
        _encode_name(rdata.target, out, offsets)
    elif isinstance(rdata, SOA):
        _encode_name(rdata.mname, out, offsets)
        _encode_name(rdata.rname, out, offsets)
        out += struct.pack(
            "!IIIII",
            rdata.serial,
            rdata.refresh,
            rdata.retry,
            rdata.expire,
            rdata.minimum,
        )
    elif isinstance(rdata, TXT):
        for chunk in rdata.strings:
            raw = chunk.encode("utf-8")
            out.append(len(raw))
            out += raw
    elif isinstance(rdata, DS):
        out += struct.pack("!HBB", rdata.key_tag, rdata.algorithm, rdata.digest_type)
        out += rdata.digest
    else:
        raise WireError(f"cannot encode rdata type {rdata.rtype}")
    rdlength = len(out) - length_at - 2
    struct.pack_into("!H", out, length_at, rdlength)


def _decode_rdata(
    rtype: RRType, data: bytes, offset: int, rdlength: int
) -> Rdata:
    end = offset + rdlength
    if end > len(data):
        raise WireError("rdata runs past end of packet")
    if rtype == RRType.A:
        if rdlength != 4:
            raise WireError(f"A rdlength {rdlength} != 4")
        return A(".".join(str(byte) for byte in data[offset:end]))
    if rtype == RRType.AAAA:
        if rdlength != 16:
            raise WireError(f"AAAA rdlength {rdlength} != 16")
        return AAAA.from_int(int.from_bytes(data[offset:end], "big"))
    if rtype in (RRType.NS, RRType.CNAME):
        target, consumed = _decode_name(data, offset)
        if consumed > end:
            raise WireError("name rdata overruns rdlength")
        return NS(target) if rtype == RRType.NS else CNAME(target)
    if rtype == RRType.SOA:
        mname, cursor = _decode_name(data, offset)
        rname, cursor = _decode_name(data, cursor)
        if cursor + 20 > end:
            raise WireError("SOA rdata truncated")
        serial, refresh, retry, expire, minimum = struct.unpack(
            "!IIIII", data[cursor:cursor + 20]
        )
        return SOA(mname, rname, serial, refresh, retry, expire, minimum)
    if rtype == RRType.TXT:
        strings: List[str] = []
        cursor = offset
        while cursor < end:
            length = data[cursor]
            cursor += 1
            if cursor + length > end:
                raise WireError("TXT chunk overruns rdata")
            strings.append(data[cursor:cursor + length].decode("utf-8"))
            cursor += length
        return TXT(strings)
    if rtype == RRType.DS:
        if rdlength < 4:
            raise WireError("DS rdata truncated")
        key_tag, algorithm, digest_type = struct.unpack(
            "!HBB", data[offset:offset + 4]
        )
        return DS(key_tag, algorithm, digest_type, data[offset + 4:end])
    raise WireError(f"cannot decode rdata type {rtype}")


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------
def _flags_word(message: Message) -> int:
    word = 0
    if message.qr:
        word |= 0x8000
    word |= (int(message.opcode) & 0xF) << 11
    if message.aa:
        word |= 0x0400
    if message.tc:
        word |= 0x0200
    if message.rd:
        word |= 0x0100
    if message.ra:
        word |= 0x0080
    word |= int(message.rcode) & 0xF
    return word


def upper_bound_size(message: Message) -> int:
    """A cheap upper bound on the encoded size (compression only shrinks).

    Servers use this to skip full encoding when a response obviously
    fits inside the UDP payload limit.
    """

    def name_size(name: Name) -> int:
        return sum(map(len, name.labels)) + len(name.labels) + 1

    def rdata_size(rdata) -> int:
        if isinstance(rdata, A):
            return 4
        if isinstance(rdata, AAAA):
            return 16
        if isinstance(rdata, (NS, CNAME)):
            return name_size(rdata.target)
        if isinstance(rdata, SOA):
            return name_size(rdata.mname) + name_size(rdata.rname) + 20
        if isinstance(rdata, TXT):
            return sum(len(chunk.encode("utf-8")) + 1 for chunk in rdata.strings)
        if isinstance(rdata, DS):
            return 4 + len(rdata.digest)
        return 512  # unknown: assume large

    total = _HEADER.size
    if message.question:
        total += name_size(message.question.qname) + 4
    if message.edns_payload is not None:
        total += 11  # OPT pseudo-record
    for section in (message.answers, message.authority, message.additional):
        for record in section:
            total += name_size(record.name) + 10 + rdata_size(record.rdata)
    return total


def to_wire(message: Message) -> bytes:
    """Serialize a message to RFC 1035 wire format (incl. EDNS0 OPT)."""
    out = bytearray()
    qdcount = 1 if message.question else 0
    arcount = len(message.additional)
    if message.edns_payload is not None:
        arcount += 1
    out += _HEADER.pack(
        message.msg_id,
        _flags_word(message),
        qdcount,
        len(message.answers),
        len(message.authority),
        arcount,
    )
    offsets: Dict[Tuple[str, ...], int] = {}
    if message.question:
        _encode_name(message.question.qname, out, offsets)
        out += struct.pack(
            "!HH", int(message.question.qtype), int(message.question.qclass)
        )
    for section in (message.answers, message.authority, message.additional):
        for record in section:
            _encode_name(record.name, out, offsets)
            out += struct.pack(
                "!HHI", int(record.rtype), int(record.rclass), record.ttl
            )
            _encode_rdata(record.rdata, out, offsets)
    if message.edns_payload is not None:
        # RFC 6891 OPT pseudo-record: root owner, CLASS = payload size,
        # TTL = extended flags (all zero here), empty rdata.
        out.append(0)  # root name
        out += struct.pack(
            "!HHIH", int(RRType.OPT), message.edns_payload & 0xFFFF, 0, 0
        )
    return bytes(out)


def from_wire(data: bytes) -> Message:
    """Parse an RFC 1035 packet into a :class:`Message`."""
    if len(data) < _HEADER.size:
        raise WireError("packet shorter than header")
    (msg_id, flags, qdcount, ancount, nscount, arcount) = _HEADER.unpack_from(data)
    if qdcount > 1:
        raise WireError(f"unsupported qdcount {qdcount}")
    opcode_value = (flags >> 11) & 0xF
    try:
        opcode = Opcode(opcode_value)
    except ValueError as exc:
        raise WireError(f"unknown opcode {opcode_value}") from exc
    rcode_value = flags & 0xF
    try:
        rcode = Rcode(rcode_value)
    except ValueError as exc:
        raise WireError(f"unknown rcode {rcode_value}") from exc

    cursor = _HEADER.size
    question = None
    if qdcount:
        qname, cursor = _decode_name(data, cursor)
        if cursor + 4 > len(data):
            raise WireError("question truncated")
        qtype_value, qclass_value = struct.unpack_from("!HH", data, cursor)
        cursor += 4
        question = Question(qname, RRType(qtype_value), RRClass(qclass_value))

    edns_payload = None
    sections: List[List[ResourceRecord]] = []
    for count in (ancount, nscount, arcount):
        records: List[ResourceRecord] = []
        for _ in range(count):
            name, cursor = _decode_name(data, cursor)
            if cursor + 10 > len(data):
                raise WireError("record header truncated")
            rtype_value, rclass_value, ttl, rdlength = struct.unpack_from(
                "!HHIH", data, cursor
            )
            cursor += 10
            if rtype_value == int(RRType.OPT):
                # EDNS0 pseudo-record: class carries the payload size.
                edns_payload = rclass_value
                cursor += rdlength
                continue
            rdata = _decode_rdata(RRType(rtype_value), data, cursor, rdlength)
            cursor += rdlength
            records.append(
                ResourceRecord(name, ttl, rdata, RRClass(rclass_value))
            )
        sections.append(records)

    return Message(
        msg_id,
        question,
        qr=bool(flags & 0x8000),
        opcode=opcode,
        aa=bool(flags & 0x0400),
        tc=bool(flags & 0x0200),
        rd=bool(flags & 0x0100),
        ra=bool(flags & 0x0080),
        rcode=rcode,
        answers=sections[0],
        authority=sections[1],
        additional=sections[2],
        edns_payload=edns_payload,
    )
