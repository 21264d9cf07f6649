"""Unit and property tests for rdata, resource records, and RRsets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnscore.name import Name
from repro.dnscore.records import (
    AAAA,
    CNAME,
    DS,
    NS,
    SOA,
    TXT,
    A,
    ResourceRecord,
    RRset,
    first_address,
)
from repro.dnscore.rrtypes import RRType

OWNER = Name.from_text("example.nl.")
PREFIX = AAAA("fd0f:3897:faf7:a375::").value


def test_a_record_accepts_valid_address():
    assert A("192.0.2.1").address == "192.0.2.1"


def test_a_record_rejects_garbage():
    with pytest.raises(ValueError):
        A("not-an-address")


def test_aaaa_normalizes():
    assert AAAA("2001:DB8::1").address == "2001:db8::1"


def test_rdata_equality_and_hash():
    assert A("192.0.2.1") == A("192.0.2.1")
    assert A("192.0.2.1") != A("192.0.2.2")
    assert hash(NS(OWNER)) == hash(NS(Name.from_text("EXAMPLE.nl.")))
    assert A("192.0.2.1") != AAAA("2001:db8::1")


def test_instrumented_aaaa_roundtrip():
    rdata = AAAA.from_fields(PREFIX, 7, 28477, 3600)
    assert rdata.fields() == (7, 28477, 3600)


def test_instrumented_aaaa_range_checks():
    with pytest.raises(ValueError):
        AAAA.from_fields(PREFIX, -1, 1, 60)
    with pytest.raises(ValueError):
        AAAA.from_fields(PREFIX, 1, 2**20, 60)
    with pytest.raises(ValueError):
        AAAA.from_fields(PREFIX, 1, 1, 2**32)


@given(
    serial=st.integers(min_value=0, max_value=0xFFF),
    probe_id=st.integers(min_value=0, max_value=0xFFFFF),
    ttl=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_property_instrumented_aaaa_roundtrip(serial, probe_id, ttl):
    rdata = AAAA.from_fields(PREFIX, serial, probe_id, ttl)
    assert rdata.fields() == (serial, probe_id, ttl)


# (serial, probe id, ttl) -> the text the string-building encoder produced.
INSTRUMENTED_TEXT = {
    (7, 28477, 3600): "fd0f:3897:faf7:a375:70:6f3d:0:e10",
    (0, 0, 0): "fd0f:3897:faf7:a375::",
    (0xFFF, 0xFFFFF, 0xFFFFFFFF): "fd0f:3897:faf7:a375:ffff:ffff:ffff:ffff",
    (1, 1414, 1800): "fd0f:3897:faf7:a375:10:586:0:708",
}


@pytest.mark.parametrize("fields, text", sorted(INSTRUMENTED_TEXT.items()))
def test_instrumented_aaaa_matches_text_encoding(fields, text):
    rdata = AAAA.from_fields(PREFIX, *fields)
    assert rdata.address == text
    assert repr(rdata) == f"AAAA({text})"
    assert rdata.fields() == fields
    parsed = AAAA(text)
    assert parsed == rdata
    assert hash(parsed) == hash(rdata)
    assert parsed.fields() == fields


@pytest.mark.parametrize("fields", sorted(INSTRUMENTED_TEXT))
def test_instrumented_aaaa_wire_roundtrip(fields):
    from repro.dnscore.message import make_query, make_response
    from repro.dnscore.wire import from_wire, to_wire

    qname = Name.from_text("1414.cachetest.nl.")
    rdata = AAAA.from_fields(PREFIX, *fields)
    response = make_response(
        make_query(qname, RRType.AAAA),
        answers=[ResourceRecord(qname, 60, rdata)],
    )
    decoded = from_wire(to_wire(response)).answers[0].rdata
    assert decoded.value == rdata.value
    assert decoded == rdata
    assert decoded.fields() == fields
    assert rdata.packed() == bytes.fromhex(
        "fd0f3897faf7a375" + f"{rdata.value & (2**64 - 1):016x}"
    )


def test_soa_key_includes_all_fields():
    base = SOA(OWNER, OWNER, 1)
    bumped = SOA(OWNER, OWNER, 2)
    assert base != bumped


def test_txt_chunk_length_limit():
    TXT(["x" * 255])
    with pytest.raises(ValueError):
        TXT(["x" * 256])


def test_ds_equality():
    assert DS(1, 8, 2, b"\x01\x02") == DS(1, 8, 2, b"\x01\x02")
    assert DS(1, 8, 2, b"\x01\x02") != DS(1, 8, 2, b"\x01\x03")


def test_resource_record_ttl_validation():
    with pytest.raises(ValueError):
        ResourceRecord(OWNER, -1, A("192.0.2.1"))
    with pytest.raises(ValueError):
        ResourceRecord(OWNER, 2**31, A("192.0.2.1"))


def test_with_ttl_copies():
    record = ResourceRecord(OWNER, 300, A("192.0.2.1"))
    copy = record.with_ttl(60)
    assert copy.ttl == 60
    assert record.ttl == 300
    assert copy.rdata is record.rdata


def test_record_rtype_derived_from_rdata():
    assert ResourceRecord(OWNER, 60, NS(OWNER)).rtype == RRType.NS
    assert ResourceRecord(OWNER, 60, CNAME(OWNER)).rtype == RRType.CNAME


def test_rrset_requires_uniform_key():
    a1 = ResourceRecord(OWNER, 60, A("192.0.2.1"))
    a2 = ResourceRecord(OWNER, 60, A("192.0.2.2"))
    RRset([a1, a2])
    other_name = ResourceRecord(Name.from_text("x.nl."), 60, A("192.0.2.3"))
    with pytest.raises(ValueError):
        RRset([a1, other_name])
    other_type = ResourceRecord(OWNER, 60, AAAA("2001:db8::1"))
    with pytest.raises(ValueError):
        RRset([a1, other_type])


def test_rrset_rejects_empty():
    with pytest.raises(ValueError):
        RRset([])


def test_rrset_ttl_is_minimum():
    records = [
        ResourceRecord(OWNER, 300, A("192.0.2.1")),
        ResourceRecord(OWNER, 60, A("192.0.2.2")),
    ]
    assert RRset(records).ttl == 60


def test_rrset_with_ttl_rewrites_all():
    records = [
        ResourceRecord(OWNER, 300, A("192.0.2.1")),
        ResourceRecord(OWNER, 60, A("192.0.2.2")),
    ]
    rewritten = RRset(records).with_ttl(10)
    assert all(record.ttl == 10 for record in rewritten)


def test_first_address_finds_a_and_aaaa():
    records = [
        ResourceRecord(OWNER, 60, NS(OWNER)),
        ResourceRecord(OWNER, 60, A("192.0.2.9")),
    ]
    assert first_address(records) == "192.0.2.9"
    assert first_address([records[0]]) is None
