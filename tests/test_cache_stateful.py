"""Stateful property test: DnsCache against a brute-force model.

Hypothesis drives random sequences of put/get/advance/flush against
both the real cache and a dictionary model that recomputes freshness
from first principles; any divergence in hit/miss behavior or returned
TTLs is a bug.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dnscore.name import Name
from repro.dnscore.records import A, ResourceRecord, RRset
from repro.dnscore.rrtypes import RRType
from repro.resolvers.cache import CacheConfig, DnsCache

NAMES = [Name.from_text(f"n{i}.test.") for i in range(5)]
MAX_TTL_CAP = 500


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = DnsCache(CacheConfig(max_ttl=MAX_TTL_CAP, stale_window=0.0))
        self.now = 0.0
        # name-index -> (insert_time, stored_ttl, address, authoritative)
        self.model = {}

    @rule(
        index=st.integers(0, len(NAMES) - 1),
        ttl=st.integers(0, 1000),
        octet=st.integers(1, 254),
        authoritative=st.booleans(),
    )
    def put(self, index, ttl, octet, authoritative):
        name = NAMES[index]
        rrset = RRset([ResourceRecord(name, ttl, A(f"192.0.2.{octet}"))])
        self.cache.put(rrset, self.now, authoritative=authoritative)
        stored = min(ttl, MAX_TTL_CAP)
        existing = self.model.get(index)
        blocked = (
            existing is not None
            and existing[3]
            and not authoritative
            and existing[0] + existing[1] > self.now
        )
        if not blocked:
            self.model[index] = (self.now, stored, octet, authoritative)

    @rule(index=st.integers(0, len(NAMES) - 1), require=st.booleans())
    def get(self, index, require):
        name = NAMES[index]
        actual = self.cache.get(
            name, RRType.A, self.now, require_authoritative=require
        )
        expected = self.model.get(index)
        if expected is not None:
            insert_time, stored, octet, authoritative = expected
            fresh = self.now < insert_time + stored
            visible = fresh and (authoritative or not require)
        else:
            visible = False
        if visible:
            assert actual is not None, f"model hit, cache miss for {name}"
            assert actual.records[0].rdata.address == f"192.0.2.{octet}"
            remaining = actual.ttl
            assert 0 <= remaining <= stored
            assert remaining <= insert_time + stored - self.now + 1
        else:
            # The cache may miss for credibility reasons even when a
            # non-authoritative fresh entry exists.
            if actual is not None:
                assert expected is not None
                insert_time, stored, octet, authoritative = expected
                assert self.now < insert_time + stored

    @rule(step=st.floats(min_value=0.0, max_value=300.0, allow_nan=False))
    def advance(self, step):
        self.now += step

    @rule()
    def flush(self):
        self.cache.flush()
        self.model.clear()

    @invariant()
    def size_is_bounded(self):
        assert len(self.cache) <= len(NAMES)


CacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestCacheStateful = CacheMachine.TestCase


class TwinReadMachine(RuleBasedStateMachine):
    """``get_stored`` and ``get`` over one operation sequence on twin caches.

    The no-copy read must keep the exact accounting of ``get``: the same
    hits and misses, the same LRU order, the same evictions. The small
    capacity forces evictions; the stale window keeps expired entries
    around so the expiry branch is exercised both ways.
    """

    def __init__(self):
        super().__init__()
        config = CacheConfig(max_entries=3, max_ttl=MAX_TTL_CAP, stale_window=50.0)
        self.copying = DnsCache(config)
        self.stored = DnsCache(config)
        self.now = 0.0

    @rule(
        index=st.integers(0, len(NAMES) - 1),
        ttl=st.integers(0, 1000),
        octet=st.integers(1, 254),
        authoritative=st.booleans(),
    )
    def put(self, index, ttl, octet, authoritative):
        rrset = RRset([ResourceRecord(NAMES[index], ttl, A(f"192.0.2.{octet}"))])
        self.copying.put(rrset, self.now, authoritative=authoritative)
        self.stored.put(rrset, self.now, authoritative=authoritative)

    @rule(index=st.integers(0, len(NAMES) - 1))
    def read(self, index):
        name = NAMES[index]
        copied = self.copying.get(name, RRType.A, self.now)
        stored = self.stored.get_stored(name, RRType.A, self.now)
        assert (copied is None) == (stored is None)
        if stored is not None:
            assert stored is self.stored.peek(name, RRType.A).rrset
            assert [r.rdata for r in stored] == [r.rdata for r in copied]

    @rule(step=st.floats(min_value=0.0, max_value=300.0, allow_nan=False))
    def advance(self, step):
        self.now += step

    @rule()
    def flush(self):
        self.copying.flush()
        self.stored.flush()

    @invariant()
    def accounting_is_identical(self):
        assert self.stored.stats() == self.copying.stats()
        assert list(self.stored._entries) == list(self.copying._entries)


TwinReadMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestGetStoredMatchesGet = TwinReadMachine.TestCase
