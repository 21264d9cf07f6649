"""The positive DNS cache: TTL-bounded RRset storage with caps and LRU.

Models the cache behaviors the paper measures (§3.1):

* full-TTL honoring (the default),
* TTL caps — ``max_ttl`` (Unbound defaults to 1 day, BIND to 1 week, some
  cloud resolvers cap at 60 s) and ``min_ttl`` overrides,
* limited size with LRU eviction,
* explicit flushes (operator action / restarts),
* stale retention beyond expiry for serve-stale resolvers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dnscore.name import Name
from repro.dnscore.records import RRset
from repro.dnscore.rrtypes import RRType

CacheKey = Tuple[Name, RRType]


@dataclass
class CacheConfig:
    """Knobs for one cache instance."""

    max_entries: int = 100_000
    min_ttl: int = 0
    max_ttl: int = 7 * 86400  # BIND's default cap of one week
    # How long after expiry an entry remains usable for serve-stale.
    stale_window: float = 0.0

    def effective_ttl(self, ttl: int) -> int:
        """Apply the min/max caps to an incoming TTL."""
        return max(self.min_ttl, min(ttl, self.max_ttl))


class CacheEntry:
    """One cached RRset with bookkeeping.

    ``authoritative`` implements the RFC 2181 §5.4.1 credibility ranking
    the paper's Appendix A probes: data from authoritative answers ranks
    above referral/glue data; glue may steer iteration but (for most
    resolvers) is not served to clients, and never overwrites
    authoritative data that is still fresh.
    """

    __slots__ = (
        "rrset",
        "inserted_at",
        "expires_at",
        "original_ttl",
        "stored_ttl",
        "authoritative",
    )

    def __init__(
        self,
        rrset: RRset,
        inserted_at: float,
        stored_ttl: int,
        authoritative: bool = True,
    ) -> None:
        self.rrset = rrset
        self.inserted_at = inserted_at
        self.stored_ttl = stored_ttl
        self.original_ttl = rrset.ttl
        self.expires_at = inserted_at + stored_ttl
        self.authoritative = authoritative

    def remaining_ttl(self, now: float) -> int:
        """Whole seconds left before expiry (floor, min 0)."""
        return max(0, int(self.expires_at - now))

    def is_fresh(self, now: float) -> bool:
        return now < self.expires_at

    def is_usable_stale(self, now: float, window: float) -> bool:
        return self.expires_at <= now < self.expires_at + window


class DnsCache:
    """An RRset cache keyed by (name, type)."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.evictions = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put(
        self, rrset: RRset, now: float, authoritative: bool = True
    ) -> CacheEntry:
        """Insert the RRset, applying TTL caps and credibility ranking.

        Lower-credibility data (glue) never replaces fresh authoritative
        data; the existing entry is returned unchanged in that case.
        """
        key = (rrset.name, rrset.rtype)
        existing = self._entries.get(key)
        if (
            existing is not None
            and existing.authoritative
            and not authoritative
            and existing.is_fresh(now)
        ):
            return existing
        stored_ttl = self.config.effective_ttl(rrset.ttl)
        entry = CacheEntry(rrset, now, stored_ttl, authoritative=authoritative)
        if existing is not None:
            del self._entries[key]
        self._entries[key] = entry
        self._evict_if_needed()
        return entry

    def _evict_if_needed(self) -> None:
        while len(self._entries) > self.config.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def flush(self) -> None:
        """Drop everything (restart / operator flush)."""
        self._entries.clear()
        self.flushes += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(
        self,
        name: Name,
        rtype: RRType,
        now: float,
        require_authoritative: bool = False,
    ) -> Optional[RRset]:
        """Fresh lookup: the RRset with decremented TTL, or None.

        With ``require_authoritative`` only answer-credibility data is
        returned (what a resolver may serve to clients); without it,
        glue-credibility data is visible too (what a resolver may use to
        steer iteration). Expired entries are kept if a stale window is
        configured (they may still satisfy :meth:`get_stale`), otherwise
        dropped.
        """
        entry = self._fresh_entry(name, rtype, now, require_authoritative)
        if entry is None:
            return None
        return entry.rrset.with_ttl(entry.remaining_ttl(now))

    def get_stored(self, name: Name, rtype: RRType, now: float) -> Optional[RRset]:
        """:meth:`get` without the copy (same hit/miss/LRU accounting): the
        stored RRset, TTLs as inserted — read it, never serve or mutate it."""
        entry = self._fresh_entry(name, rtype, now, False)
        return None if entry is None else entry.rrset

    def _fresh_entry(
        self, name: Name, rtype: RRType, now: float, require_authoritative: bool
    ) -> Optional[CacheEntry]:
        key = (name, rtype)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not entry.is_fresh(now):
            if self.config.stale_window <= 0:
                del self._entries[key]
            self.misses += 1
            return None
        if require_authoritative and not entry.authoritative:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, name: Name, rtype: RRType) -> Optional[CacheEntry]:
        """Entry regardless of freshness; no statistics, no LRU touch."""
        return self._entries.get((name, rtype))

    def get_stale(self, name: Name, rtype: RRType, now: float) -> Optional[RRset]:
        """Serve-stale lookup: an expired-but-in-window RRset with TTL 0.

        The draft the paper cites ([19], now RFC 8767) specifies serving
        stale data with TTL 0 when authoritatives are unreachable; the
        paper observed exactly that (1031 of 1048 stale answers had
        TTL 0, §5.3).
        """
        entry = self._entries.get((name, rtype))
        if entry is None:
            return None
        if not entry.is_usable_stale(now, self.config.stale_window):
            return None
        self.stale_hits += 1
        return entry.rrset.with_ttl(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains_fresh(self, name: Name, rtype: RRType, now: float) -> bool:
        entry = self._entries.get((name, rtype))
        return entry is not None and entry.is_fresh(now)

    def dump(self, now: float) -> list:
        """Cache-dump rows like ``rndc dumpdb`` / ``unbound-control``:
        (name, rtype, remaining TTL, authoritative) for fresh entries."""
        rows = []
        for (name, rtype), entry in self._entries.items():
            if entry.is_fresh(now):
                rows.append(
                    (name, rtype, entry.remaining_ttl(now), entry.authoritative)
                )
        return rows

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stale_hits": self.stale_hits,
            "evictions": self.evictions,
            "flushes": self.flushes,
        }
