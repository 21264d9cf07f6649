"""Recursive resolver stack: caches, retries, iteration, forwarding.

The components compose the way real deployments do (paper §2.1, §3.5):

* :class:`~repro.resolvers.recursive.RecursiveResolver` — a full iterative
  resolver (an "Rn"): walks from the root hints, chases referrals, caches
  positives and negatives, retries with exponential backoff, optionally
  serves stale data when authoritatives are unreachable.
* :class:`~repro.resolvers.forwarder.ForwardingResolver` — a first-hop
  "R1" (home router / small ISP box) that forwards to one or more
  upstreams, with or without its own cache.
* :class:`~repro.resolvers.pool.PublicResolverPool` — a public anycast
  service: an ingress address load-balancing across backend recursives
  with independent (fragmented) caches.
* :class:`~repro.resolvers.stub.StubResolver` — the client stub with the
  Atlas 5-second timeout, writing one row per query into an
  :class:`~repro.resolvers.stub.AnswerLog`.
"""

from repro.resolvers.cache import CacheConfig, CacheEntry, DnsCache
from repro.resolvers.forwarder import ForwardingResolver
from repro.resolvers.negcache import NegativeCache
from repro.resolvers.pool import PublicResolverPool
from repro.resolvers.recursive import RecursiveResolver, ResolverConfig
from repro.resolvers.retry import RetryPolicy, bind_profile, unbound_profile
from repro.resolvers.selection import ServerSelector
from repro.resolvers.stub import AnswerLog, StubAnswer, StubResolver

__all__ = [
    "AnswerLog",
    "CacheConfig",
    "CacheEntry",
    "DnsCache",
    "ForwardingResolver",
    "NegativeCache",
    "PublicResolverPool",
    "RecursiveResolver",
    "ResolverConfig",
    "RetryPolicy",
    "ServerSelector",
    "StubAnswer",
    "StubResolver",
    "bind_profile",
    "unbound_profile",
]
