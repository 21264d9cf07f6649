"""Public resolver services and the address-role registry.

The paper classifies cache misses by matching the querying recursive
against a list of 96 public resolver addresses (Appendix C) and singling
out Google Public DNS. The simulation builds its public services
explicitly, so the registry records each address's role at construction
time; the classification code then replays the paper's method — "is this
R1/Rn on the public list? is it Google?" — against the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set


@dataclass
class PublicServiceSpec:
    """Shape of one public DNS service in the population."""

    key: str
    # Fraction of VPs that use this service as their first-hop resolver.
    vp_share: float
    backend_count: int
    balancing: str = "random"  # "random" | "sticky"
    sticky_rebalance: float = 0.05
    # Fraction of backends experimenting with serve-stale (§5.3: mostly
    # Google and OpenDNS at measurement time).
    serve_stale_fraction: float = 0.0
    # Cache TTL cap applied by the service's backends.
    max_ttl: int = 86400
    google_like: bool = False


def default_public_services() -> list[PublicServiceSpec]:
    """The public-resolver mix calibrated to Table 3.

    About half of all cache misses come via public first-hop resolvers,
    and three quarters of those via Google-like infrastructure; Google's
    heavy front-end fan-out is modeled with per-query random balancing
    over independent backend caches.
    """
    return [
        PublicServiceSpec(
            key="google",
            vp_share=0.21,
            backend_count=12,
            balancing="random",
            serve_stale_fraction=0.25,
            max_ttl=21600,
            google_like=True,
        ),
        PublicServiceSpec(
            key="opendns",
            vp_share=0.04,
            backend_count=5,
            balancing="random",
            serve_stale_fraction=1.0,
            max_ttl=43200,
        ),
        PublicServiceSpec(
            key="quad9",
            vp_share=0.03,
            backend_count=4,
            balancing="sticky",
            sticky_rebalance=0.15,
            max_ttl=86400,
        ),
        PublicServiceSpec(
            key="other-public",
            vp_share=0.02,
            backend_count=2,
            balancing="sticky",
            sticky_rebalance=0.10,
            max_ttl=86400,
        ),
    ]


class ResolverRegistry:
    """Role bookkeeping for every resolver address in a scenario."""

    R1_KINDS = ("isp", "cluster", "forwarder", "public")

    def __init__(self) -> None:
        self._public_ingress: Set[str] = set()
        self._google_addresses: Set[str] = set()
        self._public_backends: Set[str] = set()
        self._kind_of: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration (population builder calls these)
    # ------------------------------------------------------------------
    def register_public_ingress(self, address: str, google: bool) -> None:
        self._public_ingress.add(address)
        self._kind_of[address] = "public"
        if google:
            self._google_addresses.add(address)

    def register_public_backend(self, address: str, google: bool) -> None:
        self._public_backends.add(address)
        self._kind_of[address] = "public-backend"
        if google:
            self._google_addresses.add(address)

    def register_recursive(self, address: str, kind: str) -> None:
        if kind not in ("isp", "cluster", "cluster-backend", "forwarder"):
            raise ValueError(f"unknown recursive kind {kind!r}")
        self._kind_of[address] = kind

    # ------------------------------------------------------------------
    # Queries (classification code calls these)
    # ------------------------------------------------------------------
    def is_public(self, address: str) -> bool:
        """Would this address appear on the paper's public-resolver list?
        Ingress addresses are what clients configure, so only those are
        'on the list'; backend egress addresses are detected separately."""
        return address in self._public_ingress

    def is_public_egress(self, address: str) -> bool:
        return address in self._public_backends

    def is_google(self, address: str) -> bool:
        return address in self._google_addresses

    def kind_of(self, address: str) -> Optional[str]:
        return self._kind_of.get(address)
