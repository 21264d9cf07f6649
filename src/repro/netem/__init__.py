"""Network emulation: addresses, latency/loss, DDoS schedules, transport.

The emulated network is a star: any registered address can send a datagram
to any other. Each packet independently suffers (a) baseline loss, (b)
attack loss if the destination is under a scheduled DDoS window — the same
random inbound drop the paper applies with iptables — and (c) one-way
latency from the latency model. Anycast addresses fan out to per-source
catchment instances.
"""

from repro.netem.address import AddressAllocator
from repro.netem.attack import AttackSchedule, AttackWindow
from repro.netem.link import (
    ConstantLatency,
    LatencyModel,
    PerHostLatency,
)
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet

__all__ = [
    "AddressAllocator",
    "AttackSchedule",
    "AttackWindow",
    "ConstantLatency",
    "Host",
    "LatencyModel",
    "Network",
    "Packet",
    "PerHostLatency",
]
