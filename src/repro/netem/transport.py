"""Datagram transport over the simulator: the emulated UDP fabric.

Every registered address owns a receive handler. :meth:`Network.send`
applies baseline loss, the attack schedule's inbound loss at the
destination, resolves anycast catchments, and schedules delivery after
the latency model's one-way delay. Messages travel as objects; the RFC
1035 codec (:mod:`repro.dnscore.wire`) sizes responses for truncation
but is not run per packet.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.dnscore.message import Message
from repro.netem.attack import AttackSchedule
from repro.netem.link import ConstantLatency, LatencyModel
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import Simulator

ReceiveHandler = Callable[["Packet"], None]


class Packet:
    """One datagram (or TCP segment stream) in flight."""

    __slots__ = ("src", "dst", "message", "sent_at", "transport")

    def __init__(
        self,
        src: str,
        dst: str,
        message: Message,
        sent_at: float,
        transport: str = "udp",
    ) -> None:
        self.src = src
        self.dst = dst
        self.message = message
        self.sent_at = sent_at
        self.transport = transport

    def __repr__(self) -> str:
        return (
            f"<Packet {self.src} -> {self.dst} [{self.transport}] "
            f"{self.message!r}>"
        )


class NetworkCounters:
    """Aggregate transport statistics, exposed for tests and benches."""

    __slots__ = ("sent", "delivered", "dropped_attack", "dropped_baseline")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_attack = 0
        self.dropped_baseline = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_attack": self.dropped_attack,
            "dropped_baseline": self.dropped_baseline,
        }


class Network:
    """The emulated datagram network."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        latency: Optional[LatencyModel] = None,
        attacks: Optional[AttackSchedule] = None,
        baseline_loss: float = 0.0,
        tracer=None,
    ) -> None:
        if not 0.0 <= baseline_loss < 1.0:
            raise ValueError(f"baseline loss out of range: {baseline_loss}")
        self.sim = sim
        self._trace = tracer
        self.latency = latency or ConstantLatency()
        self.attacks = attacks or AttackSchedule()
        self.baseline_loss = baseline_loss
        self.counters = NetworkCounters()
        self._handlers: Dict[str, ReceiveHandler] = {}
        self._anycast: Dict[str, List[str]] = {}
        # (src, anycast address) -> instance; cleared when a group changes.
        self._catchments: Dict[Tuple[str, str], str] = {}
        self._taps: Dict[str, List[ReceiveHandler]] = {}
        self._loss_rng = streams.stream("net.loss")
        self._latency_rng = streams.stream("net.latency")
        self._anycast_rng = streams.stream("net.anycast")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, address: str, handler: ReceiveHandler) -> None:
        """Bind ``handler`` to ``address``; one handler per address."""
        if address in self._handlers:
            raise ValueError(f"address {address} already registered")
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        self._handlers.pop(address, None)

    def register_anycast(self, address: str, instances: List[str]) -> None:
        """Declare ``address`` as anycast over already-registered
        ``instances``. Catchment is stable per source (hash-based)."""
        self._set_anycast(address, instances)

    def update_anycast(self, address: str, instances: List[str]) -> None:
        """Change an anycast group's live instances (route withdrawal /
        re-announcement). Catchments re-hash over the new set — the BGP
        shift the root operators performed during the 2015 events."""
        if address not in self._anycast:
            raise ValueError(f"{address} is not an anycast group")
        self._set_anycast(address, instances)

    def _set_anycast(self, address: str, instances: List[str]) -> None:
        if not instances:
            raise ValueError("anycast group needs at least one instance")
        for instance in instances:
            if instance not in self._handlers:
                raise ValueError(f"anycast instance {instance} not registered")
        self._anycast[address] = list(instances)
        self._catchments.clear()

    def anycast_catchment(self, src: str, address: str) -> str:
        """Which instance ``src`` currently lands on (for analysis)."""
        if address not in self._anycast:
            raise ValueError(f"{address} is not an anycast group")
        return self._resolve_instance(src, address)

    def register_tap(self, address: str, tap: ReceiveHandler) -> None:
        """Observe every packet *offered* to ``address``, before loss.

        This is the paper's tcpdump-in-front-of-iptables vantage: Figure
        10's offered-load series counts queries before the attack drops
        them. Multiple taps per address are allowed.
        """
        self._taps.setdefault(address, []).append(tap)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _resolve_instance(self, src: str, dst: str) -> str:
        instance = self._catchments.get((src, dst))
        if instance is None:
            # Stable catchment: the same source always lands on the same
            # instance, as BGP catchments are stable in practice (§2.2).
            # crc32 rather than hash() so runs are reproducible regardless
            # of PYTHONHASHSEED.
            instances = self._anycast[dst]
            index = zlib.crc32(f"{src}|{dst}".encode("ascii")) % len(instances)
            instance = self._catchments[(src, dst)] = instances[index]
        return instance

    def send(
        self, src: str, dst: str, message: Message, transport: str = "udp"
    ) -> bool:
        """Inject a packet. Returns True if delivery was scheduled.

        The attack schedule is evaluated against the *anycast instance*
        that actually receives the packet, and at (send time + latency),
        approximating arrival-time filtering at the last-hop router.

        ``transport="tcp"`` models a DNS-over-TCP exchange: the message
        arrives one extra round trip later (handshake), and the loss
        gauntlet is run twice (SYN and data segment both cross the
        congested inbound path).
        """
        tcp = transport == "tcp"
        if not tcp and transport != "udp":
            raise ValueError(f"unknown transport {transport!r}")
        counters = self.counters
        counters.sent += 1
        now = self.sim.now
        instance = self._resolve_instance(src, dst) if dst in self._anycast else dst
        packet = Packet(src, dst, message, now, transport)
        taps = self._taps.get(instance)
        if taps:
            for tap in taps:
                tap(packet)
        handler = self._handlers.get(instance)
        if handler is None:
            # Unroutable destinations silently blackhole, like real UDP.
            counters.dropped_baseline += 1
            return False

        loss_trials = 2 if tcp else 1
        for _ in range(loss_trials):
            if self.baseline_loss and self._loss_rng.random() < self.baseline_loss:
                counters.dropped_baseline += 1
                return self._dropped(message, "drop_baseline", src, dst)

        delay = self.latency.one_way(src, instance, self._latency_rng)
        if tcp:
            delay *= 3
        arrival = now + delay
        attack_loss = self.attacks.inbound_loss(instance, arrival)
        for _ in range(loss_trials):
            if attack_loss and self._loss_rng.random() < attack_loss:
                counters.dropped_attack += 1
                return self._dropped(message, "drop_attack", src, instance)
        # Survivors of an attack with queueing modeled wait in the
        # target's full buffers (paper §5.1's future-work extension).
        queue_mean = self.attacks.inbound_queue_delay(instance, arrival)
        if queue_mean > 0:
            delay += self._latency_rng.expovariate(1.0 / queue_mean)

        self.sim.call_later(delay, self._deliver, handler, packet)
        return True

    def _dropped(self, message: Message, kind: str, src: str, dst: str) -> bool:
        """Trace a dropped packet (if traced); always False, ``send``'s result."""
        if self._trace is not None and message.trace_id is not None:
            self._trace.emit(message.trace_id, kind, "net", detail=f"{src}->{dst}")
        return False

    def _deliver(self, handler: ReceiveHandler, packet: Packet) -> None:
        self.counters.delivered += 1
        handler(packet)
