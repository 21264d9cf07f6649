"""The full iterative recursive resolver ("Rn" in the paper's Figure 1).

The resolver walks the zone tree from the root hints, follows referrals,
caches positive and negative answers with credibility ranking, retries
unresponsive servers with exponential backoff, optionally chases
nameserver A/AAAA records like Unbound, re-queries parents on failure like
BIND, and can serve stale data when every authoritative is unreachable.

All of the paper's server-side phenomena (Figures 10–12, 16) emerge from
these mechanisms: retry amplification, AAAA-for-NS chatter against a
60-second negative TTL, parent re-querying, and delegation re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dnscore.message import Message, make_query, make_response
from repro.dnscore.name import Name
from repro.dnscore.records import CNAME, NS, ResourceRecord, RRset
from repro.dnscore.rrtypes import Rcode, RRType
from repro.fsm import resolution as fsm
from repro.fsm.resolution import COMPILED_RESOLUTION
from repro.netem.topology import Host
from repro.netem.transport import Network, Packet
from repro.resolvers.cache import CacheConfig, DnsCache
from repro.resolvers.negcache import NegativeCache
from repro.resolvers.retry import RetryPolicy, bind_profile, unbound_profile
from repro.resolvers.selection import ServerSelector
from repro.simcore.simulator import Simulator

OutcomeCallback = Callable[["Outcome"], None]

DEFAULT_NEGATIVE_TTL = 900


@dataclass
class ResolverConfig:
    """Behavioral knobs for one recursive resolver."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    retry: RetryPolicy = field(default_factory=bind_profile)
    # Serve expired entries (TTL 0) when all authoritatives fail.
    serve_stale: bool = False
    # RFC 8767's client-response timer: if a resolution with usable stale
    # data has not completed after this long, answer stale immediately
    # (real deployments use ~1.8 s, well inside the stub's 5 s timeout).
    stale_client_timeout: float = 1.8
    # Prefetch ("hammer time"): on a cache hit whose remaining TTL has
    # dropped below ``prefetch_trigger`` of the stored TTL, refresh the
    # entry in the background so popular names never expire. Unbound's
    # prefetch and BIND's prefetch option behave this way; off by
    # default to match the paper's measured population.
    prefetch: bool = False
    prefetch_trigger: float = 0.1
    # EDNS0 payload size advertised on upstream queries (None = plain
    # DNS, 512-byte responses; 1232 is the flag-day recommendation).
    edns_payload: Optional[int] = None
    # How long a failed resolution is remembered and answered SERVFAIL
    # without retrying upstream (BIND's servfail-ttl defaults to 1 s,
    # Unbound caches failures for ~5 s). Caps the retry storm a looping
    # client can trigger. 0 disables.
    servfail_cache_ttl: float = 1.0
    # Answer clients from referral/glue-credibility data (RFC 2181
    # violation a small minority of resolvers exhibit; paper Appendix A).
    serve_glue_answers: bool = False
    # Resolve addresses of NS targets that came without glue.
    chase_ns_addresses: bool = True
    # Also chase AAAA for NS names (Unbound-like; drives the paper's
    # AAAA-for-NS traffic in Figure 10).
    chase_ns_aaaa: bool = False
    # Re-query the delegation (NS and A-for-NS) authoritatively at the
    # child instead of trusting glue (harden-glue behavior).
    requery_delegation: bool = False
    max_cname_depth: int = 8
    max_subresolution_depth: int = 3

    @classmethod
    def for_software(cls, software: str) -> "ResolverConfig":
        """The ``"bind"`` or ``"unbound"`` personality of Appendix E.

        BIND keeps the defaults (one-week TTL cap, re-asks parents);
        Unbound retries faster and longer, chases AAAA for NS names,
        re-validates delegations at the child and caps TTLs at one day.
        """
        if software == "bind":
            return cls(retry=bind_profile())
        if software == "unbound":
            return cls(
                cache=CacheConfig(max_ttl=86400),
                retry=unbound_profile(),
                chase_ns_aaaa=True,
                requery_delegation=True,
            )
        raise ValueError(f"unknown software {software!r}")


class Outcome:
    """Result of one resolution, delivered to callbacks."""

    __slots__ = ("status", "records", "from_cache", "stale", "rcode")

    OK = "ok"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    SERVFAIL = "servfail"

    def __init__(
        self,
        status: str,
        records: Optional[List[ResourceRecord]] = None,
        from_cache: bool = False,
        stale: bool = False,
    ) -> None:
        self.status = status
        self.records = records or []
        self.from_cache = from_cache
        self.stale = stale
        if status == Outcome.OK:
            self.rcode = Rcode.NOERROR
        elif status == Outcome.NXDOMAIN:
            self.rcode = Rcode.NXDOMAIN
        elif status == Outcome.NODATA:
            self.rcode = Rcode.NOERROR
        else:
            self.rcode = Rcode.SERVFAIL

    @property
    def is_success(self) -> bool:
        return self.status == Outcome.OK

    def __repr__(self) -> str:
        flags = []
        if self.from_cache:
            flags.append("cache")
        if self.stale:
            flags.append("stale")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"<Outcome {self.status} x{len(self.records)}{suffix}>"


class _PendingQuery:
    """One outstanding upstream query awaiting response or timeout."""

    __slots__ = ("task", "server", "timer", "sent_at")

    def __init__(self, task: "_ResolutionTask", server: str, timer, sent_at: float) -> None:
        self.task = task
        self.server = server
        self.timer = timer
        self.sent_at = sent_at


class RecursiveResolver(Host):
    """An iterative resolver with cache, retries, and client service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        root_hints: Sequence[str],
        config: Optional[ResolverConfig] = None,
        name: str = "",
        rng=None,
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(sim, network, address, name=name)
        if not root_hints:
            raise ValueError("a resolver needs at least one root hint")
        self.config = config or ResolverConfig()
        if self.config.serve_stale and self.config.cache.stale_window <= 0:
            # Serve-stale implies retaining entries past expiry.
            self.config.cache.stale_window = 3 * 3600.0
        self.root_hints = list(root_hints)
        self.cache = DnsCache(self.config.cache)
        self.negcache = NegativeCache()
        if rng is None:
            # Test-only fallback: real wiring (build_population) always
            # passes a stream-derived rng. Deriving from a named stream
            # keyed by address keeps rng-less resolvers deterministic
            # *and* mutually independent, where a shared Random(0) would
            # correlate every one of them.
            from repro.simcore.rng import RandomStreams

            rng = RandomStreams(0).stream(f"resolver:{address}")
        self.selector = ServerSelector(rng)
        self._tasks: Dict[Tuple[Name, RRType], _ResolutionTask] = {}
        self._pending: Dict[int, _PendingQuery] = {}
        # (qname, qtype) -> expiry of a recent SERVFAIL outcome.
        self._servfail_cache: Dict[Tuple[Name, RRType], float] = {}
        # Statistics
        self.client_queries = 0
        self.client_responses = 0
        self.upstream_queries = 0
        self.upstream_timeouts = 0
        self.upstream_responses = 0
        self.prefetches = 0
        self.tcp_fallbacks = 0
        # Observability sinks, resolved once at wiring time (None = off).
        # Instruments are shared across the Rn layer: the registry
        # get-or-creates by name, so every resolver updates the same
        # aggregate counters while per-instance stats stay above.
        self._trace = tracer
        self._metrics = metrics
        if metrics is not None:
            self._m_client = metrics.counter("recursive.client_queries")
            self._m_cache_hits = metrics.counter("recursive.cache_hits")
            self._m_cache_misses = metrics.counter("recursive.cache_misses")
            self._m_negcache_hits = metrics.counter("recursive.negcache_hits")
            self._m_upstream = metrics.counter("recursive.upstream_queries")
            self._m_timeouts = metrics.counter("recursive.upstream_timeouts")
            self._m_inflight = metrics.gauge("recursive.inflight_tasks")
            self._m_sends = metrics.histogram(
                "recursive.sends_per_resolution", (1, 2, 4, 8, 16, 32)
            )
            # TC→TCP retries: the escape hatch that keeps SLIP'd (RRL)
            # and oversized-UDP clients alive; the defense study reads
            # this to show RRL degrading legit traffic to TCP, not dark.
            self._m_tcp_fallbacks = metrics.counter("recursive.tcp_fallbacks")

    # ------------------------------------------------------------------
    # Network entry points
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        if packet.message.qr:
            self._on_upstream_response(packet)
        else:
            self._on_client_query(packet)

    def _on_client_query(self, packet: Packet) -> None:
        message = packet.message
        if message.question is None:
            return
        self.client_queries += 1
        if self._metrics is not None:
            self._m_client.value += 1
        client = packet.src

        def deliver(outcome: Outcome) -> None:
            response = make_response(
                message,
                rcode=outcome.rcode,
                ra=True,
                answers=outcome.records,
            )
            response.trace_id = message.trace_id
            self.client_responses += 1
            self.send(client, response)

        self.resolve(
            message.question.qname,
            message.question.qtype,
            deliver,
            trace_id=message.trace_id,
        )

    def _on_upstream_response(self, packet: Packet) -> None:
        pending = self._pending.pop(packet.message.msg_id, None)
        if pending is None:
            return  # late or unsolicited
        pending.timer.cancel()
        self.upstream_responses += 1
        self.selector.observe_rtt(pending.server, self.sim.now - pending.sent_at)
        if pending.task.done:
            return
        if packet.message.tc and packet.transport == "udp":
            # Truncated UDP answer: repeat the query over TCP (RFC 7766).
            self.tcp_fallbacks += 1
            if self._metrics is not None:
                self._m_tcp_fallbacks.value += 1
            timeout = self.config.retry.timeout_for_attempt(0) * 3
            self.send_upstream(
                pending.task, pending.server, timeout, transport="tcp"
            )
            return
        pending.task.handle_response(packet.message, pending.server)

    # ------------------------------------------------------------------
    # Resolution API
    # ------------------------------------------------------------------
    def resolve(
        self,
        qname: Name,
        qtype: RRType,
        callback: OutcomeCallback,
        depth: int = 0,
        require_authoritative: Optional[bool] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        """Resolve (qname, qtype); ``callback`` fires exactly once.

        Identical in-flight questions are coalesced onto one task, the
        way production resolvers deduplicate client queries.

        ``require_authoritative`` controls whether glue-credibility cache
        entries may satisfy the query. Client queries (depth 0) default to
        requiring answer credibility unless the resolver is configured to
        serve glue; internal iteration helpers (depth > 0) accept glue;
        delegation re-validation passes True explicitly.

        ``trace_id`` joins the resolution to a traced stub lifecycle. A
        task carries the trace of the query that started it; queries that
        coalesce onto an existing task emit one ``coalesced`` span and
        then share the task's fate (their own chain still terminates at
        the stub).
        """
        if require_authoritative is None:
            require_authoritative = (
                depth == 0 and not self.config.serve_glue_answers
            )
        failed_until = self._servfail_cache.get((qname, qtype))
        if failed_until is not None:
            if self.sim.now < failed_until:
                if self._trace is not None and trace_id is not None:
                    self._trace.emit(trace_id, "servfail_cached", self.name)
                callback(Outcome(Outcome.SERVFAIL, from_cache=True))
                return
            del self._servfail_cache[(qname, qtype)]
        key = (qname, qtype, require_authoritative)
        task = self._tasks.get(key)
        if task is not None and not task.done:
            if self._trace is not None and trace_id is not None:
                self._trace.emit(
                    trace_id,
                    "coalesced",
                    self.name,
                    detail=f"{qname} {qtype.name}",
                )
            task.add_callback(callback)
            return
        task = _ResolutionTask(
            self, qname, qtype, depth, require_authoritative
        )
        task.registry_key = key
        task.trace_id = trace_id
        self._tasks[key] = task
        task.add_callback(callback)
        task.start()

    def prefetch(self, qname: Name, qtype: RRType) -> bool:
        """Refresh (qname, qtype) in the background, bypassing the cache.

        Returns False if a prefetch for the question is already running.
        """
        key = (qname, qtype, "prefetch")
        task = self._tasks.get(key)
        if task is not None and not task.done:
            return False
        task = _ResolutionTask(self, qname, qtype, 0, True)
        task.skip_cache = True
        task.registry_key = key
        self._tasks[key] = task
        self.prefetches += 1
        task.add_callback(lambda outcome: None)
        task.start()
        return True

    # ------------------------------------------------------------------
    # Hooks used by tasks
    # ------------------------------------------------------------------
    def send_upstream(
        self,
        task: "_ResolutionTask",
        server: str,
        timeout: float,
        transport: str = "udp",
    ) -> None:
        message = make_query(
            task.qname,
            task.qtype,
            rd=False,
            edns_payload=self.config.edns_payload,
        )
        timer = self.sim.call_later(timeout, self._on_upstream_timeout, message.msg_id)
        trace_id = task.trace_id
        if self._trace is not None and trace_id is not None:
            message.trace_id = trace_id
            # Timers abandoned on response emit `cancelled` terminators
            # via Event.cancel() instead of leaking open retry spans.
            timer.span = (self._trace, trace_id, self.name)
            kind = (
                "retry"
                if task.round_active and task.round_attempt > 1
                else "send"
            )
            self._trace.emit(
                trace_id,
                kind,
                self.name,
                detail=(
                    f"server={server} {task.qname} {task.qtype.name}"
                    + (f" {transport}" if transport != "udp" else "")
                ),
            )
        task.sends += 1
        self._pending[message.msg_id] = _PendingQuery(task, server, timer, self.sim.now)
        task.pending_ids.add(message.msg_id)
        self.upstream_queries += 1
        if self._metrics is not None:
            self._m_upstream.value += 1
        self.send(server, message, transport)

    def _on_upstream_timeout(self, msg_id: int) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is None:
            return
        self.upstream_timeouts += 1
        if self._metrics is not None:
            self._m_timeouts.value += 1
        self.selector.observe_timeout(pending.server)
        if not pending.task.done:
            task = pending.task
            if self._trace is not None and task.trace_id is not None:
                self._trace.emit(
                    task.trace_id,
                    "timeout",
                    self.name,
                    detail=f"server={pending.server}",
                )
            task.handle_timeout()

    def cancel_task_queries(self, task: "_ResolutionTask") -> None:
        for msg_id in task.pending_ids:
            pending = self._pending.pop(msg_id, None)
            if pending is not None:
                pending.timer.cancel()
        task.pending_ids.clear()

    def task_finished(self, task: "_ResolutionTask") -> None:
        self.cancel_task_queries(task)
        if self._tasks.get(task.registry_key) is task:
            del self._tasks[task.registry_key]

    def on_delegation_learned(
        self, cut: Name, ns_targets: Sequence[Name], depth: int
    ) -> None:
        """Kick off delegation-chasing sub-resolutions (Unbound-style)."""
        if depth >= self.config.max_subresolution_depth:
            return
        now = self.sim.now
        ignore = lambda outcome: None  # noqa: E731 - fire-and-forget
        if self.config.requery_delegation:
            ns_entry = self.cache.peek(cut, RRType.NS)
            if ns_entry is not None and not ns_entry.authoritative:
                self.resolve(
                    cut,
                    RRType.NS,
                    ignore,
                    depth=depth + 1,
                    require_authoritative=True,
                )
        for target in ns_targets:
            # Only in-bailiwick nameservers are chased: the child zone can
            # answer for them authoritatively (Unbound's behavior against
            # the paper's testbed, Appendix E).
            if not target.is_subdomain_of(cut):
                continue
            if self.config.requery_delegation:
                a_entry = self.cache.peek(target, RRType.A)
                if a_entry is None or not a_entry.authoritative:
                    if self.negcache.get(target, RRType.A, now) is None:
                        self.resolve(
                            target,
                            RRType.A,
                            ignore,
                            depth=depth + 1,
                            require_authoritative=True,
                        )
            if self.config.chase_ns_aaaa:
                if (
                    not self.cache.contains_fresh(target, RRType.AAAA, now)
                    and self.negcache.get(target, RRType.AAAA, now) is None
                ):
                    self.resolve(target, RRType.AAAA, ignore, depth=depth + 1)

    def remember_servfail(self, qname: Name, qtype: RRType) -> None:
        """Record a failed resolution for the servfail-cache window."""
        ttl = self.config.servfail_cache_ttl
        if ttl > 0:
            self._servfail_cache[(qname, qtype)] = self.sim.now + ttl

    def flush_caches(self) -> None:
        """Drop all cached state (models restart / operator flush)."""
        self.cache.flush()
        self.negcache.flush()
        self._servfail_cache.clear()

    def stats(self) -> dict:
        return {
            "client_queries": self.client_queries,
            "client_responses": self.client_responses,
            "upstream_queries": self.upstream_queries,
            "upstream_responses": self.upstream_responses,
            "upstream_timeouts": self.upstream_timeouts,
            "cache": self.cache.stats(),
        }


class _ResolutionTask:
    """One (qname, qtype) resolution, driven by the table-driven FSM.

    The control flow lives in :data:`repro.fsm.resolution
    .RESOLUTION_MACHINE` — states × events → guarded transitions — and
    ``repro verify`` model-checks that table statically. The methods
    here are the transition *actions* (and event classifiers feeding
    the driver); they never change ``fsm_state`` themselves, which the
    ``fsm-discipline`` lint rule enforces.
    """

    __slots__ = (
        "r",
        "qname",
        "qtype",
        "depth",
        "require_authoritative",
        "skip_cache",
        "registry_key",
        "callbacks",
        "done",
        "fsm_state",
        "event_payload",
        "trace_id",
        "sends",
        "first_step",
        "started_at",
        "deadline",
        "hard_deadline",
        "cname_depth",
        "pending_ids",
        "current_cut",
        "round_servers",
        "round_attempt",
        "round_budget",
        "round_active",
        "requeried_cuts",
        "skip_cut_once",
        "subresolutions",
        "sub_failures",
        "sub_targets_tried",
    )

    def __init__(
        self,
        resolver: RecursiveResolver,
        qname: Name,
        qtype: RRType,
        depth: int,
        require_authoritative: bool = False,
    ) -> None:
        self.r = resolver
        self.qname = qname
        self.qtype = qtype
        self.depth = depth
        self.require_authoritative = require_authoritative
        # Prefetch tasks bypass the answer cache; the registry key keeps
        # them distinct from (and deduplicated like) ordinary tasks.
        self.skip_cache = False
        self.registry_key: tuple = (qname, qtype, require_authoritative)
        self.callbacks: List[OutcomeCallback] = []
        self.done = False
        self.event_payload: Any = None
        COMPILED_RESOLUTION.begin(self)
        # Observability: the owning trace (None untraced), total upstream
        # sends for the sends-per-resolution histogram, and a first-pass
        # flag so cache hit/miss counts once per task, not per iteration.
        self.trace_id: Optional[int] = None
        self.sends = 0
        self.first_step = True
        self.started_at = resolver.sim.now
        policy = resolver.config.retry
        self.deadline = self.started_at + policy.resolution_deadline
        # The post-failure parent re-query (BIND) may run past the soft
        # deadline, but never past this hard stop.
        self.hard_deadline = self.started_at + policy.resolution_deadline * 1.6
        self.cname_depth = 0
        self.pending_ids: Set[int] = set()
        # Per-round query state
        self.current_cut: Optional[Name] = None
        self.round_servers: List[str] = []
        self.round_attempt = 0
        self.round_budget = 0
        self.round_active = False
        # Failure-path bookkeeping
        self.requeried_cuts: Set[Name] = set()
        self.skip_cut_once: Optional[Name] = None
        self.subresolutions = 0
        self.sub_failures = 0
        self.sub_targets_tried: Set[Name] = set()

    # ------------------------------------------------------------------
    def add_callback(self, callback: OutcomeCallback) -> None:
        self.callbacks.append(callback)

    def _dispatch(self, event: str, payload: Any = None) -> None:
        COMPILED_RESOLUTION.dispatch(self, event, payload)

    def start(self) -> None:
        if self.r._metrics is not None:
            self.r._m_inflight.inc()
        # RFC 8767 client-response timer: when stale data is on hand, an
        # unresponsive resolution answers stale quickly rather than making
        # the client wait out the full retry schedule.
        if self.r.config.serve_stale:
            entry = self.r.cache.peek(self.qname, self.qtype)
            if entry is not None and entry.is_usable_stale(
                self.r.sim.now, self.r.config.cache.stale_window
            ):
                self.r.sim.call_later(
                    self.r.config.stale_client_timeout, self._stale_timer
                )
        self._dispatch(fsm.BEGIN)

    def _maybe_prefetch(self, now: float) -> None:
        """Kick a background refresh when the hit entry is near expiry."""
        config = self.r.config
        if not config.prefetch or self.depth > 0:
            return
        entry = self.r.cache.peek(self.qname, self.qtype)
        if entry is None or entry.stored_ttl <= 0:
            return
        if entry.remaining_ttl(now) < config.prefetch_trigger * entry.stored_ttl:
            self.r.prefetch(self.qname, self.qtype)

    def _stale_timer(self) -> None:
        self._dispatch(fsm.STALE_TIMER)

    # ------------------------------------------------------------------
    # Main iteration step (the LOOKUP actions): consult the caches and
    # locate servers, then emit the event describing what was found.
    # ------------------------------------------------------------------
    def _step(self) -> None:
        now = self.r.sim.now
        if now >= self.hard_deadline:
            self._dispatch(fsm.HARD_DEADLINE)
            return

        first_step = self.first_step
        self.first_step = False
        if not self.skip_cache:
            rrset = self.r.cache.get(
                self.qname,
                self.qtype,
                now,
                require_authoritative=self.require_authoritative,
            )
            if rrset is not None:
                if self.r._trace is not None and self.trace_id is not None:
                    self.r._trace.emit(self.trace_id, "cache_hit", self.r.name)
                if first_step and self.r._metrics is not None:
                    self.r._m_cache_hits.value += 1
                self._maybe_prefetch(now)
                self._dispatch(
                    fsm.CACHE_HIT,
                    Outcome(Outcome.OK, list(rrset), from_cache=True),
                )
                return
            if first_step and self.r._metrics is not None:
                self.r._m_cache_misses.value += 1
            if first_step and self.r._trace is not None and self.trace_id is not None:
                self.r._trace.emit(self.trace_id, "cache_miss", self.r.name)

            negative = self.r.negcache.get(self.qname, self.qtype, now)
            if negative is not None:
                status = (
                    Outcome.NXDOMAIN
                    if negative == Rcode.NXDOMAIN
                    else Outcome.NODATA
                )
                if self.r._trace is not None and self.trace_id is not None:
                    self.r._trace.emit(
                        self.trace_id, "negcache_hit", self.r.name
                    )
                if self.r._metrics is not None:
                    self.r._m_negcache_hits.value += 1
                self._dispatch(fsm.NEG_HIT, Outcome(status, from_cache=True))
                return

        if self.qtype != RRType.CNAME:
            cname = self.r.cache.get(self.qname, RRType.CNAME, now)
            if cname is not None:
                if self.r._trace is not None and self.trace_id is not None:
                    self.r._trace.emit(self.trace_id, "cname", self.r.name)
                self.cname_depth += 1
                self._dispatch(fsm.CNAME, cname)
                return

        cut, ns_targets, addresses, missing = self._locate(now)
        self.skip_cut_once = None
        if addresses:
            self.current_cut = cut
            self._dispatch(fsm.HAVE_SERVERS, addresses)
            return
        if (
            missing
            and self.r.config.chase_ns_addresses
            and self.depth < self.r.config.max_subresolution_depth
        ):
            self._dispatch(fsm.NEED_GLUE, (cut, missing))
            return
        self._dispatch(fsm.EXHAUSTED)

    def _locate(
        self, now: float
    ) -> Tuple[Name, List[Name], List[str], List[Name]]:
        """Deepest usable zone cut: (cut, ns targets, addresses, missing)."""
        for ancestor in self.qname.ancestors():
            if ancestor.is_root:
                break
            if self.skip_cut_once is not None and ancestor == self.skip_cut_once:
                continue
            ns_rrset = self.r.cache.get_stored(ancestor, RRType.NS, now)
            if ns_rrset is None:
                continue
            targets = [r.rdata.target for r in ns_rrset.records if isinstance(r.rdata, NS)]
            addresses: List[str] = []
            missing: List[Name] = []
            for target in targets:
                a_rrset = self.r.cache.get_stored(target, RRType.A, now)
                if a_rrset is not None:
                    addresses.extend(r.rdata.address for r in a_rrset.records)
                elif self.r.negcache.get(target, RRType.A, now) is None:
                    missing.append(target)
            if addresses or missing:
                return ancestor, targets, addresses, missing
            # A cut whose servers are entirely unresolvable: fall through
            # to shallower cuts (ultimately the root).
        return Name(()), [], list(self.r.root_hints), []

    # ------------------------------------------------------------------
    # Query round against one server set
    # ------------------------------------------------------------------
    def _begin_round(self, addresses: List[str]) -> None:
        unique = list(dict.fromkeys(addresses))
        self.round_servers = self.r.selector.order(unique)
        self.round_attempt = 0
        self.round_budget = self.r.config.retry.total_budget(len(unique))
        self.round_active = True
        self._dispatch(fsm.TRY)

    def _send_attempt(self) -> None:
        server = self.round_servers[self.round_attempt % len(self.round_servers)]
        timeout = self.r.config.retry.timeout_for_attempt(self.round_attempt)
        self.round_attempt += 1
        self.r.send_upstream(self, server, timeout)

    def handle_timeout(self) -> None:
        self._dispatch(fsm.TIMEOUT)

    # ------------------------------------------------------------------
    # Response classification: decide which event the message is, apply
    # the state-independent cache effects, then dispatch.
    # ------------------------------------------------------------------
    def handle_response(self, message: Message, server: str) -> None:
        if self.done:
            return
        now = self.r.sim.now
        if message.rcode in (Rcode.SERVFAIL, Rcode.REFUSED, Rcode.NOTIMP):
            self._dispatch(fsm.LAME)
            return
        if message.rcode == Rcode.NXDOMAIN:
            ttl = message.soa_minimum_ttl()
            self.r.negcache.put(
                self.qname,
                self.qtype,
                Rcode.NXDOMAIN,
                ttl if ttl is not None else DEFAULT_NEGATIVE_TTL,
                now,
            )
            self._dispatch(fsm.NXDOMAIN, message)
            return
        if message.rcode != Rcode.NOERROR:
            self._dispatch(fsm.LAME)
            return

        answer = message.answer_rrset()
        if answer is not None:
            entry = self.r.cache.put(answer, now, authoritative=message.aa)
            served = entry.rrset.with_ttl(entry.remaining_ttl(now))
            self._dispatch(fsm.ANSWER, Outcome(Outcome.OK, list(served)))
            return

        cname_records = [
            record
            for record in message.answers
            if record.rtype == RRType.CNAME and record.name == self.qname
        ]
        if cname_records and self.qtype != RRType.CNAME:
            cname_rrset = RRset(cname_records)
            self.r.cache.put(cname_rrset, now, authoritative=message.aa)
            self.cname_depth += 1
            self._dispatch(fsm.CNAME, cname_rrset)
            return

        if message.is_referral():
            ns_records = [
                record
                for record in message.authority
                if record.rtype == RRType.NS
            ]
            cut = ns_records[0].name
            if not self.qname.is_subdomain_of(cut):
                self._dispatch(fsm.LAME)  # referral for an unrelated zone
                return
            if self.current_cut is not None and not cut.is_subdomain_of(
                self.current_cut
            ):
                self._dispatch(fsm.LAME)  # upward referral
                return
            if self.current_cut is not None and cut == self.current_cut:
                # The cut referring to itself means the server is lame
                # (it should have answered authoritatively).
                self._dispatch(fsm.LAME)
                return
            self._dispatch(fsm.REFERRAL, (message, ns_records, cut))
            return

        # Authoritative empty answer: NODATA.
        if message.aa:
            ttl = message.soa_minimum_ttl()
            self.r.negcache.put(
                self.qname,
                self.qtype,
                Rcode.NOERROR,
                ttl if ttl is not None else DEFAULT_NEGATIVE_TTL,
                now,
            )
            self._dispatch(fsm.NODATA, message)
            return

        # Anything else (empty non-authoritative, upward referral) is lame.
        self._dispatch(fsm.LAME)

    def _accept_referral(
        self, payload: Tuple[Message, List[ResourceRecord], Name]
    ) -> None:
        message, ns_records, cut = payload
        now = self.r.sim.now
        if self.r._trace is not None and self.trace_id is not None:
            self.r._trace.emit(
                self.trace_id, "referral", self.r.name, detail=f"cut={cut}"
            )
        self.r.cache.put(RRset(ns_records), now, authoritative=False)
        by_key: Dict[Tuple[Name, RRType], List[ResourceRecord]] = {}
        for record in message.additional:
            if record.rtype in (RRType.A, RRType.AAAA):
                by_key.setdefault((record.name, record.rtype), []).append(record)
        for records in by_key.values():
            self.r.cache.put(RRset(records), now, authoritative=False)

        targets = [record.rdata.target for record in ns_records]
        self.r.cancel_task_queries(self)
        self.round_active = False
        self.r.on_delegation_learned(cut, targets, self.depth)
        self._step()

    def _follow_cname(self, cname_rrset: RRset) -> None:
        # ``cname_depth`` was already advanced by the emitter, so the
        # table's ``cname_ok`` guard saw the post-increment depth.
        target = cname_rrset.records[0].rdata.target
        self.qname = target
        self.current_cut = None
        self.r.cancel_task_queries(self)
        self.round_active = False
        self._step()

    def _fail_cname_loop(self) -> None:
        self._finish(Outcome(Outcome.SERVFAIL))

    # ------------------------------------------------------------------
    # Missing NS addresses
    # ------------------------------------------------------------------
    def _chase_glue(self, payload: Tuple[Name, List[Name]]) -> None:
        _cut, missing = payload
        fresh_targets = [
            target for target in missing if target not in self.sub_targets_tried
        ]
        self.subresolutions = len(fresh_targets)
        self.sub_failures = 0
        for target in fresh_targets:
            self.sub_targets_tried.add(target)
            self.r.resolve(
                target,
                RRType.A,
                self._on_subresolution,
                self.depth + 1,
                trace_id=self.trace_id,
            )

    def _on_subresolution(self, outcome: Outcome) -> None:
        if self.done:
            return
        self.subresolutions -= 1
        self._dispatch(fsm.SUB_OK if outcome.is_success else fsm.SUB_FAIL)

    def _count_sub_failure(self) -> None:
        self.sub_failures += 1

    def _sub_chase_failed(self) -> None:
        # The last outstanding chase failed: re-enter the lookup, which
        # will fall through to the exhaustion tail if nothing was learned.
        self.sub_failures += 1
        self._step()

    # ------------------------------------------------------------------
    # Failure handling: parent re-query, serve-stale, SERVFAIL
    # ------------------------------------------------------------------
    def _requery_parent(self) -> None:
        # BIND behavior: go back to the parents for the delegation, then
        # give the child's servers one more (deadline-bounded) round.
        self.round_active = False
        now = self.r.sim.now
        policy = self.r.config.retry
        cut = self.current_cut
        assert cut is not None  # the can_requery_parent guard checked
        self.requeried_cuts.add(cut)
        self.skip_cut_once = cut
        self.current_cut = None
        self.deadline = min(
            self.hard_deadline, now + policy.resolution_deadline * 0.5
        )
        self._step()

    def _finish_stale(self) -> None:
        self.round_active = False
        stale = self.r.cache.get_stale(self.qname, self.qtype, self.r.sim.now)
        assert stale is not None  # the stale guard peeked at the entry
        if self.r._trace is not None and self.trace_id is not None:
            self.r._trace.emit(self.trace_id, "stale", self.r.name)
        self._finish(Outcome(Outcome.OK, list(stale), stale=True))

    def _finish_servfail(self) -> None:
        self.round_active = False
        if self.r._trace is not None and self.trace_id is not None:
            self.r._trace.emit(
                self.trace_id,
                "give_up",
                self.r.name,
                detail=f"sends={self.sends}",
            )
        self.r.remember_servfail(self.qname, self.qtype)
        self._finish(Outcome(Outcome.SERVFAIL))

    def _finish_nxdomain(self, message: Message) -> None:
        self._finish(Outcome(Outcome.NXDOMAIN))

    def _finish_nodata(self, message: Message) -> None:
        self._finish(Outcome(Outcome.NODATA))

    # ------------------------------------------------------------------
    def _finish(self, outcome: Outcome) -> None:
        if self.done:
            return
        self.done = True
        if self.r._metrics is not None:
            self.r._m_inflight.dec()
            self.r._m_sends.observe(self.sends)
        self.r.task_finished(self)
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(outcome)
