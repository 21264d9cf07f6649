"""The recursive-resolution lifecycle as a transition table.

This is the machine `RecursiveResolver` drives for every
``_ResolutionTask`` (``Rn`` in the paper's Figure 1). The states mirror
the phases the paper's §6 retry analysis reasons about:

* ``START`` → ``LOOKUP``: consult caches and locate the deepest usable
  zone cut (transient — every ``LOOKUP`` action synchronously emits the
  next event).
* ``QUERYING``: one retry round against a server set. The
  ``round_open``-guarded self-loop is the paper's retry amplification:
  it fires at most ``total_budget`` times inside the resolution
  deadline (annotated ``sends=1, bound="round_budget"`` so the verifier
  can bound worst-case query counts, §6/Figure 16).
* ``CHASING``: waiting on nameserver-address sub-resolutions (the
  AAAA-for-NS chatter of Figure 10 happens in child tasks spawned
  here and by referrals).
* The ``can_requery_parent`` exits model BIND's go-back-to-the-parents
  behavior; the ``stale_on_failure`` exits are RFC 8767 serve-stale,
  the paper's §5.3 defense.

Guards read task/simulator state only; actions delegate to
``_ResolutionTask`` methods. Payload conventions (``event_payload``):
``CACHE_HIT``/``NEG_HIT`` carry a finished ``Outcome``; ``CNAME``
carries the CNAME RRset; ``HAVE_SERVERS`` the address list;
``NEED_GLUE`` a ``(cut, missing_targets)`` pair; ``ANSWER`` a prepared
``Outcome``; ``NXDOMAIN``/``NODATA`` the upstream message; ``REFERRAL``
a ``(message, ns_records, cut)`` triple.

Response classification (rcode checks, referral lameness, caching the
received records) happens in the task *before* dispatch — those effects
are state-independent in real resolvers, so they stay out of the table.
The TC→TCP fallback likewise rides outside: it is response-triggered
(one TCP repeat per truncated UDP answer), so it cannot amplify beyond
the row-annotated UDP budgets the verifier bounds.
"""

from __future__ import annotations

from typing import Any

from repro.fsm.machine import Machine, State, Transition

# States ---------------------------------------------------------------
START = "START"
LOOKUP = "LOOKUP"
QUERYING = "QUERYING"
CHASING = "CHASING"
DONE = "DONE"

# Events ---------------------------------------------------------------
BEGIN = "begin"
HARD_DEADLINE = "hard_deadline"
CACHE_HIT = "cache_hit"
NEG_HIT = "neg_hit"
CNAME = "cname"
HAVE_SERVERS = "have_servers"
NEED_GLUE = "need_glue"
EXHAUSTED = "exhausted"
TRY = "try"
TIMEOUT = "timeout"
LAME = "lame"
ANSWER = "answer"
NXDOMAIN = "nxdomain"
NODATA = "nodata"
REFERRAL = "referral"
SUB_OK = "sub_ok"
SUB_FAIL = "sub_fail"
STALE_TIMER = "stale_timer"


# Guards ---------------------------------------------------------------
def _round_open(task: Any) -> bool:
    """More attempts allowed: inside the deadline and the round budget."""
    return (
        task.r.sim.now < task.deadline
        and task.round_attempt < task.round_budget
    )


def _can_requery_parent(task: Any) -> bool:
    """BIND-style post-failure parent re-query is available."""
    policy = task.r.config.retry
    cut = task.current_cut
    return (
        policy.requery_parent_on_failure
        and cut is not None
        and not cut.is_root
        and cut not in task.requeried_cuts
        and task.r.sim.now < task.hard_deadline
    )


def _cname_ok(task: Any) -> bool:
    return task.cname_depth <= task.r.config.max_cname_depth


def _fresh_glue(task: Any) -> bool:
    """At least one missing NS target has not been chased yet."""
    _cut, missing = task.event_payload
    return any(
        target not in task.sub_targets_tried for target in missing
    )


def _stale_usable(task: Any) -> bool:
    """An expired-but-in-window entry exists (no cache-stats side effects)."""
    entry = task.r.cache.peek(task.qname, task.qtype)
    return entry is not None and entry.is_usable_stale(
        task.r.sim.now, task.r.config.cache.stale_window
    )


def _stale_on_failure(task: Any) -> bool:
    """Serve-stale is configured and stale data is on hand (RFC 8767)."""
    return task.r.config.serve_stale and _stale_usable(task)


def _subs_outstanding(task: Any) -> bool:
    return task.subresolutions > 0


GUARDS = {
    "round_open": _round_open,
    "can_requery_parent": _can_requery_parent,
    "cname_ok": _cname_ok,
    "fresh_glue": _fresh_glue,
    "stale_on_failure": _stale_on_failure,
    "stale_now": _stale_usable,
    "subs_outstanding": _subs_outstanding,
}

ACTIONS = {
    "step": lambda task: task._step(),
    "finish": lambda task: task._finish(task.event_payload),
    "follow_cname": lambda task: task._follow_cname(task.event_payload),
    "fail_cname_loop": lambda task: task._fail_cname_loop(),
    "begin_round": lambda task: task._begin_round(task.event_payload),
    "send_attempt": lambda task: task._send_attempt(),
    "requery_parent": lambda task: task._requery_parent(),
    "chase_glue": lambda task: task._chase_glue(task.event_payload),
    "accept_referral": lambda task: task._accept_referral(task.event_payload),
    "finish_answer": lambda task: task._finish(task.event_payload),
    "finish_nxdomain": lambda task: task._finish_nxdomain(task.event_payload),
    "finish_nodata": lambda task: task._finish_nodata(task.event_payload),
    "finish_stale": lambda task: task._finish_stale(),
    "finish_servfail": lambda task: task._finish_servfail(),
    "count_sub_failure": lambda task: task._count_sub_failure(),
    "sub_chase_failed": lambda task: task._sub_chase_failed(),
}

#: The failure tail shared by every way a server set can be exhausted:
#: re-query the parents if the profile allows it, else serve stale if
#: allowed, else SERVFAIL. Spelled out per event so the graph shows each
#: exhaustion path explicitly.
def _exhaust_rows(state: str, event: str) -> tuple:
    return (
        Transition(state, event, LOOKUP, guard="can_requery_parent",
                   action="requery_parent"),
        Transition(state, event, DONE, guard="stale_on_failure",
                   action="finish_stale"),
        Transition(state, event, DONE, action="finish_servfail"),
    )


#: Retry rows: attempt another send while the round is open, then fall
#: into the exhaustion tail. Shared by the round-opening TRY and the
#: in-round TIMEOUT / lame-response events; ``state`` self-loops so a
#: late retry from CHASING does not masquerade as an active round.
def _retry_rows(state: str, event: str) -> tuple:
    return (
        Transition(state, event, state, guard="round_open",
                   action="send_attempt", sends=1, bound="round_budget"),
    ) + _exhaust_rows(state, event)


RESOLUTION_MACHINE = Machine(
    name="resolution",
    start=START,
    states=(
        State(START),
        State(LOOKUP),
        State(QUERYING),
        State(CHASING),
        State(DONE, terminal=True),
    ),
    events=(
        BEGIN,
        HARD_DEADLINE,
        CACHE_HIT,
        NEG_HIT,
        CNAME,
        HAVE_SERVERS,
        NEED_GLUE,
        EXHAUSTED,
        TRY,
        TIMEOUT,
        LAME,
        ANSWER,
        NXDOMAIN,
        NODATA,
        REFERRAL,
        SUB_OK,
        SUB_FAIL,
        STALE_TIMER,
    ),
    transitions=(
        Transition(START, BEGIN, LOOKUP, action="step"),
        # ----- LOOKUP: cache consultation and server location ---------
        Transition(LOOKUP, HARD_DEADLINE, DONE, guard="stale_on_failure",
                   action="finish_stale"),
        Transition(LOOKUP, HARD_DEADLINE, DONE, action="finish_servfail"),
        Transition(LOOKUP, CACHE_HIT, DONE, action="finish"),
        Transition(LOOKUP, NEG_HIT, DONE, action="finish"),
        Transition(LOOKUP, CNAME, LOOKUP, guard="cname_ok",
                   action="follow_cname"),
        Transition(LOOKUP, CNAME, DONE, action="fail_cname_loop"),
        Transition(LOOKUP, HAVE_SERVERS, QUERYING, action="begin_round"),
        Transition(LOOKUP, NEED_GLUE, CHASING, guard="fresh_glue",
                   action="chase_glue"),
    )
    + _exhaust_rows(LOOKUP, NEED_GLUE)
    + _exhaust_rows(LOOKUP, EXHAUSTED)
    + (
        # ----- QUERYING: one retry round against a server set ---------
        *_retry_rows(QUERYING, TRY),
        *_retry_rows(QUERYING, TIMEOUT),
        *_retry_rows(QUERYING, LAME),
        Transition(QUERYING, ANSWER, DONE, action="finish_answer"),
        Transition(QUERYING, NXDOMAIN, DONE, action="finish_nxdomain"),
        Transition(QUERYING, NODATA, DONE, action="finish_nodata"),
        Transition(QUERYING, CNAME, LOOKUP, guard="cname_ok",
                   action="follow_cname"),
        Transition(QUERYING, CNAME, DONE, action="fail_cname_loop"),
        Transition(QUERYING, REFERRAL, LOOKUP, action="accept_referral"),
        # Sub-resolutions finishing while a round already runs on other
        # addresses change nothing (the emitter keeps the counter).
        Transition(QUERYING, SUB_OK, QUERYING),
        Transition(QUERYING, SUB_FAIL, QUERYING),
        # RFC 8767 client-response timer: answer stale early rather than
        # making the client wait out the whole retry schedule.
        Transition(QUERYING, STALE_TIMER, DONE, guard="stale_now",
                   action="finish_stale"),
        Transition(QUERYING, STALE_TIMER, QUERYING),
        # ----- CHASING: waiting on NS-address sub-resolutions ----------
        Transition(CHASING, SUB_OK, LOOKUP, action="step"),
        Transition(CHASING, SUB_FAIL, CHASING, guard="subs_outstanding",
                   action="count_sub_failure"),
        Transition(CHASING, SUB_FAIL, LOOKUP, action="sub_chase_failed"),
        Transition(CHASING, STALE_TIMER, DONE, guard="stale_now",
                   action="finish_stale"),
        Transition(CHASING, STALE_TIMER, CHASING),
        # Upstream events can still reach a chasing task — a query sent
        # before the chase began (e.g. a TC→TCP fallback repeat) may yet
        # answer or time out. Handling mirrors QUERYING, but retries
        # self-loop in CHASING: no round is active here.
        *_retry_rows(CHASING, TIMEOUT),
        *_retry_rows(CHASING, LAME),
        Transition(CHASING, ANSWER, DONE, action="finish_answer"),
        Transition(CHASING, NXDOMAIN, DONE, action="finish_nxdomain"),
        Transition(CHASING, NODATA, DONE, action="finish_nodata"),
        Transition(CHASING, CNAME, LOOKUP, guard="cname_ok",
                   action="follow_cname"),
        Transition(CHASING, CNAME, DONE, action="fail_cname_loop"),
        Transition(CHASING, REFERRAL, LOOKUP, action="accept_referral"),
    ),
    guards=GUARDS,
    actions=ACTIONS,
)

COMPILED_RESOLUTION = RESOLUTION_MACHINE.compile()
