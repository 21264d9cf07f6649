"""Answer classification: the paper's §3.4 methodology, reimplemented.

Every successful answer carries (serial, probe id, TTL) encoded in its
AAAA rdata. Comparing the answer's serial with the serial current at
query time tells whether the answer came from the authoritative (fresh
serial) or from a cache (older serial); tracking each VP's previous
answer and its returned TTL tells whether a cache hit was *expected*.
Crossing the two yields four classes:

======  =========================  ==========================
class   answered by                expected from
======  =========================  ==========================
AA      authoritative              authoritative
CC      cache                      cache (a proper hit)
AC      authoritative              cache (a cache miss)
CA      cache                      authoritative (extended /
                                   stale cache)
======  =========================  ==========================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.clients.publicdns import ResolverRegistry
from repro.dnscore.name import Name
from repro.resolvers.stub import StubAnswer
from repro.servers.querylog import QueryLog


class RotationSchedule:
    """Knows which zone serial was current at any instant (§3.2: the
    serial increments with each 10-minute zone rotation)."""

    def __init__(self, initial_serial: int = 1, interval: float = 600.0) -> None:
        self.initial_serial = initial_serial
        self.interval = interval

    def serial_at(self, time: float) -> int:
        if time < 0:
            return self.initial_serial
        return self.initial_serial + int(time // self.interval)


class AnswerClass(enum.Enum):
    """The four §3.4 classes plus warm-up."""

    WARMUP = "AAi"
    AA = "AA"
    CC = "CC"
    AC = "AC"
    CA = "CA"


@dataclass
class ClassifiedAnswer:
    """One valid answer with its class and manipulation markers."""

    answer: StubAnswer
    answer_class: AnswerClass
    ttl_altered: bool
    serial_decreased: bool

    @property
    def time(self) -> float:
        return self.answer.sent_at


@dataclass
class ClassificationTable:
    """Aggregate counts in the shape of the paper's Table 2."""

    answers_valid: int = 0
    one_answer_vps: int = 0
    warmup: int = 0
    warmup_ttl_as_zone: int = 0
    warmup_ttl_altered: int = 0
    aa: int = 0
    cc: int = 0
    cc_decreasing: int = 0
    ac: int = 0
    ac_ttl_as_zone: int = 0
    ac_ttl_altered: int = 0
    ca: int = 0
    ca_decreasing: int = 0

    @property
    def subsequent(self) -> int:
        """Answers after the warm-up (the Figure 3 denominator)."""
        return self.aa + self.cc + self.ac + self.ca

    @property
    def miss_rate(self) -> float:
        """Cache misses among answers that should have been cached or
        fresh — the paper's headline ~30% (Figure 3)."""
        if self.subsequent == 0:
            return 0.0
        return self.ac / self.subsequent

    def as_rows(self) -> List[Tuple[str, int]]:
        return [
            ("Answers (valid)", self.answers_valid),
            ("1-answer VPs", self.one_answer_vps),
            ("Warm-up (AAi)", self.warmup),
            ("TTL as zone", self.warmup_ttl_as_zone),
            ("TTL altered", self.warmup_ttl_altered),
            ("AA", self.aa),
            ("CC", self.cc),
            ("CCdec.", self.cc_decreasing),
            ("AC", self.ac),
            ("AC TTL as zone", self.ac_ttl_as_zone),
            ("AC TTL altered", self.ac_ttl_altered),
            ("CA", self.ca),
            ("CAdec.", self.ca_decreasing),
        ]


def _ttl_altered(returned_ttl: Optional[int], zone_ttl: int) -> bool:
    """The paper's >10% rule for flagging TTL manipulation."""
    if returned_ttl is None:
        return False
    return abs(returned_ttl - zone_ttl) > 0.1 * zone_ttl


def classify_answers(
    answers: Sequence[StubAnswer],
    zone_ttl: int,
    rotation: RotationSchedule,
) -> Tuple[ClassificationTable, List[ClassifiedAnswer]]:
    """Classify all valid answers, per VP, in time order.

    Only successful answers carrying the instrumented AAAA payload are
    classifiable; error answers (SERVFAIL and friends) are the paper's
    "answers (disc.)" and are excluded before this function.
    """
    table = ClassificationTable()
    classified: List[ClassifiedAnswer] = []

    by_vp: Dict[Tuple[int, str], List[StubAnswer]] = {}
    for answer in answers:
        if not answer.is_success or answer.serial is None:
            continue
        by_vp.setdefault((answer.probe_id, answer.resolver), []).append(answer)

    for vp_answers in by_vp.values():
        vp_answers.sort(key=lambda item: item.sent_at)
        table.answers_valid += len(vp_answers)
        if len(vp_answers) == 1:
            table.one_answer_vps += 1
            continue

        previous_serial: Optional[int] = None
        cache_valid_until: Optional[float] = None
        for index, answer in enumerate(vp_answers):
            returned_ttl = answer.returned_ttl
            altered = _ttl_altered(returned_ttl, zone_ttl)
            decreased = (
                previous_serial is not None
                and answer.serial is not None
                and answer.serial < previous_serial
            )
            if index == 0:
                table.warmup += 1
                if altered:
                    table.warmup_ttl_altered += 1
                else:
                    table.warmup_ttl_as_zone += 1
                answer_class = AnswerClass.WARMUP
            else:
                current_serial = rotation.serial_at(answer.sent_at)
                from_cache = (
                    answer.serial is not None and answer.serial < current_serial
                )
                expected_cache = (
                    cache_valid_until is not None
                    and answer.sent_at < cache_valid_until
                )
                if from_cache and expected_cache:
                    answer_class = AnswerClass.CC
                    table.cc += 1
                    if decreased:
                        table.cc_decreasing += 1
                elif from_cache:
                    answer_class = AnswerClass.CA
                    table.ca += 1
                    if decreased:
                        table.ca_decreasing += 1
                elif expected_cache:
                    answer_class = AnswerClass.AC
                    table.ac += 1
                    if altered:
                        table.ac_ttl_altered += 1
                    else:
                        table.ac_ttl_as_zone += 1
                else:
                    answer_class = AnswerClass.AA
                    table.aa += 1
            classified.append(
                ClassifiedAnswer(answer, answer_class, altered, decreased)
            )
            previous_serial = answer.serial
            if answer.answered_at is not None and returned_ttl is not None:
                cache_valid_until = answer.answered_at + returned_ttl

    return table, classified


@dataclass
class MissAttribution:
    """Table 3: where cache misses (AC answers) enter the DNS."""

    ac_total: int = 0
    public_r1: int = 0
    google_r1: int = 0
    other_public_r1: int = 0
    non_public_r1: int = 0
    google_rn: int = 0
    other_rn: int = 0

    def as_rows(self) -> List[Tuple[str, int]]:
        return [
            ("AC Answers", self.ac_total),
            ("Public R1", self.public_r1),
            ("Google Public R1", self.google_r1),
            ("other Public R1", self.other_public_r1),
            ("Non-Public R1", self.non_public_r1),
            ("Google Public Rn", self.google_rn),
            ("other Rn", self.other_rn),
        ]


def classify_misses_by_resolver(
    classified: Iterable[ClassifiedAnswer],
    registry: ResolverRegistry,
    query_log: Optional[QueryLog] = None,
    zone_origin: Optional[Name] = None,
) -> MissAttribution:
    """Attribute each AC answer to public vs non-public infrastructure.

    The first-hop (R1) attribution uses the address the probe queried
    (the paper's public-resolver list lookup). For misses entering at
    non-public R1s, the egress recursive (Rn) seen at the authoritative
    is attributed via the query log, like the paper's §3.5 matching of
    query source and round.
    """
    attribution = MissAttribution()
    # Row indexes of the query log per queried name (keyed on the Name,
    # so every spelling of it lands in one list).
    rows_by_qname: Dict[Name, List[int]] = {}
    if query_log is not None:
        qnames = query_log.qnames
        for row, qname_id in enumerate(query_log.qname.ids):
            rows_by_qname.setdefault(qnames[qname_id], []).append(row)
        times = query_log.times
        srcs, src_ids = query_log.src.values, query_log.src.ids

    for item in classified:
        if item.answer_class != AnswerClass.AC:
            continue
        attribution.ac_total += 1
        resolver = item.answer.resolver
        if registry.is_public(resolver):
            attribution.public_r1 += 1
            if registry.is_google(resolver):
                attribution.google_r1 += 1
            else:
                attribution.other_public_r1 += 1
            continue
        attribution.non_public_r1 += 1
        if query_log is None or zone_origin is None:
            attribution.other_rn += 1
            continue
        qname = zone_origin.child(str(item.answer.probe_id))
        window_start = item.answer.sent_at - 0.5
        window_end = (
            item.answer.answered_at
            if item.answer.answered_at is not None
            else item.answer.sent_at + 5.0
        )
        sources = {
            srcs[src_ids[row]]
            for row in rows_by_qname.get(qname, ())
            if window_start <= times[row] <= window_end
        }
        if any(registry.is_google(source) for source in sources):
            attribution.google_rn += 1
        else:
            attribution.other_rn += 1
    return attribution
