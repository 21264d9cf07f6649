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
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clients.publicdns import ResolverRegistry
from repro.columns import RowSequence, round_indexes, widened
from repro.dnscore.name import Name
from repro.resolvers.stub import OK_CODE, AnswerLog, StubAnswer, optional_value
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


#: Answer classes by the id a :class:`ClassifiedLog` stores, and the ids.
CLASSES: Tuple[AnswerClass, ...] = (
    AnswerClass.WARMUP,
    AnswerClass.AA,
    AnswerClass.CC,
    AnswerClass.AC,
    AnswerClass.CA,
)
WARMUP_ID, AA_ID, CC_ID, AC_ID, CA_ID = range(len(CLASSES))


@dataclass(frozen=True)
class ClassifiedAnswer:
    """One valid answer with its class and manipulation markers: the
    read-only row a :class:`ClassifiedLog` builds per access."""

    answer: StubAnswer
    answer_class: AnswerClass
    ttl_altered: bool
    serial_decreased: bool

    @property
    def time(self) -> float:
        return self.answer.sent_at


class ClassifiedLog(RowSequence):
    """The classified answers of a run, as four columns over its answers.

    ``rows`` indexes the :class:`~repro.resolvers.stub.AnswerLog` held in
    ``answers``; ``classes`` holds ids into :data:`CLASSES`;
    ``ttl_altered`` and ``serial_decreased`` are 0/1 flags. As a
    sequence it yields :class:`ClassifiedAnswer` rows, built per access.
    Pickled beside its answers (a result holds both), the answer log is
    stored once.
    """

    __slots__ = ("answers", "rows", "classes", "ttl_altered", "serial_decreased")

    def __init__(self, answers: AnswerLog) -> None:
        self.answers = answers
        self.rows = array("B")
        self.classes = array("B")
        self.ttl_altered = array("B")
        self.serial_decreased = array("B")

    def append(
        self, row: int, class_id: int, ttl_altered: bool, serial_decreased: bool
    ) -> None:
        """Classify answer ``row`` as ``CLASSES[class_id]``."""
        try:
            self.rows.append(row)
        except OverflowError:
            self.rows = widened(self.rows, row)
            self.rows.append(row)
        self.classes.append(class_id)
        self.ttl_altered.append(ttl_altered)
        self.serial_decreased.append(serial_decreased)

    def __len__(self) -> int:
        return len(self.rows)

    def _row(self, index: int) -> ClassifiedAnswer:
        return ClassifiedAnswer(
            self.answers[self.rows[index]],
            CLASSES[self.classes[index]],
            bool(self.ttl_altered[index]),
            bool(self.serial_decreased[index]),
        )

    def __repr__(self) -> str:
        return f"<ClassifiedLog classified={len(self)} of {len(self.answers)} answers>"

    def __getstate__(self):
        return (
            self.answers,
            self.rows,
            self.classes,
            self.ttl_altered,
            self.serial_decreased,
        )

    def __setstate__(self, state) -> None:
        (
            self.answers,
            self.rows,
            self.classes,
            self.ttl_altered,
            self.serial_decreased,
        ) = state


def class_timeseries(
    classified: ClassifiedLog, round_seconds: float, warmup_as_aa: bool
) -> Dict[int, Dict[str, int]]:
    """AA/AC/CC/CA counts per probing round, rounds in first-seen order.

    Warm-up answers count as AA with ``warmup_as_aa`` and are left out
    otherwise.
    """
    sent_at = classified.answers.sent_at
    class_ids = classified.classes
    if warmup_as_aa:
        class_ids = [AA_ID if class_id == WARMUP_ID else class_id for class_id in class_ids]
    counted = Counter(
        zip(round_indexes(map(sent_at.__getitem__, classified.rows), round_seconds), class_ids)
    )
    series: Dict[int, Dict[str, int]] = {}
    for (round_index, class_id), count in counted.items():
        if class_id == WARMUP_ID:
            continue
        bucket = series.setdefault(round_index, {"AA": 0, "AC": 0, "CC": 0, "CA": 0})
        bucket[CLASSES[class_id].value] += count
    return series


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
    answers: AnswerLog,
    zone_ttl: int,
    rotation: RotationSchedule,
) -> Tuple[ClassificationTable, ClassifiedLog]:
    """Classify all valid answers, per VP, in time order.

    Only successful answers carrying the instrumented AAAA payload are
    classifiable; error answers (SERVFAIL and friends) are the paper's
    "answers (disc.)" and are excluded before this function.
    """
    table = ClassificationTable()
    classified = ClassifiedLog(answers)
    sent_at, answered_at = answers.sent_at, answers.answered_at
    serials, returned_ttls = answers.serials, answers.returned_ttls

    # Valid rows per VP, VPs in first-seen order. Within one log the
    # resolver id stands for the address.
    by_vp: Dict[Tuple[int, int], List[int]] = {}
    for row, (status, serial, vp) in enumerate(
        zip(answers.statuses, serials, zip(answers.probe_ids, answers.resolver.ids))
    ):
        if status == OK_CODE and serial:  # a stored 0 is None
            by_vp.setdefault(vp, []).append(row)

    for vp_rows in by_vp.values():
        vp_rows.sort(key=sent_at.__getitem__)
        table.answers_valid += len(vp_rows)
        if len(vp_rows) == 1:
            table.one_answer_vps += 1
            continue

        previous_serial: Optional[int] = None
        cache_valid_until: Optional[float] = None
        for index, row in enumerate(vp_rows):
            serial = serials[row] - 1  # never None in a valid row
            returned_ttl = optional_value(returned_ttls[row])
            altered = _ttl_altered(returned_ttl, zone_ttl)
            decreased = previous_serial is not None and serial < previous_serial
            if index == 0:
                table.warmup += 1
                if altered:
                    table.warmup_ttl_altered += 1
                else:
                    table.warmup_ttl_as_zone += 1
                class_id = WARMUP_ID
            else:
                sent = sent_at[row]
                from_cache = serial < rotation.serial_at(sent)
                expected_cache = (
                    cache_valid_until is not None and sent < cache_valid_until
                )
                if from_cache and expected_cache:
                    class_id = CC_ID
                    table.cc += 1
                    if decreased:
                        table.cc_decreasing += 1
                elif from_cache:
                    class_id = CA_ID
                    table.ca += 1
                    if decreased:
                        table.ca_decreasing += 1
                elif expected_cache:
                    class_id = AC_ID
                    table.ac += 1
                    if altered:
                        table.ac_ttl_altered += 1
                    else:
                        table.ac_ttl_as_zone += 1
                else:
                    class_id = AA_ID
                    table.aa += 1
            classified.append(row, class_id, altered, decreased)
            previous_serial = serial
            answered = answered_at[row]
            if not math.isnan(answered) and returned_ttl is not None:
                cache_valid_until = answered + returned_ttl

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
    classified: ClassifiedLog,
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

    answers = classified.answers
    resolvers, resolver_ids = answers.resolver.values, answers.resolver.ids
    for row, class_id in zip(classified.rows, classified.classes):
        if class_id != AC_ID:
            continue
        attribution.ac_total += 1
        resolver = resolvers[resolver_ids[row]]
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
        qname = zone_origin.child(str(answers.probe_ids[row]))
        sent, answered = answers.sent_at[row], answers.answered_at[row]
        window_start = sent - 0.5
        window_end = sent + 5.0 if math.isnan(answered) else answered
        sources = {
            srcs[src_ids[query_row]]
            for query_row in rows_by_qname.get(qname, ())
            if window_start <= times[query_row] <= window_end
        }
        if any(registry.is_google(source) for source in sources):
            attribution.google_rn += 1
        else:
            attribution.other_rn += 1
    return attribution
