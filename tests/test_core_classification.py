"""Unit tests for the AA/CC/AC/CA classifier (paper §3.4)."""

from repro.clients.publicdns import ResolverRegistry
from repro.core.classification import (
    AnswerClass,
    RotationSchedule,
    classify_answers,
    classify_misses_by_resolver,
)
from repro.resolvers.stub import StubAnswer

ROTATION = RotationSchedule(initial_serial=1, interval=600.0)
ZONE_TTL = 1800


def make_answer(
    probe_id=1,
    resolver="r1",
    round_index=0,
    sent_at=0.0,
    serial=None,
    returned_ttl=None,
    status=StubAnswer.OK,
    latency=0.05,
):
    answer = StubAnswer(probe_id, resolver, round_index, sent_at)
    answer.status = status
    if status == StubAnswer.OK:
        answer.answered_at = sent_at + latency
        answer.serial = serial if serial is not None else ROTATION.serial_at(sent_at)
        answer.returned_ttl = (
            returned_ttl if returned_ttl is not None else ZONE_TTL
        )
        answer.encoded_ttl = ZONE_TTL
        answer.record_count = 1
    return answer


def test_rotation_schedule():
    assert ROTATION.serial_at(0.0) == 1
    assert ROTATION.serial_at(599.0) == 1
    assert ROTATION.serial_at(600.0) == 2
    assert ROTATION.serial_at(1800.0) == 4
    assert ROTATION.serial_at(-5.0) == 1


def test_first_answer_is_warmup():
    answers = [
        make_answer(sent_at=0.0),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.warmup == 1
    assert classified[0].answer_class == AnswerClass.WARMUP


def test_cc_expected_and_cached():
    # Round 0 warmup (serial 1); round 1 at t=1200 returns serial 1 with
    # decremented TTL: cache hit (expected cached: 1200 < 0+1800).
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=1200.0, serial=1, returned_ttl=600),
    ]
    table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.cc == 1
    assert classified[1].answer_class == AnswerClass.CC


def test_ac_is_cache_miss():
    # Round 1 answer is fresh (serial 3 = current) though the cache
    # should still hold the warmup answer: AC.
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.ac == 1
    assert table.miss_rate == 1.0
    assert classified[1].answer_class == AnswerClass.AC


def test_aa_when_cache_expired():
    # Second query after the previous answer's TTL ran out: fresh answer
    # expected and received.
    answers = [
        make_answer(sent_at=0.0, serial=1, returned_ttl=60),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.aa == 1
    assert classified[1].answer_class == AnswerClass.AA


def test_ca_is_stale_answer():
    # Cache should be empty (previous TTL 60 long expired) but an old
    # serial arrives: extended/stale cache.
    answers = [
        make_answer(sent_at=0.0, serial=1, returned_ttl=60),
        make_answer(sent_at=1200.0, serial=1, returned_ttl=0),
    ]
    table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.ca == 1
    assert classified[1].answer_class == AnswerClass.CA


def test_ttl_altered_detection_on_warmup():
    answers = [
        make_answer(sent_at=0.0, serial=1, returned_ttl=60),  # capped
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.warmup_ttl_altered == 1
    assert table.warmup_ttl_as_zone == 0


def test_ttl_within_ten_percent_not_altered():
    answers = [
        make_answer(sent_at=0.0, serial=1, returned_ttl=int(ZONE_TTL * 0.95)),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.warmup_ttl_altered == 0


def test_serial_decrease_marks_fragmentation():
    # Serials 1, 3, then 1 again (different backend cache): CCdec.
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=700.0, serial=2, returned_ttl=1800),
        make_answer(sent_at=1400.0, serial=1, returned_ttl=400),
    ]
    table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    assert classified[2].serial_decreased
    assert table.cc_decreasing == 1


def test_one_answer_vps_excluded():
    answers = [make_answer(probe_id=1), make_answer(probe_id=2)]
    table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.one_answer_vps == 2
    assert table.warmup == 0
    assert classified == []


def test_failed_answers_ignored():
    answers = [
        make_answer(sent_at=0.0),
        make_answer(sent_at=600.0, status=StubAnswer.NO_ANSWER),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.answers_valid == 2


def test_vps_tracked_independently():
    answers = [
        make_answer(probe_id=1, resolver="a", sent_at=0.0, serial=1),
        make_answer(probe_id=1, resolver="b", sent_at=0.0, serial=1),
        make_answer(probe_id=1, resolver="a", sent_at=1200.0, serial=1, returned_ttl=600),
        make_answer(probe_id=1, resolver="b", sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.warmup == 2
    assert table.cc == 1
    assert table.ac == 1


def test_miss_rate_denominator_excludes_warmup():
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=1200.0, serial=3),  # AC
        make_answer(sent_at=3600.0, serial=7),  # AA (previous TTL expired)
    ]
    table, _ = classify_answers(answers, ZONE_TTL, ROTATION)
    assert table.subsequent == 2
    assert table.miss_rate == 0.5


def test_miss_attribution_by_registry():
    registry = ResolverRegistry()
    registry.register_public_ingress("8.8.8.8", google=True)
    registry.register_public_ingress("9.9.9.9", google=False)
    registry.register_recursive("100.64.0.1", "isp")
    answers = []
    for resolver in ("8.8.8.8", "9.9.9.9", "100.64.0.1"):
        answers.append(make_answer(resolver=resolver, sent_at=0.0, serial=1))
        answers.append(make_answer(resolver=resolver, sent_at=1200.0, serial=3))
    _table, classified = classify_answers(answers, ZONE_TTL, ROTATION)
    attribution = classify_misses_by_resolver(classified, registry)
    assert attribution.ac_total == 3
    assert attribution.public_r1 == 2
    assert attribution.google_r1 == 1
    assert attribution.other_public_r1 == 1
    assert attribution.non_public_r1 == 1
