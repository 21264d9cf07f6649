"""Unit tests for the AA/CC/AC/CA classifier (paper §3.4)."""

import dataclasses

import pytest

from repro.clients.publicdns import ResolverRegistry
from repro.core.classification import (
    AnswerClass,
    RotationSchedule,
    classify_answers,
    classify_misses_by_resolver,
)
from repro.resolvers.stub import AnswerLog, StubAnswer

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
    if status != StubAnswer.OK:
        return StubAnswer(probe_id, resolver, round_index, sent_at, status=status)
    return StubAnswer(
        probe_id,
        resolver,
        round_index,
        sent_at,
        answered_at=sent_at + latency,
        status=status,
        serial=serial if serial is not None else ROTATION.serial_at(sent_at),
        returned_ttl=returned_ttl if returned_ttl is not None else ZONE_TTL,
        encoded_ttl=ZONE_TTL,
        record_count=1,
    )


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
    table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.warmup == 1
    assert classified[0].answer_class == AnswerClass.WARMUP


def test_cc_expected_and_cached():
    # Round 0 warmup (serial 1); round 1 at t=1200 returns serial 1 with
    # decremented TTL: cache hit (expected cached: 1200 < 0+1800).
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=1200.0, serial=1, returned_ttl=600),
    ]
    table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.cc == 1
    assert classified[1].answer_class == AnswerClass.CC


def test_ac_is_cache_miss():
    # Round 1 answer is fresh (serial 3 = current) though the cache
    # should still hold the warmup answer: AC.
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
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
    table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.aa == 1
    assert classified[1].answer_class == AnswerClass.AA


def test_ca_is_stale_answer():
    # Cache should be empty (previous TTL 60 long expired) but an old
    # serial arrives: extended/stale cache.
    answers = [
        make_answer(sent_at=0.0, serial=1, returned_ttl=60),
        make_answer(sent_at=1200.0, serial=1, returned_ttl=0),
    ]
    table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.ca == 1
    assert classified[1].answer_class == AnswerClass.CA


def test_ttl_altered_detection_on_warmup():
    answers = [
        make_answer(sent_at=0.0, serial=1, returned_ttl=60),  # capped
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.warmup_ttl_altered == 1
    assert table.warmup_ttl_as_zone == 0


def test_ttl_within_ten_percent_not_altered():
    answers = [
        make_answer(sent_at=0.0, serial=1, returned_ttl=int(ZONE_TTL * 0.95)),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.warmup_ttl_altered == 0


def test_serial_decrease_marks_fragmentation():
    # Serials 1, 3, then 1 again (different backend cache): CCdec.
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=700.0, serial=2, returned_ttl=1800),
        make_answer(sent_at=1400.0, serial=1, returned_ttl=400),
    ]
    table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert classified[2].serial_decreased
    assert table.cc_decreasing == 1


def test_one_answer_vps_excluded():
    answers = [make_answer(probe_id=1), make_answer(probe_id=2)]
    table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.one_answer_vps == 2
    assert table.warmup == 0
    assert classified == []


def test_failed_answers_ignored():
    answers = [
        make_answer(sent_at=0.0),
        make_answer(sent_at=600.0, status=StubAnswer.NO_ANSWER),
        make_answer(sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.answers_valid == 2


def test_vps_tracked_independently():
    answers = [
        make_answer(probe_id=1, resolver="a", sent_at=0.0, serial=1),
        make_answer(probe_id=1, resolver="b", sent_at=0.0, serial=1),
        make_answer(probe_id=1, resolver="a", sent_at=1200.0, serial=1, returned_ttl=600),
        make_answer(probe_id=1, resolver="b", sent_at=1200.0, serial=3),
    ]
    table, _ = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    assert table.warmup == 2
    assert table.cc == 1
    assert table.ac == 1


def test_miss_rate_denominator_excludes_warmup():
    answers = [
        make_answer(sent_at=0.0, serial=1),
        make_answer(sent_at=1200.0, serial=3),  # AC
        make_answer(sent_at=3600.0, serial=7),  # AA (previous TTL expired)
    ]
    table, _ = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
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
    _table, classified = classify_answers(AnswerLog(answers), ZONE_TTL, ROTATION)
    attribution = classify_misses_by_resolver(classified, registry)
    assert attribution.ac_total == 3
    assert attribution.public_r1 == 2
    assert attribution.google_r1 == 1
    assert attribution.other_public_r1 == 1
    assert attribution.non_public_r1 == 1


# ----------------------------------------------------------------------
# Goldens: the per-row classes of whole runs
# ----------------------------------------------------------------------
def _classified_digest(classified) -> str:
    """sha256 over the canonical rows: answer fields, class, both flags."""
    import hashlib

    digest = hashlib.sha256()
    for item in classified:
        answer = item.answer
        row = (
            answer.probe_id,
            answer.resolver,
            answer.round_index,
            answer.sent_at,
            answer.answered_at,
            answer.status,
            None if answer.rcode is None else int(answer.rcode),
            answer.returned_ttl,
            answer.serial,
            answer.encoded_ttl,
            answer.record_count,
            item.answer_class.value,
            item.ttl_altered,
            item.serial_decreased,
        )
        digest.update(repr(row).encode("ascii") + b"\n")
    return digest.hexdigest()


def _classified_run(kind: str, seed: int):
    """(table, classified) of a 60-probe H, I or TTL-1800 baseline run."""
    from repro.core.experiments import (
        BASELINE_EXPERIMENTS,
        DDOS_EXPERIMENTS,
        run_baseline,
        run_ddos,
    )

    if kind == "baseline-1800":
        result = run_baseline(BASELINE_EXPERIMENTS["1800"], probe_count=60, seed=seed)
        return result.table2, result.classified
    spec = DDOS_EXPERIMENTS[kind]
    result = run_ddos(spec, probe_count=60, seed=seed)
    table, classified = classify_answers(
        result.answers, spec.ttl, result.testbed.rotation
    )
    assert classified == result.classified
    return table, classified


# Captured before answers and classes became column stores: Table 2's
# counts (ClassificationTable fields, in order), the classified row count
# and the row digest.
CLASSIFIED_GOLDENS = {
    ("H", 42): (
        (1665, 0, 103, 102, 1, 269, 783, 88, 453, 453, 0, 57, 7),
        1665,
        "16bd69d67d6182dd5df5eb1cf7604a029a9f5739d6e0c1b7f720523dbdec4430",
    ),
    ("H", 7): (
        (1505, 0, 97, 90, 7, 314, 651, 88, 386, 386, 0, 57, 6),
        1505,
        "7eeafe3636d2dea6fd3a0790fe6ada562d020400721eaa545a0fb15b0286349d",
    ),
    ("I", 42): (
        (1525, 0, 103, 103, 0, 1375, 0, 0, 12, 12, 0, 35, 22),
        1525,
        "2dcadc19eec0c6994225c2b10a7eb9728e9e8fe55a37305e9c3b553950a72488",
    ),
    ("I", 7): (
        (1396, 0, 97, 97, 0, 1264, 0, 0, 0, 0, 0, 35, 26),
        1396,
        "cca9fcbe60b80456655f4ed6c131b4b1c7afe3fe84542af18d77b4091e3b64a4",
    ),
    ("baseline-1800", 42): (
        (612, 0, 103, 102, 1, 135, 177, 0, 195, 195, 0, 2, 0),
        612,
        "f89d3c5484c9eeca34c831743730d770884b2c295921bf18369daa2cddf18e87",
    ),
    ("baseline-1800", 7): (
        (574, 0, 97, 90, 7, 144, 152, 0, 180, 180, 0, 1, 0),
        574,
        "b828142c515436a559fe220b3bb7ebafe1af2b9b168805226f5a26716920c18b",
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(CLASSIFIED_GOLDENS))
def test_classified_rows_match_goldens(kind, seed):
    table, classified = _classified_run(kind, seed)
    counts, rows, digest = CLASSIFIED_GOLDENS[kind, seed]
    assert dataclasses.astuple(table) == counts
    assert len(classified) == rows
    assert _classified_digest(classified) == digest
