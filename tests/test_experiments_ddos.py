"""Integration tests for the DDoS experiment runner (small scale)."""

import dataclasses

import pytest

from repro.core.experiments import DDOS_EXPERIMENTS, run_ddos
from repro.resolvers.stub import StubAnswer


@pytest.fixture(scope="module")
def experiment_h():
    """Experiment H: 90% loss on both servers, TTL 1800."""
    return run_ddos(DDOS_EXPERIMENTS["H"], probe_count=150, seed=3)


@pytest.fixture(scope="module")
def experiment_a():
    """Experiment A: full outage right after one warm-up round."""
    return run_ddos(DDOS_EXPERIMENTS["A"], probe_count=150, seed=3)


def test_specs_match_table4():
    assert set(DDOS_EXPERIMENTS) == set("ABCDEFGHI")
    assert DDOS_EXPERIMENTS["E"].loss_fraction == 0.50
    assert DDOS_EXPERIMENTS["H"].loss_fraction == 0.90
    assert DDOS_EXPERIMENTS["I"].ttl == 60
    assert DDOS_EXPERIMENTS["D"].servers == "one"
    assert DDOS_EXPERIMENTS["G"].ttl == 300


def test_failures_rise_during_attack(experiment_h):
    before = experiment_h.failure_fraction_before_attack()
    during = experiment_h.failure_fraction_during_attack()
    assert during > before + 0.15
    # Paper: ~40% failures at 90% loss; more than half still served.
    assert 0.2 < during < 0.6


def test_outcomes_by_round_recover_after_attack(experiment_h):
    series = experiment_h.outcomes_by_round()
    last_round = max(series)
    last = series[last_round]
    total = sum(last.values())
    assert last["ok"] / total > 0.8  # recovery


def test_amplification_against_paper_band(experiment_h):
    # Paper: 8.2x at 90% loss; accept a wide band at small scale.
    amplification = experiment_h.amplification()
    assert 3.0 < amplification < 15.0


def test_latency_tail_grows_during_attack(experiment_h):
    spec = experiment_h.spec
    series = {row.round_index: row for row in experiment_h.latency_series()}
    attack_round = int(spec.attack_window[0] // spec.round_seconds) + 2
    normal = series[1]
    attacked = series[attack_round]
    assert attacked.p90_ms > normal.p90_ms * 2


def test_unique_rn_grows_during_attack(experiment_h):
    spec = experiment_h.spec
    series = experiment_h.unique_rn()
    attack_round = int(spec.attack_window[0] // spec.round_seconds) + 2
    assert series[attack_round] > series[1]


def test_complete_outage_cache_only_window(experiment_a):
    series = experiment_a.outcomes_by_round()
    # Round 0: normal. Rounds 1-5: cache-only (TTL 3600 covers them).
    warm = series[0]
    assert warm["ok"] / sum(warm.values()) > 0.85
    cache_only = series[3]
    ok_fraction = cache_only["ok"] / sum(cache_only.values())
    # Paper: 35–70% of queries served from cache during full outage.
    assert 0.25 < ok_fraction < 0.75


def test_complete_outage_after_cache_expiry(experiment_a):
    series = experiment_a.outcomes_by_round()
    # After 70 minutes (cache filled in round 0 + TTL 3600): near-total
    # failure; only serve-stale survivors remain.
    late = series[9]
    ok_fraction = late["ok"] / sum(late.values())
    assert ok_fraction < 0.1


def test_stale_answers_have_ttl_zero(experiment_a):
    stale_ok = [
        answer
        for answer in experiment_a.answers
        if answer.is_success
        and answer.sent_at > 75 * 60
        and answer.returned_ttl == 0
    ]
    late_ok = [
        answer
        for answer in experiment_a.answers
        if answer.is_success and answer.sent_at > 75 * 60
    ]
    if late_ok:  # survivors exist: they must be overwhelmingly stale
        assert len(stale_ok) >= len(late_ok) * 0.5


def test_class_timeseries_shows_cc_during_attack(experiment_a):
    series = experiment_a.class_timeseries()
    cache_only = series.get(3, {})
    assert cache_only.get("CC", 0) > 0


def test_moderate_attack_mostly_survives():
    result = run_ddos(DDOS_EXPERIMENTS["E"], probe_count=120, seed=3)
    during = result.failure_fraction_during_attack()
    before = result.failure_fraction_before_attack()
    # Paper: 8.5% during vs 4.8% before at 50% loss.
    assert during < before + 0.1
    assert during < 0.2


def test_one_server_attack_barely_noticed():
    result = run_ddos(DDOS_EXPERIMENTS["D"], probe_count=120, seed=3)
    during = result.failure_fraction_during_attack()
    before = result.failure_fraction_before_attack()
    # Paper Fig 14a: no significant change when one NS takes 50% loss.
    assert during < before + 0.06


def test_queue_only_attack_stretches_latency_not_reliability():
    """A pure-delay attack (0% loss, 400 ms mean queueing) installs its
    window: mid-attack latency more than doubles against the same run's
    pre-attack rounds while the failure rate stays within 8 points."""
    spec = dataclasses.replace(
        DDOS_EXPERIMENTS["H"], key="Hq0", loss_fraction=0.0, queue_delay=0.4
    )
    result = run_ddos(spec, probe_count=60, seed=42)
    latency = {row.round_index: row for row in result.latency_series()}
    assert latency[8].mean_ms > 2 * latency[2].mean_ms
    assert (
        result.failure_fraction_during_attack()
        < result.failure_fraction_before_attack() + 0.08
    )


def test_probe_answers_never_parse_ipv6_text(monkeypatch):
    """The AAAA answer path is integer arithmetic end to end: a whole
    experiment-H run builds no ``IPv6Address`` in the records module
    (one per answer was the biggest dnscore cost). Counted, not timed."""
    import ipaddress
    import types

    from repro.core.testbed import Testbed
    from repro.dnscore import records

    constructed = []

    def counting_ipv6(*args):
        constructed.append(args)
        return ipaddress.IPv6Address(*args)

    run = Testbed.run

    def counted_run(self, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(
                records,
                "ipaddress",
                types.SimpleNamespace(
                    IPv4Address=ipaddress.IPv4Address, IPv6Address=counting_ipv6
                ),
            )
            return run(self, *args, **kwargs)

    monkeypatch.setattr(Testbed, "run", counted_run)
    result = run_ddos(DDOS_EXPERIMENTS["H"], probe_count=16, seed=3)
    assert any(answer.serial is not None for answer in result.answers)
    assert constructed == []


def test_run_builds_no_answer_rows(monkeypatch):
    """Stubs write their observations straight into the answer columns:
    a whole experiment-H run constructs no ``StubAnswer`` (rows exist
    only when something reads the log as a sequence). Counted, not
    timed."""
    from repro.core.testbed import Testbed

    constructed = []
    init = StubAnswer.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    run = Testbed.run

    def counted_run(self, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(StubAnswer, "__init__", counting_init)
            return run(self, *args, **kwargs)

    monkeypatch.setattr(Testbed, "run", counted_run)
    result = run_ddos(DDOS_EXPERIMENTS["H"], probe_count=16, seed=3)
    assert len(result.answers) > 100
    assert constructed == []
