"""DDoS emulation experiments A–I (paper Table 4, §5–§6).

Each experiment warms caches for some number of rounds, then drops a
fraction of inbound packets at the measurement zone's authoritatives for
an hour, while probing continues every 10 minutes. The result object
carries every series the paper plots from these runs: client outcomes
over time (Figures 6/8/14), answer-class timeseries (Figure 7), latency
quantiles (Figures 9/15), authoritative load by query kind (Figure 10),
per-probe amplification (Figure 11), and unique recursives over time
(Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clients.population import PopulationConfig
from repro.core.classification import (
    ClassifiedLog,
    class_timeseries,
    classify_answers,
)
from repro.core.metrics import (
    LatencyQuantiles,
    amplification_factor,
    authoritative_load_by_round,
    failure_fraction,
    latency_by_round,
    per_probe_amplification,
    responses_by_round,
    unique_rn_by_round,
)
from repro.core.testbed import Testbed, TestbedConfig
from repro.obs import ObsSpec
from repro.resolvers.stub import AnswerLog


@dataclass
class DDoSSpec:
    """One row of Table 4 (times in minutes, like the paper's table)."""

    key: str
    ttl: int
    ddos_start_min: float
    ddos_duration_min: float
    queries_before: int
    total_duration_min: float
    probe_interval_min: float
    loss_fraction: float
    servers: str  # "both" or "one"
    # Extra mean queueing delay for surviving packets during the attack
    # (the §5.1 future-work extension; 0 matches the paper's emulation).
    queue_delay: float = 0.0

    @property
    def round_seconds(self) -> float:
        return self.probe_interval_min * 60.0

    @property
    def attack_window(self) -> Tuple[float, float]:
        start = self.ddos_start_min * 60.0
        return (start, start + self.ddos_duration_min * 60.0)

    @property
    def attack_rounds(self) -> List[int]:
        """Indexes of the probing rounds that start inside the attack."""
        start, end = self.attack_window
        rounds = int(self.total_duration_min / self.probe_interval_min)
        return [
            index
            for index in range(rounds)
            if start <= index * self.round_seconds < end
        ]

    def describe(self) -> str:
        which = "both NSes" if self.servers == "both" else "one NS"
        return (
            f"Experiment {self.key}: TTL {self.ttl}s, "
            f"{self.loss_fraction:.0%} loss on {which}, "
            f"attack {self.ddos_start_min:.0f}–"
            f"{self.ddos_start_min + self.ddos_duration_min:.0f} min"
        )


# Table 4, parameters section. Two adjustments match the figures rather
# than the table: Experiment A is "1down" (the authoritatives never
# recover inside the 120-minute run, Figure 6a), and Experiment B runs
# 180 minutes (its figures cover 170; nothing happens after recovery +
# cache lifetime).
DDOS_EXPERIMENTS: Dict[str, DDoSSpec] = {
    "A": DDoSSpec("A", 3600, 10, 110, 1, 120, 10, 1.00, "both"),
    "B": DDoSSpec("B", 3600, 60, 60, 6, 180, 10, 1.00, "both"),
    "C": DDoSSpec("C", 1800, 60, 60, 6, 180, 10, 1.00, "both"),
    "D": DDoSSpec("D", 1800, 60, 60, 6, 180, 10, 0.50, "one"),
    "E": DDoSSpec("E", 1800, 60, 60, 6, 180, 10, 0.50, "both"),
    "F": DDoSSpec("F", 1800, 60, 60, 6, 180, 10, 0.75, "both"),
    "G": DDoSSpec("G", 300, 60, 60, 6, 180, 10, 0.75, "both"),
    "H": DDoSSpec("H", 1800, 60, 60, 6, 180, 10, 0.90, "both"),
    "I": DDoSSpec("I", 60, 60, 60, 6, 180, 10, 0.90, "both"),
}


@dataclass
class DDoSResult:
    """Raw results plus derived series for one DDoS experiment."""

    spec: DDoSSpec
    answers: AnswerLog
    classified: ClassifiedLog
    testbed: Testbed = field(repr=False)

    @property
    def timeline_points(self):
        """Flight-recorder timeline (empty without a ``TimelineSpec``).

        Works against the live testbed and the detached
        :class:`~repro.runner.results.TestbedSnapshot` alike.
        """
        return self.testbed.timeline_points

    # ------------------------------------------------------------------
    # Client-side series
    # ------------------------------------------------------------------
    def outcomes_by_round(self) -> Dict[int, Dict[str, int]]:
        """Figures 6/8/14: OK / SERVFAIL / no-answer per round."""
        return responses_by_round(self.answers, self.spec.round_seconds)

    def class_timeseries(self) -> Dict[int, Dict[str, int]]:
        """Figure 7: AA/CC/CA(+AC) per round."""
        return class_timeseries(self.classified, self.spec.round_seconds, True)

    def latency_series(self) -> List[LatencyQuantiles]:
        """Figures 9/15: latency quantiles per round."""
        return latency_by_round(self.answers, self.spec.round_seconds)

    def failure_fraction_during_attack(self) -> float:
        return failure_fraction(self.answers, self.spec.attack_window)

    def failure_fraction_before_attack(self) -> float:
        return failure_fraction(self.answers, (0.0, self.spec.attack_window[0]))

    # ------------------------------------------------------------------
    # Authoritative-side series
    # ------------------------------------------------------------------
    def authoritative_load(self) -> Dict[int, Dict[str, int]]:
        """Figure 10: query kinds per round at the target authoritatives."""
        return authoritative_load_by_round(
            self.testbed.offered_query_log,
            self.testbed.origin,
            self.testbed.test_ns_names,
            self.spec.round_seconds,
        )

    def amplification(self) -> float:
        """§6.1's offered-load multiplier (attack vs pre-attack rounds)."""
        load = self.authoritative_load()
        start, end = self.spec.attack_window
        round_seconds = self.spec.round_seconds
        normal = [
            index
            for index in load
            if index * round_seconds < start and index > 0
        ]
        if not normal:
            # Attack starting in round 1 (Experiment A): the warm-up
            # round is the only pre-attack reference.
            normal = [index for index in load if index * round_seconds < start]
        attack = [
            index
            for index in load
            if start <= index * round_seconds < end
        ]
        return amplification_factor(load, normal, attack)

    def unique_rn(self) -> Dict[int, int]:
        """Figure 12: unique Rn addresses per round."""
        return unique_rn_by_round(
            self.testbed.offered_query_log, self.spec.round_seconds
        )

    def per_probe(self):
        """Figure 11: per-probe Rn fan-out and query amplification."""
        return per_probe_amplification(
            self.testbed.offered_query_log,
            self.testbed.origin,
            self.spec.round_seconds,
        )


def run_ddos(
    spec: DDoSSpec,
    probe_count: int = 1500,
    seed: int = 42,
    population: Optional[PopulationConfig] = None,
    obs: Optional[ObsSpec] = None,
    attack_load=None,
    defense=None,
) -> DDoSResult:
    """Run one Table 4 experiment end to end.

    Queries are offered before (``queries_before`` rounds), during, and
    after the attack, per the paper's timeline; the offered query load at
    the authoritatives is measured before the attack drop (the drop
    happens at the network, mirroring iptables at the last hop).

    ``obs`` enables the observability layers; with metrics on, the
    registry is snapshotted at every round boundary plus once after the
    run (the grace-period tail, labelled with the round count).

    ``attack_load`` (an :class:`~repro.attackload.AttackLoadSpec`) adds
    adversarial query streams and ``defense`` (a
    :class:`~repro.defense.DefenseSpec`) arms the measurement-zone
    authoritatives; with both None and ``loss_fraction`` > 0 this is
    exactly the paper's axiomatic-drop experiment. A spec with
    ``loss_fraction`` and ``queue_delay`` both 0 schedules no attack
    window at all — the defense-study runs use that to let loss emerge
    from saturation instead.
    """
    population_config = population or PopulationConfig(probe_count=probe_count)
    testbed = Testbed(
        TestbedConfig(
            seed=seed,
            zone_ttl=spec.ttl,
            population=population_config,
            obs=obs,
            attack_load=attack_load,
            defense=defense,
        )
    )
    duration = spec.total_duration_min * 60.0
    attack_start, attack_end = spec.attack_window
    if spec.loss_fraction > 0 or spec.queue_delay > 0:
        testbed.add_attack(
            attack_start,
            attack_end - attack_start,
            spec.loss_fraction,
            servers=spec.servers,
            label=f"exp-{spec.key}",
            queue_delay=spec.queue_delay,
        )
    testbed.schedule_rotations(duration)
    testbed.schedule_churn(duration)
    rounds = int(spec.total_duration_min / spec.probe_interval_min)
    testbed.schedule_probing(0.0, spec.round_seconds, rounds)
    testbed.schedule_metric_snapshots(spec.round_seconds, rounds)
    testbed.run(duration)
    testbed.take_metric_snapshot(rounds)

    answers = testbed.population.results
    _table, classified = classify_answers(answers, spec.ttl, testbed.rotation)
    return DDoSResult(
        spec=spec, answers=answers, classified=classified, testbed=testbed
    )
