"""The §3 caching baseline: five controlled TTL experiments.

Each experiment queries every VP's unique name once per probing round
against the instrumented zone, with no attack, and classifies every
answer. Reproduces Table 1 (dataset accounting), Table 2 (answer
classes), Table 3 (public-resolver attribution of misses), Figure 3
(warm-cache miss fractions per TTL), and Figure 13 (class mix over time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clients.population import PopulationConfig
from repro.core.classification import (
    AnswerClass,
    ClassificationTable,
    ClassifiedAnswer,
    MissAttribution,
    classify_answers,
    classify_misses_by_resolver,
)
from repro.core.metrics import round_index_of
from repro.core.testbed import Testbed, TestbedConfig
from repro.simcore.events import DEFAULT_QUEUE_BACKEND
from repro.obs import ObsSpec
from repro.resolvers.stub import StubAnswer


@dataclass
class BaselineSpec:
    """One column of Table 1."""

    key: str
    ttl: int
    probe_interval: float  # seconds between rounds
    rounds: int

    @property
    def duration(self) -> float:
        return self.probe_interval * self.rounds


# The paper's five baseline experiments (Table 1): four at 20-minute
# probing over ~2 hours, the fifth at 10-minute probing for resolution.
BASELINE_EXPERIMENTS: Dict[str, BaselineSpec] = {
    "60": BaselineSpec("60", 60, 1200.0, 6),
    "1800": BaselineSpec("1800", 1800, 1200.0, 6),
    "3600": BaselineSpec("3600", 3600, 1200.0, 6),
    "86400": BaselineSpec("86400", 86400, 1200.0, 6),
    "3600-10m": BaselineSpec("3600-10m", 3600, 600.0, 12),
}


@dataclass
class DatasetCounts:
    """Table 1 row group for one experiment."""

    probes: int = 0
    probes_valid: int = 0
    probes_discarded: int = 0
    vps: int = 0
    queries: int = 0
    answers: int = 0
    answers_valid: int = 0
    answers_discarded: int = 0

    def as_rows(self) -> List[Tuple[str, int]]:
        return [
            ("Probes", self.probes),
            ("Probes (val.)", self.probes_valid),
            ("Probes (disc.)", self.probes_discarded),
            ("VPs", self.vps),
            ("Queries", self.queries),
            ("Answers", self.answers),
            ("Answers (val.)", self.answers_valid),
            ("Answers (disc.)", self.answers_discarded),
        ]


@dataclass
class BaselineResult:
    """Everything the §3 analyses need from one run."""

    spec: BaselineSpec
    dataset: DatasetCounts
    table2: ClassificationTable
    table3: MissAttribution
    classified: List[ClassifiedAnswer]
    answers: List[StubAnswer]
    # Observability payloads (empty/None unless the run enabled them).
    # BaselineResult has no live testbed reference, so telemetry is
    # carried directly and survives pickling through the runner cache;
    # ``spans`` is the tracer's SpanLog itself (a sequence view of
    # SpanEvent rows over columns), not a copied list.
    spans: Sequence = field(default_factory=list, repr=False)
    metric_snapshots: List = field(default_factory=list, repr=False)
    timeline_points: List = field(default_factory=list, repr=False)
    profile: Optional[dict] = field(default=None, repr=False)

    @property
    def miss_rate(self) -> float:
        return self.table2.miss_rate

    def class_timeseries(self) -> Dict[int, Dict[str, int]]:
        """Figure 13: answer classes per probing round."""
        series: Dict[int, Dict[str, int]] = {}
        for item in self.classified:
            if item.answer_class == AnswerClass.WARMUP:
                continue
            bucket = series.setdefault(
                round_index_of(item.time, self.spec.probe_interval),
                {"AA": 0, "AC": 0, "CC": 0, "CA": 0},
            )
            bucket[item.answer_class.value] += 1
        return series


def dataset_counts(testbed: Testbed, answers: List[StubAnswer]) -> DatasetCounts:
    """Table 1 accounting from raw stub results."""
    counts = DatasetCounts()
    counts.probes = len(testbed.population.probes)
    counts.vps = testbed.population.vp_count
    counts.queries = len(answers)
    answered_probes = set()
    for answer in answers:
        if answer.status != StubAnswer.NO_ANSWER:
            counts.answers += 1
            answered_probes.add(answer.probe_id)
            if answer.is_success and answer.serial is not None:
                counts.answers_valid += 1
            else:
                counts.answers_discarded += 1
    counts.probes_valid = len(answered_probes)
    counts.probes_discarded = counts.probes - counts.probes_valid
    return counts


def run_baseline(
    spec: BaselineSpec,
    probe_count: int = 1500,
    seed: int = 42,
    population: Optional[PopulationConfig] = None,
    wire_format: bool = False,
    obs: Optional[ObsSpec] = None,
    queue_backend: str = DEFAULT_QUEUE_BACKEND,
) -> BaselineResult:
    """Run one baseline experiment end to end."""
    population_config = population or PopulationConfig(probe_count=probe_count)
    testbed = Testbed(
        TestbedConfig(
            seed=seed,
            zone_ttl=spec.ttl,
            population=population_config,
            wire_format=wire_format,
            obs=obs,
            queue_backend=queue_backend,
        )
    )
    duration = spec.duration
    testbed.schedule_rotations(duration)
    testbed.schedule_churn(duration)
    testbed.schedule_probing(0.0, spec.probe_interval, spec.rounds)
    testbed.schedule_metric_snapshots(spec.probe_interval, spec.rounds)
    testbed.run(duration)
    testbed.take_metric_snapshot(spec.rounds)

    answers = testbed.population.results
    counts = dataset_counts(testbed, answers)
    table2, classified = classify_answers(answers, spec.ttl, testbed.rotation)
    table3 = classify_misses_by_resolver(
        classified,
        testbed.population.registry,
        query_log=testbed.query_log,
        zone_origin=testbed.origin,
    )
    return BaselineResult(
        spec=spec,
        dataset=counts,
        table2=table2,
        table3=table3,
        classified=classified,
        answers=answers,
        spans=testbed.spans,
        metric_snapshots=list(testbed.metric_snapshots),
        timeline_points=list(testbed.timeline_points),
        profile=testbed.profile_summary(),
    )
