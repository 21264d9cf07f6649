"""The paper's contribution: measurement methodology and experiments.

* :mod:`~repro.core.classification` — the AA/CC/AC/CA answer classifier
  (paper §3.4), TTL-manipulation detection, cache-fragmentation markers,
  and the public-resolver attribution of cache misses (§3.5).
* :mod:`~repro.core.metrics` — client-experience and authoritative-side
  aggregations behind every figure.
* :mod:`~repro.core.testbed` — assembles the measurement worlds: the
  shared :class:`World` (zone tree, authoritatives, attack schedule,
  zone rotation) and the population :class:`Testbed` on top of it.
* :mod:`~repro.core.experiments` — one runner per paper experiment.
"""

from repro.core.classification import (
    AnswerClass,
    ClassificationTable,
    ClassifiedAnswer,
    ClassifiedLog,
    RotationSchedule,
    classify_answers,
    classify_misses_by_resolver,
)
from repro.core.metrics import (
    LatencyQuantiles,
    latency_by_round,
    responses_by_round,
    round_index_of,
)
from repro.core.testbed import Testbed, TestbedConfig, World

__all__ = [
    "AnswerClass",
    "ClassificationTable",
    "ClassifiedAnswer",
    "ClassifiedLog",
    "LatencyQuantiles",
    "RotationSchedule",
    "Testbed",
    "TestbedConfig",
    "World",
    "classify_answers",
    "classify_misses_by_resolver",
    "latency_by_round",
    "responses_by_round",
    "round_index_of",
]
