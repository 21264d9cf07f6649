"""Picklable result shapes for cross-process and cross-session transport.

:class:`~repro.core.experiments.baseline.BaselineResult` is already a
plain bundle of dataclasses, but
:class:`~repro.core.experiments.ddos.DDoSResult` carries the live
:class:`~repro.core.testbed.Testbed` it ran in — megabytes of wired
simulator state full of bound callbacks that neither pickle nor belong in
a result cache. Every derived series the analysis code reads off the
testbed comes from exactly three attributes, so :class:`TestbedSnapshot`
captures those and stands in for the testbed on detached results.

Everything per row in a result is a column store (:mod:`repro.columns`):
the client answers (:class:`~repro.resolvers.stub.AnswerLog`), their
§3.4 classes (:class:`~repro.core.classification.ClassifiedLog`, which
points into the answers, so a pickle holds them once), the query log
and the spans. A detached result therefore pickles as a few dozen typed
arrays and small tables, and loading it builds about the same number of
objects whatever the probe count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.core.experiments.ddos import DDoSResult
from repro.dnscore.name import Name
from repro.servers.querylog import QueryLog


@dataclass
class TestbedSnapshot:
    """The slice of a :class:`Testbed` that survives the run.

    Duck-types the testbed for every consumer of a finished
    :class:`DDoSResult`: the offered-load query log (Figures 10–12,
    trace export) plus the zone origin and NS names used to classify
    queries, and — when the run enabled observability — the emitted
    spans, per-round metric snapshots, and kernel profile. The query log
    and the spans are column stores (:mod:`repro.columns`) handed over
    as they are: they pickle as a few typed arrays plus their interned
    tables, so the worker boundary and the disk cache move buffers, not
    one object per packet. ``spans`` reads as a sequence of
    :class:`~repro.obs.records.SpanEvent` (a view, not a list).
    """

    # Not a pytest test class, despite the name.
    __test__ = False

    origin: Name
    test_ns_names: List[Name]
    offered_query_log: QueryLog
    spans: Sequence[Any] = field(default_factory=list, repr=False)
    metric_snapshots: List[Any] = field(default_factory=list, repr=False)
    # Flight-recorder timeline points (repro.obs.timeline); empty unless
    # the run carried a TimelineSpec.
    timeline_points: List[Any] = field(default_factory=list, repr=False)
    # Per-source SourceSketch (plain ints/lists, pickles natively); None
    # unless the run carried a TimelineSpec with sketching on.
    source_sketch: Optional[Any] = field(default=None, repr=False)
    profile: Optional[Dict[str, Any]] = field(default=None, repr=False)
    # Defense/attack counter dicts (None when those subsystems are off),
    # mirroring the live testbed's properties of the same names.
    defense_stats: Optional[Dict[str, Any]] = field(default=None, repr=False)
    attack_stats: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @classmethod
    def from_testbed(cls, testbed: Any) -> "TestbedSnapshot":
        return cls(
            origin=testbed.origin,
            test_ns_names=list(testbed.test_ns_names),
            offered_query_log=testbed.offered_query_log,
            spans=testbed.spans,
            metric_snapshots=list(testbed.metric_snapshots),
            timeline_points=list(testbed.timeline_points),
            source_sketch=testbed.source_sketch,
            profile=testbed.profile_summary(),
            defense_stats=testbed.defense_stats,
            attack_stats=testbed.attack_stats,
        )

    # Match the live testbed's accessor so consumers need not care which
    # shape they hold.
    def profile_summary(self) -> Optional[Dict[str, Any]]:
        return self.profile


def detach_result(result: Any) -> Any:
    """Return a picklable equivalent of an experiment result.

    DDoS results have their testbed replaced by a
    :class:`TestbedSnapshot`; everything else passes through unchanged.
    Idempotent, so cached and freshly-computed results take the same
    shape.
    """
    if isinstance(result, DDoSResult) and not isinstance(
        result.testbed, TestbedSnapshot
    ):
        return replace(
            result, testbed=TestbedSnapshot.from_testbed(result.testbed)
        )
    return result
