"""Observability configuration and wiring.

:class:`ObsSpec` is the user-facing switch: a tiny frozen dataclass that
rides on :class:`repro.runner.executor.RunRequest` (it must be hashable
and canonicalizable for the disk-cache key) and on ``TestbedConfig``.

:class:`Observability` is the wired form the testbed builds from a spec:
the tracer, registry, flight recorder, and profiling flag, each
``None``/``False`` when disabled so components can capture the disabled
state once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineRecorder, TimelineSpec
from repro.obs.trace import Tracer


@dataclass(frozen=True)
class ObsSpec:
    """Which observability layers to enable for a run."""

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    # Flight-recorder timeline sampling (repro.obs.timeline); None = off.
    # A nested frozen spec, so it canonicalizes into the cache key like
    # every other field.
    timeline: Optional[TimelineSpec] = None


class Observability:
    """Live observability plumbing for one testbed."""

    __slots__ = ("spec", "tracer", "registry", "recorder", "sim")

    def __init__(
        self,
        spec: ObsSpec,
        sim,
        tracer: Optional[Tracer],
        registry: Optional[MetricsRegistry],
        recorder: Optional[TimelineRecorder] = None,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.tracer = tracer
        self.registry = registry
        self.recorder = recorder

    @classmethod
    def build(cls, spec: Optional[ObsSpec], sim) -> "Observability":
        """Wire up the requested layers; everything off for ``spec=None``."""
        if spec is None:
            spec = ObsSpec()
        tracer = Tracer(sim) if spec.trace else None
        # The flight recorder samples through the registry (instruments
        # plus pull collectors), so a timeline-only run still gets one;
        # per-round snapshots stay gated on ``spec.metrics``.
        registry = (
            MetricsRegistry()
            if (spec.metrics or spec.timeline is not None)
            else None
        )
        recorder = (
            TimelineRecorder(spec.timeline, sim, registry)
            if spec.timeline is not None
            else None
        )
        if spec.profile:
            sim.enable_profiling()
        return cls(spec, sim, tracer, registry, recorder)

    @property
    def spans(self):
        """The tracer's :class:`~repro.obs.records.SpanLog`, a read-only
        sequence of span events (empty list when tracing is off)."""
        return self.tracer.events if self.tracer is not None else []

    @property
    def metric_snapshots(self):
        """Collected metric snapshots (empty list when metrics are off)."""
        return self.registry.snapshots if self.registry is not None else []

    @property
    def timeline_points(self):
        """Collected timeline points (empty list when the recorder is off)."""
        return self.recorder.points if self.recorder is not None else []

    def profile_summary(self) -> Optional[dict]:
        """The simulator's profile as plain data, or ``None``."""
        profile = getattr(self.sim, "profile", None)
        return profile.summary() if profile is not None else None
