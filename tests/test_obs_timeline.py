"""Flight-recorder timelines: cadence, reconciliation, and transport.

Scaled like tests/test_obs_metrics.py: small probe counts and a coarse
sampling interval (300 s) keep every run inside the tier-1 time budget.
"""

import io

import pytest

from repro.core.experiments.ddos import DDOS_EXPERIMENTS, run_ddos
from repro.core.metrics import responses_by_round
from repro.obs import (
    DEFAULT_SERIES,
    ObsSpec,
    SpanFormatError,
    TimelinePoint,
    TimelineSpec,
    export_timeline,
    import_timeline,
    validate_timeline,
)
from repro.runner import DiskCache, cache_key, ddos_request, run_many
from repro.simcore import simulator as simulator_module
from repro.simcore.events import (
    DEFAULT_QUEUE_BACKEND,
    make_queue,
    resolve_queue_backend,
)

TIMELINE = ObsSpec(timeline=TimelineSpec(interval=300.0))


def run_h(probe_count=16, seed=5, obs=TIMELINE, jobs=1, **kwargs):
    [result] = run_many(
        [
            ddos_request(
                DDOS_EXPERIMENTS["H"],
                probe_count=probe_count,
                seed=seed,
                obs=obs,
                **kwargs,
            )
        ],
        jobs=jobs,
    )
    return result


# ----------------------------------------------------------------------
# Sampling cadence
# ----------------------------------------------------------------------
def test_cadence_and_final_sample_at_run_end():
    result = run_h()
    points = result.timeline_points
    spec = DDOS_EXPERIMENTS["H"]
    until = spec.total_duration_min * 60.0 + 20.0  # duration + grace

    assert [point.index for point in points] == list(range(len(points)))
    times = [point.time for point in points]
    assert times == sorted(times)
    assert all(later - earlier <= 300.0 + 1e-9
               for earlier, later in zip(times, times[1:]))
    # The recorder's last sample lands exactly at the run limit — the
    # same instant as the final metrics snapshot, so totals reconcile.
    assert times[-1] == pytest.approx(until)
    validate_timeline(points)

    for series in DEFAULT_SERIES:
        assert series in points[-1].values
    assert "sketch.entropy_bits" in points[-1].values


def test_timeline_reconciles_with_exact_ground_truth():
    result = run_h()
    final = result.timeline_points[-1].values

    # Offered load: the cumulative total equals the exact query log.
    assert final["offered_total"] == len(
        result.testbed.offered_query_log.entries
    )
    # Client outcomes: cumulative ok/answered equal the per-round series
    # the paper's figures are built from.
    by_round = responses_by_round(
        result.answers, DDOS_EXPERIMENTS["H"].round_seconds
    )
    ok = sum(bucket.get("ok", 0) for bucket in by_round.values())
    answered = sum(sum(bucket.values()) for bucket in by_round.values())
    assert final["client_ok_total"] == ok
    assert final["client_answered_total"] == answered


def test_sketch_tracks_exact_per_source_counts():
    result = run_h()
    sketch = result.testbed.source_sketch
    exact = result.testbed.offered_query_log.per_source_counts()

    assert sketch.total == sum(exact.values())
    bound = sketch.cms.error_bound()
    for src, count, _error in sketch.heavy_hitters(10):
        assert abs(count - exact[src]) <= bound


# ----------------------------------------------------------------------
# Determinism: parallelism and queue backend must not leak in
# ----------------------------------------------------------------------
def test_timeline_identical_across_job_counts():
    serial = run_h(jobs=1).timeline_points
    parallel = run_h(jobs=4).timeline_points
    assert [p.as_dict() for p in serial] == [p.as_dict() for p in parallel]


def test_timeline_identical_across_queue_backends(monkeypatch):
    # Heap reference vs whichever engine this build runs by default
    # (native when built). Experiments take no engine option, so swap the
    # kernel's queue factory, the only selection seam there is.
    def timeline_on(backend):
        monkeypatch.setattr(
            simulator_module, "make_queue", lambda _name: make_queue(backend)
        )
        points = run_h().timeline_points
        monkeypatch.undo()
        return [point.as_dict() for point in points]

    default = resolve_queue_backend(DEFAULT_QUEUE_BACKEND)
    assert timeline_on("heap") == timeline_on(default)


# ----------------------------------------------------------------------
# Zero-cost when disabled
# ----------------------------------------------------------------------
def test_no_timeline_without_spec():
    result = run_ddos(DDOS_EXPERIMENTS["H"], probe_count=8, seed=5)
    testbed = result.testbed
    assert testbed.obs.registry is None
    assert testbed.obs.recorder is None
    assert testbed.source_sketch is None
    assert result.timeline_points == []


def test_metrics_only_records_no_timeline():
    result = run_ddos(
        DDOS_EXPERIMENTS["H"], probe_count=8, seed=5, obs=ObsSpec(metrics=True)
    )
    assert result.timeline_points == []
    assert result.testbed.metric_snapshots  # metrics still work alone


# ----------------------------------------------------------------------
# Cache key and disk-cache transport
# ----------------------------------------------------------------------
def test_timeline_spec_changes_the_cache_key():
    plain = ddos_request(DDOS_EXPERIMENTS["G"], probe_count=16, seed=9)
    timed = ddos_request(
        DDOS_EXPERIMENTS["G"], probe_count=16, seed=9, obs=TIMELINE
    )
    retimed = ddos_request(
        DDOS_EXPERIMENTS["G"],
        probe_count=16,
        seed=9,
        obs=ObsSpec(timeline=TimelineSpec(interval=60.0)),
    )
    assert cache_key(plain) != cache_key(timed)
    assert cache_key(timed) != cache_key(retimed)


def test_timeline_survives_disk_cache_round_trip(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    request = ddos_request(
        DDOS_EXPERIMENTS["G"], probe_count=16, seed=9, obs=TIMELINE
    )
    [cold] = run_many([request], jobs=1, cache=cache)
    assert cache.misses == 1
    [warm] = run_many([request], jobs=1, cache=cache)
    assert cache.hits == 1

    assert len(cold.timeline_points) > 0
    assert [p.as_dict() for p in warm.timeline_points] == [
        p.as_dict() for p in cold.timeline_points
    ]


# ----------------------------------------------------------------------
# JSONL transport and schema validation
# ----------------------------------------------------------------------
def test_timeline_jsonl_round_trip():
    points = [
        TimelinePoint(300.0, 0, {"offered_qps": 1.5, "offered_total": 450}),
        TimelinePoint(600.0, 1, {"offered_qps": 2.0, "offered_total": 1050}),
    ]
    stream = io.StringIO()
    assert export_timeline(points, stream, run="ddos-H") == 2
    stream.seek(0)
    runs = import_timeline(stream)
    assert list(runs) == ["ddos-H"]
    assert runs["ddos-H"] == points


def test_validate_timeline_rejects_bad_series():
    with pytest.raises(SpanFormatError, match="index"):
        validate_timeline([TimelinePoint(300.0, 1, {})])
    with pytest.raises(SpanFormatError, match="time"):
        validate_timeline(
            [TimelinePoint(300.0, 0, {}), TimelinePoint(300.0, 1, {})]
        )
    with pytest.raises(SpanFormatError, match="decreased"):
        validate_timeline(
            [
                TimelinePoint(300.0, 0, {"offered_total": 10}),
                TimelinePoint(600.0, 1, {"offered_total": 9}),
            ]
        )


def test_import_timeline_rejects_malformed_rows():
    for row in (
        '{"index": 0, "values": {}}',  # missing time
        '{"time": 1.0, "values": {}}',  # missing index
        '{"time": 1.0, "index": 0}',  # missing values
        '{"time": true, "index": 0, "values": {}}',  # bool is not a time
        '{"time": 1.0, "index": 0, "values": {"a": "x"}}',  # non-numeric
    ):
        with pytest.raises(SpanFormatError):
            import_timeline(io.StringIO(row + "\n"))
