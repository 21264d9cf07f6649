"""Parallel experiment execution with a persistent result cache.

The paper's headline numbers aggregate dozens of *independent* emulation
runs (DDoS scenarios A–I, five caching baselines, TTL/defense ablations,
parameter sweeps). Each run is a deterministic function of
``(spec, population, seed, code version)``, which makes the battery
embarrassingly parallel and perfectly cacheable:

* :func:`run_many` fans :class:`RunRequest` batches out over a
  ``ProcessPoolExecutor`` (``jobs=N``, default ``os.cpu_count()``) and
  returns results in request order, so parallel output is identical to
  serial output.
* :class:`DiskCache` is a content-addressed on-disk store keyed by a
  stable hash of the request plus a fingerprint of the ``repro`` source
  tree, so reports, sweeps, and the paper scoreboard's batch
  (:mod:`repro.analysis.scoreboard`: the report's battery plus the
  extension runs, in ``benchmarks/``) skip already-computed runs across
  sessions and automatically invalidate when the code changes.

See DESIGN.md §7 for the architecture notes and §11 for the failure
ladder, checkpoint/resume semantics, and executor telemetry.
"""

from repro.runner.cache import (
    MISS,
    ClearStats,
    DiskCache,
    cache_key,
    code_fingerprint,
    default_cache_dir,
)
from repro.runner.executor import (
    ChaosFailure,
    RunRequest,
    anycast_request,
    baseline_request,
    cache_dump_request,
    chaos_request,
    ddos_request,
    execute_request,
    glue_request,
    probe_case_request,
    resolve_jobs,
    run_many,
    runner_metrics,
    software_request,
)
from repro.runner.failures import RetryPolicy, RunFailure, RunFailureError
from repro.runner.results import TestbedSnapshot, detach_result

__all__ = [
    "ChaosFailure",
    "ClearStats",
    "DiskCache",
    "MISS",
    "RetryPolicy",
    "RunFailure",
    "RunFailureError",
    "RunRequest",
    "TestbedSnapshot",
    "anycast_request",
    "baseline_request",
    "cache_dump_request",
    "cache_key",
    "chaos_request",
    "code_fingerprint",
    "ddos_request",
    "default_cache_dir",
    "detach_result",
    "execute_request",
    "glue_request",
    "probe_case_request",
    "resolve_jobs",
    "run_many",
    "runner_metrics",
    "software_request",
]
