"""Process-parallel, fault-tolerant execution of independent runs.

Every run in a batch is independent (fresh testbed, own RNG streams
derived from the request seed), so the executor is free to run them in
any order on any worker: results are slotted back by request index,
making ``jobs=N`` output identical to ``jobs=1`` output. Workers return
detached (picklable) results — see :mod:`repro.runner.results` — which is
also the shape the disk cache stores, so cold runs, warm-cache runs, and
parallel runs all hand the caller equal objects.

Robustness mirrors the paper's layered-defense shape. Completions are
*streamed*: each result is checkpointed to the :class:`DiskCache` the
moment it finishes, so a killed batch resumes from checkpoint instead of
from zero. Failures descend a bounded, deterministic ladder (see
:class:`~repro.runner.failures.RetryPolicy`):

1. clean worker exceptions are retried in the shared pool;
2. a crashed worker (``BrokenProcessPool``) rebuilds the pool, and a
   pool that keeps dying degrades to *quarantine* — one single-worker
   pool per request, so a repeat offender only takes itself down;
3. the final attempt of a cleanly-failing request runs in-process
   (serial) in the parent — the last rung;
4. only then is a structured
   :class:`~repro.runner.failures.RunFailure` surfaced: raised inside a
   :exc:`~repro.runner.failures.RunFailureError` under fail-fast, or
   slotted into the result list under ``keep_going`` so the rest of the
   battery completes around the poisoned run.

Executor telemetry (retries, worker crashes, serial fallbacks,
checkpointed results, in-flight gauge) flows through a
:class:`repro.obs.MetricsRegistry` — :func:`runner_metrics` by default —
so robustness is observable, not silent.
"""

from __future__ import annotations

import os
import signal
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.attackload import AttackLoadSpec
from repro.clients.population import PopulationConfig
from repro.core.experiments.anycast_study import AnycastSpec, run_anycast_study
from repro.core.experiments.baseline import (
    BaselineSpec,
    run_baseline,
)
from repro.core.experiments.ddos import DDoSSpec, run_ddos
from repro.defense import DefenseSpec
from repro.obs import MetricsRegistry, ObsSpec
from repro.runner.cache import MISS, DiskCache, cache_key
from repro.runner.failures import RetryPolicy, RunFailure, RunFailureError
from repro.runner.results import detach_result

KIND_DDOS = "ddos"
KIND_BASELINE = "baseline"
KIND_GLUE = "glue"
KIND_CACHE_DUMP = "cache_dump"
KIND_SOFTWARE = "software"
KIND_PROBE_CASE = "probe_case"
KIND_ANYCAST = "anycast"
KIND_CHAOS = "chaos"

#: Process-wide default registry for executor telemetry. ``run_many``
#: accepts an explicit registry for isolated accounting (tests, CLI);
#: everything else accumulates here, like a process metrics endpoint.
_RUNNER_METRICS = MetricsRegistry()


def runner_metrics() -> MetricsRegistry:
    """The default registry executor telemetry accumulates into."""
    return _RUNNER_METRICS


class ChaosFailure(RuntimeError):
    """The injected failure raised by ``chaos`` requests."""


@dataclass(frozen=True)
class RunRequest:
    """One independent experiment run, fully described and hashable.

    ``kind`` selects the experiment runner; ``spec`` is the matching spec
    dataclass. The tuple of fields is everything a worker process needs,
    and (with the code fingerprint) everything that determines the
    result — which is what makes these requests cacheable.
    """

    kind: str
    spec: Any = None
    probe_count: int = 400
    seed: int = 42
    population: Optional[PopulationConfig] = None
    # Runner-specific keyword arguments as a sorted tuple of pairs, so
    # requests stay hashable and canonically serializable for cache keys.
    options: Tuple[Tuple[str, Any], ...] = ()
    # Observability layers for this run (frozen, so hashable/cacheable).
    # Part of the cache key: a traced run and an untraced run of the same
    # spec are different artifacts.
    obs: Optional[ObsSpec] = None
    # Adversarial traffic and authoritative defenses (frozen specs, like
    # obs): both participate in the cache key, so armed and unarmed runs
    # of the same scenario are different artifacts.
    attack_load: Optional[AttackLoadSpec] = None
    defense: Optional[DefenseSpec] = None

    def option_kwargs(self) -> Dict[str, Any]:
        return dict(self.options)


def ddos_request(
    spec: DDoSSpec,
    probe_count: int = 400,
    seed: int = 42,
    population: Optional[PopulationConfig] = None,
    obs: Optional[ObsSpec] = None,
    attack_load: Optional[AttackLoadSpec] = None,
    defense: Optional[DefenseSpec] = None,
) -> RunRequest:
    return RunRequest(
        KIND_DDOS,
        spec,
        probe_count,
        seed,
        population,
        obs=obs,
        attack_load=attack_load,
        defense=defense,
    )


def baseline_request(
    spec: BaselineSpec,
    probe_count: int = 600,
    seed: int = 42,
    population: Optional[PopulationConfig] = None,
    obs: Optional[ObsSpec] = None,
) -> RunRequest:
    return RunRequest(
        KIND_BASELINE,
        spec,
        probe_count,
        seed,
        population,
        obs=obs,
    )


def glue_request(
    probe_count: int = 800, seed: int = 42, **options: Any
) -> RunRequest:
    return RunRequest(
        KIND_GLUE,
        probe_count=probe_count,
        seed=seed,
        options=tuple(sorted(options.items())),
    )


def cache_dump_request(software: str = "bind", **options: Any) -> RunRequest:
    options["software"] = software
    return RunRequest(KIND_CACHE_DUMP, options=tuple(sorted(options.items())))


def software_request(
    software: str = "bind", under_attack: bool = False, seed: int = 7
) -> RunRequest:
    return RunRequest(
        KIND_SOFTWARE,
        seed=seed,
        options=(("software", software), ("under_attack", under_attack)),
    )


def probe_case_request(seed: int = 11, **options: Any) -> RunRequest:
    return RunRequest(
        KIND_PROBE_CASE, seed=seed, options=tuple(sorted(options.items()))
    )


def anycast_request(
    spec: AnycastSpec, probe_count: int = 300, seed: int = 42
) -> RunRequest:
    return RunRequest(KIND_ANYCAST, spec, probe_count, seed)


def chaos_request(
    mode: str = "raise",
    seed: int = 0,
    token: str = "chaos",
    state_file: Optional[str] = None,
    fail_times: int = 0,
) -> RunRequest:
    """A fault-injection request for exercising the failure ladder.

    ``mode`` selects the behavior: ``"ok"`` returns a small deterministic
    result; ``"raise"`` raises :exc:`ChaosFailure` in the worker;
    ``"kill"`` SIGKILLs the worker process (→ ``BrokenProcessPool``).
    With ``state_file`` set, the request is *flaky*: the first
    ``fail_times`` executions (counted in the file, shared across
    processes) perform the failure mode, later ones succeed — the shape
    that exercises retry-then-succeed. Used by the chaos smoke step in
    CI and the failure-path tests.
    """
    options: Dict[str, Any] = {"mode": mode, "token": token}
    if state_file is not None:
        options["state_file"] = state_file
        options["fail_times"] = fail_times
    return RunRequest(
        KIND_CHAOS, seed=seed, options=tuple(sorted(options.items()))
    )


def _run_chaos(seed: int, options: Dict[str, Any]) -> Dict[str, Any]:
    """Execute a ``chaos`` request's injected behavior in the worker."""
    mode = options.get("mode", "raise")
    state_file = options.get("state_file")
    injecting = mode != "ok"
    if injecting and state_file is not None:
        # Flaky: count executions in the shared file; only the first
        # `fail_times` of them actually fail.
        prior = 0
        if os.path.exists(state_file):
            prior = os.path.getsize(state_file)
        with open(state_file, "ab") as stream:
            stream.write(b".")
        injecting = prior < int(options.get("fail_times", 0))
    if injecting:
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ChaosFailure(f"injected failure ({options.get('token')})")
    return {"chaos": options.get("token"), "seed": seed}


def execute_request(request: RunRequest) -> Any:
    """Run one request to completion and return the detached result.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it by reference; also the serial fallback, so both paths share
    one code path per experiment kind.
    """
    kind = request.kind
    if kind == KIND_DDOS:
        result = run_ddos(
            request.spec,
            probe_count=request.probe_count,
            seed=request.seed,
            population=request.population,
            obs=request.obs,
            attack_load=request.attack_load,
            defense=request.defense,
        )
    elif kind == KIND_BASELINE:
        result = run_baseline(
            request.spec,
            probe_count=request.probe_count,
            seed=request.seed,
            population=request.population,
            obs=request.obs,
        )
    elif kind == KIND_GLUE:
        from repro.core.experiments.glue import run_glue_experiment

        result = run_glue_experiment(
            probe_count=request.probe_count,
            seed=request.seed,
            **request.option_kwargs(),
        )
    elif kind == KIND_CACHE_DUMP:
        from repro.core.experiments.glue import run_cache_dump_study

        result = run_cache_dump_study(**request.option_kwargs())
    elif kind == KIND_SOFTWARE:
        from repro.core.experiments.software import run_software_study

        options = request.option_kwargs()
        result = run_software_study(
            options["software"], options["under_attack"], seed=request.seed
        )
    elif kind == KIND_PROBE_CASE:
        from repro.core.experiments.probe_case import run_probe_case

        result = run_probe_case(seed=request.seed, **request.option_kwargs())
    elif kind == KIND_ANYCAST:
        result = run_anycast_study(
            request.spec, probe_count=request.probe_count, seed=request.seed
        )
    elif kind == KIND_CHAOS:
        result = _run_chaos(request.seed, request.option_kwargs())
    else:
        raise ValueError(f"unknown request kind {request.kind!r}")
    return detach_result(result)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/0 means all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_many(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    *,
    policy: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> List[Any]:
    """Execute a batch of runs, in parallel, through the cache.

    Results come back in request order regardless of worker scheduling.
    Cache hits are never re-run; misses are executed (fanned out when
    ``jobs > 1`` and more than one run is pending) and each result is
    checkpointed to ``cache`` the moment it completes, so an interrupted
    batch resumes from its last completion.

    Failures descend the :class:`RetryPolicy` ladder (pool retries →
    pool rebuild/quarantine after crashes → final in-process attempt).
    A request that exhausts the ladder either aborts the batch with a
    :exc:`RunFailureError` (default) or, under ``keep_going``, leaves a
    :class:`RunFailure` ledger entry in its result slot while the rest
    of the battery completes. Telemetry (retries, crashes, serial
    fallbacks, checkpoints, in-flight gauge) lands in ``metrics``
    (default: the process-wide :func:`runner_metrics` registry).
    """
    jobs = resolve_jobs(jobs)
    active_policy = policy if policy is not None else RetryPolicy()
    registry = metrics if metrics is not None else _RUNNER_METRICS
    retries = registry.counter("runner.retries")
    crashes = registry.counter("runner.worker_crashes")
    serial_fallbacks = registry.counter("runner.serial_fallbacks")
    checkpointed = registry.counter("runner.checkpointed")
    inflight = registry.gauge("runner.inflight")

    total = len(requests)
    results: List[Any] = [None] * total
    resolved = [False] * total
    attempts = [0] * total
    failures: List[RunFailure] = []

    pending: List[int] = []
    keys: List[Optional[str]] = [None] * total
    for index, request in enumerate(requests):
        if cache is not None:
            key = cache_key(request)
            keys[index] = key
            hit = cache.get(key)
            if hit is not MISS:
                results[index] = hit
                resolved[index] = True
                continue
        pending.append(index)

    # Attempts a cleanly-failing request may spend in worker pools; the
    # final one is reserved for the in-process rung when enabled.
    pool_budget = active_policy.max_attempts - (
        1 if active_policy.serial_fallback else 0
    )

    def begin_attempt(index: int) -> None:
        attempts[index] += 1
        if attempts[index] > 1:
            retries.inc()

    def checkpoint(index: int, value: Any) -> None:
        """Record a completion and write it through to the cache now."""
        results[index] = value
        resolved[index] = True
        if cache is not None:
            key = keys[index]
            assert key is not None  # computed during the scan above
            cache.put(key, value)
            checkpointed.inc()

    def fail(index: int, error: BaseException, trace: str) -> None:
        failure = RunFailure(
            index=index,
            kind=requests[index].kind,
            key=keys[index],
            attempts=attempts[index],
            error_type=type(error).__name__,
            message=str(error),
            traceback=trace,
        )
        results[index] = failure
        resolved[index] = True
        failures.append(failure)
        if not keep_going:
            raise RunFailureError([failure])

    def serial_final(index: int) -> None:
        """The last rung: one in-process attempt in the parent."""
        serial_fallbacks.inc()
        begin_attempt(index)
        inflight.inc()
        try:
            value = execute_request(requests[index])
        except Exception as error:
            fail(index, error, traceback_module.format_exc())
        else:
            checkpoint(index, value)
        finally:
            inflight.dec()

    def run_serial(index: int) -> None:
        """Pure in-process execution with in-process retries (jobs=1)."""
        while not resolved[index]:
            begin_attempt(index)
            inflight.inc()
            try:
                value = execute_request(requests[index])
            except Exception as error:
                if attempts[index] >= active_policy.max_attempts:
                    fail(index, error, traceback_module.format_exc())
            else:
                checkpoint(index, value)
            finally:
                inflight.dec()

    def pool_wave(indices: List[int]) -> None:
        """One shared-pool pass: stream completions, retry clean failures.

        Raises ``BrokenProcessPool`` (after harvesting any completions
        that beat the crash) when a worker dies; the caller owns the
        rebuild/quarantine decision.
        """
        workers = min(jobs, len(indices))
        pool = ProcessPoolExecutor(max_workers=workers)
        outstanding: Dict[Future[Any], int] = {}
        try:
            for index in indices:
                begin_attempt(index)
                outstanding[pool.submit(execute_request, requests[index])] = index
                inflight.inc()
            while outstanding:
                done, _ = wait(set(outstanding), return_when=FIRST_COMPLETED)
                for future in done:
                    index = outstanding.pop(future)
                    inflight.dec()
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as error:
                        if attempts[index] < pool_budget:
                            begin_attempt(index)
                            outstanding[
                                pool.submit(execute_request, requests[index])
                            ] = index
                            inflight.inc()
                        elif (
                            active_policy.serial_fallback
                            and attempts[index] < active_policy.max_attempts
                        ):
                            serial_final(index)
                        else:
                            fail(index, error, traceback_module.format_exc())
                    else:
                        checkpoint(index, value)
            pool.shutdown(wait=True)
        except BaseException:
            # Harvest completions that beat a crash: their results are
            # already set on the futures even though the pool is broken.
            for future, index in outstanding.items():
                if future.done() and not resolved[index]:
                    try:
                        value = future.result()
                    except BaseException:
                        continue
                    checkpoint(index, value)
            inflight.dec(len(outstanding))
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    def quarantine(index: int) -> None:
        """Isolated single-worker pools: exact blame for crashers."""
        while not resolved[index]:
            begin_attempt(index)
            inflight.inc()
            try:
                with ProcessPoolExecutor(max_workers=1) as isolated:
                    value = isolated.submit(
                        execute_request, requests[index]
                    ).result()
            except BrokenProcessPool as error:
                crashes.inc()
                # Never run a crash-implicated request in-process: a
                # request that can kill a worker could kill the parent.
                if attempts[index] >= active_policy.max_attempts:
                    fail(
                        index,
                        error,
                        "worker process died before returning a result",
                    )
            except Exception as error:
                if (
                    active_policy.serial_fallback
                    and attempts[index] == active_policy.max_attempts - 1
                ):
                    serial_final(index)
                elif attempts[index] >= active_policy.max_attempts:
                    fail(index, error, traceback_module.format_exc())
            else:
                checkpoint(index, value)
            finally:
                inflight.dec()

    if not pending:
        return results

    if jobs <= 1 or len(pending) == 1:
        for index in pending:
            run_serial(index)
        return results

    rebuilds = 0
    while True:
        unresolved = [index for index in pending if not resolved[index]]
        if not unresolved:
            break
        try:
            pool_wave(unresolved)
        except BrokenProcessPool:
            crashes.inc()
            rebuilds += 1
            if rebuilds > active_policy.max_pool_rebuilds:
                for index in pending:
                    if not resolved[index]:
                        quarantine(index)
                break

    return results
