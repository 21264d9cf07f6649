"""The six benchmark workloads and the correctness checks every pass runs.

A workload is a named, seeded input for the *public, knob-free* entry
points of ``repro`` (``run_ddos``, ``build_report``/``run_many``,
``DDOS_EXPERIMENTS``, ``ObsSpec``, ``AttackLoadSpec``,
``defense_spec_for``). Nothing here passes ``queue_backend`` or builds
the native kernel: the benchmark measures what a user gets by default.

Everything that touches ``repro`` is imported inside functions, so the
parent process (``run.py``) can list workloads without paying for — or
depending on — the package import; only ``worker.py`` children import it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``build_report`` ends with a wall-clock footer; everything else is a
#: pure function of (sizes, seed).
REPORT_FOOTER_PREFIX = "_Full battery"

#: Paper reference for ``core.paper_err_pp`` (failure share of client
#: queries during the attack, §5: Experiments H and I).
PAPER_FAIL_DURING_ATTACK = {"ddos_H": 0.403, "ddos_H_telemetry": 0.403, "ddos_I": 0.63}

#: Probes of the discarded warm-up pass and of ``--smoke`` runs.
SMOKE_PROBES = 16


class Workload:
    """One named input: how big it is and how a pass runs.

    ``kind`` is ``"ddos"`` (one ``run_ddos`` call per pass) or
    ``"report"`` (one cold ``build_report`` per pass). ``experiment``
    names a ``DDOS_EXPERIMENTS`` key, or is ``None`` for the emergent
    flood cell whose spec is built here.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        probes: int,
        experiment: Optional[str] = None,
        telemetry: bool = False,
        flood: bool = False,
    ) -> None:
        self.name = name
        self.kind = kind
        self.probes = probes
        self.experiment = experiment
        self.telemetry = telemetry
        self.flood = flood

    def sizes(self, smoke: bool) -> Dict[str, Any]:
        if self.kind == "report":
            baseline, ddos = report_sizes(smoke)
            return {"baseline_probes": baseline, "ddos_probes": ddos, "jobs": 1}
        sizes: Dict[str, Any] = {"probes": SMOKE_PROBES if smoke else self.probes}
        if self.flood:
            # The flood's cost is its attack packets, not its probes, so
            # a smoke run shortens the attack instead.
            sizes["attack_min"] = 5 if smoke else 40
        return sizes


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ddos_H", "ddos", 400, experiment="H"),
        Workload("ddos_A", "ddos", 400, experiment="A"),
        Workload("ddos_I", "ddos", 300, experiment="I"),
        Workload("flood_defended", "ddos", 120, flood=True),
        Workload("ddos_H_telemetry", "ddos", 400, experiment="H", telemetry=True),
        Workload("report_battery", "report", 0),
    )
}


def report_sizes(smoke: bool) -> Tuple[int, int]:
    """(baseline_probes, ddos_probes) of the report battery."""
    return (8, 8) if smoke else (60, 40)


# ----------------------------------------------------------------------
# Building the inputs
# ----------------------------------------------------------------------
def ddos_kwargs(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    """Keyword arguments of the ``run_ddos`` call for one pass."""
    from repro import DDOS_EXPERIMENTS

    sizes = workload.sizes(smoke)
    kwargs: Dict[str, Any] = {"probe_count": sizes["probes"], "seed": seed}
    if workload.flood:
        from repro import AttackLoadSpec, DDoSSpec
        from repro.core.experiments.defense_study import defense_spec_for

        import dataclasses

        # The emergent-loss cell of the defense study: no configured
        # drop; 8 attackers x 10 q/s offer 2x the 20 q/s per-server
        # capacity of the two measurement-zone authoritatives.
        kwargs["spec"] = DDoSSpec(
            key="flood_defended",
            ttl=60,
            ddos_start_min=30,
            ddos_duration_min=sizes["attack_min"],
            queries_before=3,
            total_duration_min=30 + sizes["attack_min"] + 10,
            probe_interval_min=10,
            loss_fraction=0.0,
            servers="both",
        )
        kwargs["attack_load"] = AttackLoadSpec(
            mode="direct-flood",
            attackers=8,
            qps=10.0,
            start=30 * 60.0,
            duration=sizes["attack_min"] * 60.0,
        )
        # Detection is pinned to 1.0: with the default 0.95 the filter
        # decides each of the eight attackers by one Bernoulli draw, and
        # a pass takes 3.2 s when all are caught but 4.4 s when one is
        # missed, so the workload would be bimodal across seeds.
        kwargs["defense"] = dataclasses.replace(
            defense_spec_for("+rrl+filter", 20.0), filter_detection=1.0
        )
    else:
        kwargs["spec"] = DDOS_EXPERIMENTS[workload.experiment]
    if workload.telemetry:
        from repro import ObsSpec
        from repro.obs import TimelineSpec

        kwargs["obs"] = ObsSpec(
            trace=True, metrics=True, timeline=TimelineSpec(interval=60)
        )
    return kwargs


def setup_only(workload: Workload, seed: int, smoke: bool, tmp_root: str) -> Dict[str, float]:
    """Do a pass's set-up and nothing else; returns its parts in seconds.

    For a DDoS workload this mirrors the prelude of ``run_ddos`` (build
    the ``Testbed``, add the attack window, schedule rotations, churn,
    probing and snapshots) and stops before ``testbed.run``. For the
    report battery it is the ``DiskCache`` plus the code fingerprint.
    The caller adds the ``import repro`` time it measured itself.
    """
    start = time.perf_counter()
    if workload.kind == "report":
        from repro import DiskCache
        from repro.runner import code_fingerprint

        DiskCache(tmp_root)
        code_fingerprint()
        return {"build_s": time.perf_counter() - start}
    from repro import Testbed, TestbedConfig
    from repro.clients import PopulationConfig

    kwargs = ddos_kwargs(workload, seed, smoke)
    spec = kwargs["spec"]
    testbed = Testbed(
        TestbedConfig(
            seed=seed,
            zone_ttl=spec.ttl,
            population=PopulationConfig(probe_count=kwargs["probe_count"]),
            obs=kwargs.get("obs"),
            attack_load=kwargs.get("attack_load"),
            defense=kwargs.get("defense"),
        )
    )
    built = time.perf_counter()
    duration = spec.total_duration_min * 60.0
    if spec.loss_fraction > 0:
        attack_start, attack_end = spec.attack_window
        testbed.add_attack(
            attack_start,
            attack_end - attack_start,
            spec.loss_fraction,
            servers=spec.servers,
        )
    testbed.schedule_rotations(duration)
    testbed.schedule_churn(duration)
    rounds = int(spec.total_duration_min / spec.probe_interval_min)
    testbed.schedule_probing(0.0, spec.round_seconds, rounds)
    testbed.schedule_metric_snapshots(spec.round_seconds, rounds)
    done = time.perf_counter()
    return {"build_s": done - start, "testbed_s": built - start}


# ----------------------------------------------------------------------
# Digests (the scripts/capture_fsm_goldens.py recipe, kept here so the
# benchmark depends on nothing a later change may delete)
# ----------------------------------------------------------------------
def _opt(value: Any, fmt: Callable[[Any], str] = str) -> str:
    return "-" if value is None else fmt(value)


def answers_digest(answers: List[Any]) -> str:
    """sha256 over every stub observation, in order."""
    digest = hashlib.sha256()
    for a in answers:
        digest.update(
            "|".join(
                (
                    str(a.probe_id),
                    str(a.resolver),
                    str(a.round_index),
                    f"{a.sent_at:.9f}",
                    _opt(a.answered_at, lambda v: f"{v:.9f}"),
                    str(a.status),
                    _opt(a.rcode, lambda v: str(int(v))),
                    _opt(a.returned_ttl),
                    _opt(a.serial),
                    _opt(a.encoded_ttl),
                    str(a.record_count),
                )
            ).encode("utf-8")
        )
        digest.update(b"\n")
    return digest.hexdigest()


def _querylog_update(digest: "hashlib._Hash", log: Any) -> None:
    for e in log.entries:
        digest.update(
            f"{e.time:.9f}|{e.src}|{e.qname}|{e.qtype.name}|{e.server}\n".encode("utf-8")
        )


def inspect_ddos(result: Any) -> Dict[str, Any]:
    """Digests, exact counts and check failures of one ``run_ddos`` result.

    ``sim_digest`` covers the stub answer stream, the three query logs
    and the network counters; a simulator-only optimisation must leave
    it bit-identical.
    """
    testbed = result.testbed
    counters = testbed.network.counters.as_dict()
    answers = answers_digest(result.answers)
    digest = hashlib.sha256(answers.encode("ascii"))
    for log in (testbed.query_log, testbed.parent_query_log, testbed.offered_query_log):
        digest.update(b"--\n")
        _querylog_update(digest, log)
    digest.update(repr(sorted(counters.items())).encode("ascii"))
    failures = []
    if counters["sent"] != (
        counters["delivered"] + counters["dropped_attack"] + counters["dropped_baseline"]
    ):
        failures.append(f"network conservation violated: {counters}")
    if not result.answers:
        failures.append("no client answers")
    return {
        "sim_digest": digest.hexdigest(),
        "answers_digest": answers,
        "vp_queries": len(result.answers),
        "events": testbed.sim.events_processed,
        "net": counters,
        "failures": failures,
    }


def strip_footer(report: str) -> str:
    return "\n".join(
        line for line in report.splitlines() if not line.startswith(REPORT_FOOTER_PREFIX)
    )


def report_digest(report: str) -> str:
    return hashlib.sha256(strip_footer(report).encode("utf-8")).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def cached_vp_queries(cache_dir: str) -> int:
    """Client queries answered by every run checkpointed in ``cache_dir``.

    The report battery returns Markdown, so its unit of work is counted
    from the detached results the runner wrote (pickles this process
    produced itself, in its private temp dir).
    """
    total = 0
    for entry in sorted(os.scandir(cache_dir), key=lambda e: e.name):
        if entry.name.endswith(".pkl") and not entry.name.startswith(".tmp-"):
            with open(entry.path, "rb") as stream:
                total += len(getattr(pickle.load(stream), "answers", ()))
    return total


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class Pass:
    """What one pass produced: the timing plus what the checks need."""

    def __init__(self, wall_s: float, info: Dict[str, Any], result: Any = None) -> None:
        self.wall_s = wall_s
        self.info = info
        self.result = result


def _timed(call: Callable[[], Any], profiler: Any) -> Tuple[float, Any]:
    """Time ``call`` alone; with a profiler, trace exactly the same region
    (the digests and checks around it are the benchmark's, not the
    program's)."""
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        value = call()
    finally:
        if profiler is not None:
            profiler.disable()
    return time.perf_counter() - start, value


def run_ddos_pass(workload: Workload, seed: int, smoke: bool, profiler: Any = None) -> Pass:
    """One complete ``run_ddos`` call: build + simulate + classify."""
    from repro import run_ddos

    kwargs = ddos_kwargs(workload, seed, smoke)
    wall, result = _timed(lambda: run_ddos(**kwargs), profiler)
    return Pass(wall, inspect_ddos(result), result)


def report_call(
    seed: int, smoke: bool, cache_dir: str, jobs: int = 1, profiler: Any = None
) -> Tuple[float, str]:
    """One ``build_report`` call against ``cache_dir``; (wall, report)."""
    from repro import DiskCache
    from repro.analysis.report import build_report

    baseline, ddos = report_sizes(smoke)
    return _timed(
        lambda: build_report(
            baseline_probes=baseline,
            ddos_probes=ddos,
            seed=seed,
            jobs=jobs,
            cache=DiskCache(cache_dir),
        ),
        profiler,
    )


def run_report_pass(seed: int, smoke: bool, cache_dir: str, profiler: Any = None) -> Pass:
    """The cold battery into an empty ``cache_dir``."""
    wall, report = report_call(seed, smoke, cache_dir, profiler=profiler)
    body = strip_footer(report)
    failures = [] if body.strip() else ["empty report"]
    digest = report_digest(report)
    info = {
        "sim_digest": digest,
        "answers_digest": digest,
        "vp_queries": cached_vp_queries(cache_dir),
        "failures": failures,
    }
    return Pass(wall, info, body)


def warm_ddos_call(workload: Workload, seed: int, smoke: bool, cache_dir: str) -> Tuple[float, str]:
    """Rerun the pass's request through ``run_many`` against a warm cache.

    Returns (wall, answers digest of the cached result).
    """
    from repro import DiskCache, ddos_request, run_many

    request = ddos_request(**ddos_kwargs(workload, seed, smoke))
    start = time.perf_counter()
    (result,) = run_many([request], jobs=1, cache=DiskCache(cache_dir))
    wall = time.perf_counter() - start
    return wall, answers_digest(result.answers)


def checkpoint_ddos(workload: Workload, seed: int, smoke: bool, result: Any, cache_dir: str) -> None:
    """Store a pass's result exactly as ``run_many`` checkpoints it."""
    from repro import DiskCache, ddos_request
    from repro.runner import cache_key, detach_result

    request = ddos_request(**ddos_kwargs(workload, seed, smoke))
    DiskCache(cache_dir).put(cache_key(request), detach_result(result))
