"""One fresh measuring process. Started by ``run.py``, never by hand.

``python worker.py MODE --workload W --seed N --budget S --tmp DIR ...``
prints one JSON object as the last line of its standard output.

Modes:

* ``timed``  — measure set-up, run one discarded warm-up, then cold
  passes until ``--budget`` seconds are used (at least ``--min-passes``),
  read ``ru_maxrss``, then checkpoint the result and time warm reruns.
  ``--budget 0 --min-passes 0`` measures set-up only.
* ``traced`` — one untraced pass for the exact counts and the reference
  wall, then the same pass under ``cProfile`` folded into layers.
* ``probes`` — the public-function probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

import workloads as wl

WARM_RERUNS = 3


def _fresh_dir(tmp_root: str) -> str:
    return tempfile.mkdtemp(dir=tmp_root, prefix="cache-")


def _reason(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


def import_repro() -> float:
    """Import the package; returns the seconds it took in this process."""
    start = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - start


def environment() -> Dict[str, Any]:
    """What this process resolved: code, backend, interpreter."""
    import importlib.util
    import platform

    from repro.runner import code_fingerprint
    from repro.simcore.events import DEFAULT_QUEUE_BACKEND, resolve_queue_backend

    return {
        "code_fingerprint": code_fingerprint(),
        "queue_backend_requested": DEFAULT_QUEUE_BACKEND,
        "queue_backend_resolved": resolve_queue_backend(DEFAULT_QUEUE_BACKEND),
        "ckernel_importable": importlib.util.find_spec("repro.simcore._ckernel")
        is not None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def warm_up(workload: wl.Workload, seed: int) -> None:
    """The discarded pass: imports, lazy tables and allocator arenas."""
    target = wl.WORKLOADS["ddos_H"] if workload.kind == "report" else workload
    wl.run_ddos_pass(target, seed, smoke=True)


def cold_pass(workload: wl.Workload, seed: int, smoke: bool, cache_dir: str) -> wl.Pass:
    gc.collect()
    if workload.kind == "report":
        return wl.run_report_pass(seed, smoke, cache_dir)
    return wl.run_ddos_pass(workload, seed, smoke)


def warm_call(workload: wl.Workload, seed: int, smoke: bool, cache_dir: str) -> Dict[str, Any]:
    """One warm-cache rerun; its wall and the digest to check."""
    gc.collect()
    if workload.kind == "report":
        wall, report = wl.report_call(seed, smoke, cache_dir)
        digest = wl.report_digest(report)
    else:
        wall, digest = wl.warm_ddos_call(workload, seed, smoke, cache_dir)
    return {"wall_s": wall, "answers_digest": digest}


# ----------------------------------------------------------------------
# timed
# ----------------------------------------------------------------------
def run_timed(args: argparse.Namespace) -> Dict[str, Any]:
    workload = wl.WORKLOADS[args.workload]
    import_s = import_repro()
    setup = wl.setup_only(workload, args.seed, args.smoke, args.tmp)
    out: Dict[str, Any] = {
        "setup_s": import_s + setup["build_s"],
        "env": environment(),
        "passes": [],
        "warm": [],
    }
    if args.min_passes == 0 and args.budget <= 0:
        return out

    warm_up(workload, args.seed)
    reference = None
    if args.reference:
        # ddos_H_telemetry must not change what clients see: its answer
        # stream is compared with a plain ddos_H pass of the same input.
        plain = wl.run_ddos_pass(wl.WORKLOADS["ddos_H"], args.seed, args.smoke)
        reference = plain.info["answers_digest"]
        del plain
    out["reference_answers_digest"] = reference

    cache_dir = _fresh_dir(args.tmp)
    last: Optional[wl.Pass] = None
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        done = len(out["passes"])
        if done >= args.min_passes and (
            done >= args.max_passes
            or elapsed + (last.wall_s if last else 0.0) > args.budget
        ):
            break
        last = None  # free the previous result before building the next
        if workload.kind == "report":
            shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir = _fresh_dir(args.tmp)
        try:
            last = cold_pass(workload, args.seed, args.smoke, cache_dir)
        except Exception as error:
            out["passes"].append({"wall_s": None, "failures": [_reason(error)]})
            break
        out["passes"].append({"wall_s": last.wall_s, **last.info})
    # Peak memory of the cold passes only: warm reruns, pickling and
    # everything traced run after this reading or in another process.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if last is not None:
        if workload.kind == "ddos":
            wl.checkpoint_ddos(workload, args.seed, args.smoke, last.result, cache_dir)
        expected = last.info["answers_digest"]
        last = None
        out["result_mb"] = wl.dir_bytes(cache_dir) / 2.0**20
        for _ in range(WARM_RERUNS):
            try:
                warm = warm_call(workload, args.seed, args.smoke, cache_dir)
            except Exception as error:
                out["warm"].append({"wall_s": None, "failures": [_reason(error)]})
                break
            warm["failures"] = (
                []
                if warm["answers_digest"] == expected
                else ["warm-cache rerun differs from the cold pass"]
            )
            out["warm"].append(warm)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# traced
# ----------------------------------------------------------------------
def _resolve(path: str) -> Any:
    """``pkg.module:Class.attr`` -> the object, imported lazily."""
    import importlib

    module_name, _, attrs = path.partition(":")
    target: Any = importlib.import_module(module_name)
    for attr in filter(None, attrs.split(".")):
        target = getattr(target, attr)
    return target


class Metrics:
    """Per-layer metrics of one traced run.

    A metric whose computation raises (a probed symbol was renamed or
    removed) degrades to ``null`` with the reason; one that returns
    ``None`` does not apply to the workload and is left out, which
    ``run.py`` reports as ``null`` too.
    """

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def put(self, name: str, compute: Callable[[], Any]) -> None:
        self.put_all(lambda: {name: compute()}, name)

    def put_all(self, compute: Callable[[], Dict[str, Any]], *names: str) -> None:
        """Several metrics from one measurement; they fail together."""
        try:
            values = compute()
        except Exception as error:
            for name in names:
                self.values[name] = {"value": None, "reason": _reason(error)}
            return
        for name in names:
            if values.get(name) is not None:
                self.values[name] = {"value": values[name]}


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _cache_stats(testbed: Any) -> Dict[str, int]:
    """Sum of every resolver cache's hit/miss counters."""
    population = testbed.population
    caches = [resolver.cache for resolver in population.recursives]
    for pool in population.pools:
        caches.extend(backend.cache for backend in pool.backends)
    caches.extend(f.cache for f in population.forwarders if f.cache is not None)
    totals = {"hits": 0, "misses": 0}
    for cache in caches:
        stats = cache.stats()
        totals["hits"] += stats["hits"]
        totals["misses"] += stats["misses"]
    return totals


def ddos_counts(
    m: Metrics,
    workload: wl.Workload,
    untraced: wl.Pass,
    probes: int,
    testbed_s: float,
    plain_wall: Optional[float],
) -> None:
    """Exact counts and waste ratios from a run's public counters."""
    import pickle

    result, info, wall = untraced.result, untraced.info, untraced.wall_s
    testbed, net = result.testbed, info["net"]
    events, vp = info["events"], info["vp_queries"]
    m.put("simcore.events", lambda: events)
    # Over the untraced wall, and deliberately not end to end: a change
    # that fires fewer events must not be punished for it.
    m.put("simcore.events_per_s", lambda: events / wall)
    m.put("simcore.events_per_vp_query", lambda: _ratio(events, vp))
    m.put("netem.sent", lambda: net["sent"])
    m.put("netem.delivered_ratio", lambda: _ratio(net["delivered"], net["sent"]))
    m.put("netem.dropped_attack_ratio", lambda: _ratio(net["dropped_attack"], net["sent"]))

    attack = testbed.attack_stats
    attack_sent = attack["queries_sent"] if attack else 0
    offered = len(testbed.offered_query_log)
    # The paper's section 6 amplification: queries the resolvers offer
    # the measurement zone per client query (attack packets excluded).
    m.put("resolvers.upstream_per_vp_query", lambda: _ratio(offered - attack_sent, vp))

    def hit_ratio() -> Optional[float]:
        stats = _cache_stats(testbed)
        return _ratio(stats["hits"], stats["hits"] + stats["misses"])

    m.put("resolvers.cache.hit_ratio", hit_ratio)
    m.put("servers.offered", lambda: offered)
    m.put(
        "servers.served_ratio",
        lambda: _ratio(sum(s.queries_received for s in testbed.test_servers), offered),
    )
    m.put("attackload.queries_sent", lambda: attack_sent if attack else None)

    def served(suffix: str) -> Optional[float]:
        stats = testbed.defense_stats
        if stats is None:
            return None
        decided = sum(
            stats[f"{counter}_{suffix}"]
            for counter in ("served", "filtered", "rate_limited", "dropped_capacity")
        )
        return _ratio(stats[f"served_{suffix}"], decided)

    m.put("defense.legit_served_ratio", lambda: served("legit"))
    m.put("defense.attack_served_ratio", lambda: served("attack"))
    if workload.telemetry:
        m.put("obs.spans", lambda: len(testbed.spans))
        m.put("obs.timeline_points", lambda: len(result.timeline_points))
        m.put("obs.overhead_frac", lambda: wall / plain_wall - 1.0 if plain_wall else None)

    def classify_ms() -> float:
        from repro import classify_answers

        start = time.perf_counter()
        classify_answers(result.answers, result.spec.ttl, testbed.rotation)
        return (time.perf_counter() - start) * 1e3

    m.put("core.classify_ms", classify_ms)
    fail = result.failure_fraction_during_attack()
    paper = wl.PAPER_FAIL_DURING_ATTACK.get(workload.name)
    m.put("core.fail_during_attack", lambda: fail)
    m.put("core.paper_err_pp", lambda: (fail - paper) * 100.0 if paper else None)
    m.put("clients.build_ms_per_100_probes", lambda: testbed_s * 1e3 / (probes / 100.0))

    def pickle_ms() -> Dict[str, float]:
        from repro.runner import detach_result

        detached = detach_result(result)
        start = time.perf_counter()
        blob = pickle.dumps(detached, protocol=pickle.HIGHEST_PROTOCOL)
        middle = time.perf_counter()
        pickle.loads(blob)  # bytes this process just produced
        return {
            "runner.pickle_dumps_ms": (middle - start) * 1e3,
            "runner.pickle_loads_ms": (time.perf_counter() - middle) * 1e3,
            "runner.result_mb": len(blob) / 2.0**20,
        }

    m.put_all(
        pickle_ms, "runner.pickle_dumps_ms", "runner.pickle_loads_ms", "runner.result_mb"
    )


def report_counts(
    m: Metrics, args: argparse.Namespace, untraced: wl.Pass, cache_dir: str, failures: List[str]
) -> None:
    """Runner and analysis costs of the battery, from untraced reruns."""
    import pickle

    workload = wl.WORKLOADS[args.workload]
    entries = [e.path for e in os.scandir(cache_dir) if e.name.endswith(".pkl")]
    warm_walls = []
    for _ in range(WARM_RERUNS):
        warm = warm_call(workload, args.seed, args.smoke, cache_dir)
        warm_walls.append(warm["wall_s"])
        if warm["answers_digest"] != untraced.info["answers_digest"]:
            failures.append("warm report differs from the cold report")
    warm_wall = sorted(warm_walls)[len(warm_walls) // 2]
    loads_s = dumps_s = 0.0
    for path in entries:
        with open(path, "rb") as stream:
            blob = stream.read()
        start = time.perf_counter()
        value = pickle.loads(blob)  # written by this process's own cold pass
        middle = time.perf_counter()
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        loads_s += middle - start
        dumps_s += time.perf_counter() - middle
    m.put("runner.result_mb", lambda: wl.dir_bytes(cache_dir) / 2.0**20)
    m.put("runner.warm_ms_per_run", lambda: _ratio(warm_wall * 1e3, len(entries)))
    m.put("runner.pickle_dumps_ms", lambda: dumps_s * 1e3)
    m.put("runner.pickle_loads_ms", lambda: loads_s * 1e3)
    # What is left of a warm rerun once the cache has been read back.
    m.put("analysis.render_s", lambda: warm_wall - loads_s)

    def jobs2() -> Dict[str, float]:
        # The one multi-process number, informational: the same cold
        # battery over two workers.
        directory = _fresh_dir(args.tmp)
        try:
            wall, report = wl.report_call(args.seed, args.smoke, directory, jobs=2)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if wl.strip_footer(report) != untraced.result:
            failures.append("jobs=2 report differs from the jobs=1 report")
        return {
            "runner.jobs2_wall_s": wall,
            "runner.jobs2_speedup": untraced.wall_s / wall,
        }

    m.put_all(jobs2, "runner.jobs2_wall_s", "runner.jobs2_speedup")


def trace_counts(
    m: Metrics, workload: wl.Workload, stats: Dict[Any, Any], folded: Dict[str, Any],
    untraced: wl.Pass, traced_wall: float, seed: int,
) -> None:
    """Layer spans plus the exact call counts the profile recorded."""
    import layers

    wall, vp = untraced.wall_s, untraced.info["vp_queries"]
    for name, row in folded["layers"].items():
        for key, value in row.items():
            m.put(f"{name}.{key}", lambda value=value: value)
    m.put("trace.overhead_frac", lambda: traced_wall / wall - 1.0)
    m.put("trace.unattributed_frac", lambda: folded["unattributed_frac"])

    def row_of(path: str) -> Optional[Any]:
        code = _resolve(path).__code__
        return layers.row_of(stats, code)

    def calls(path: str, index: int = 1) -> int:
        row = row_of(path)
        return 0 if row is None else row[index]

    def sent() -> int:
        return untraced.info["net"]["sent"] if "net" in untraced.info else calls(
            "repro.netem.transport:Network.send"
        )

    m.put(
        "netem.us_per_packet",
        lambda: _ratio(wall * folded["layers"]["netem"]["self_frac"] * 1e6, sent()),
    )
    m.put(
        "dnscore.msgs_per_packet",
        lambda: _ratio(calls("repro.dnscore.message:Message.__init__"), sent()),
    )
    m.put(
        "dnscore.names_per_packet",
        lambda: _ratio(calls("repro.dnscore.name:Name.__init__"), sent()),
    )
    m.put(
        "dnscore.ipaddress_calls_per_vp_query",
        lambda: _ratio(layers.calls_into_file(stats, os.sep + "ipaddress.py"), vp),
    )
    m.put(
        "resolvers.cache.gets_per_vp_query",
        lambda: _ratio(calls("repro.resolvers.cache:DnsCache.get"), vp),
    )
    dispatch = "repro.fsm.machine:CompiledMachine.dispatch"
    m.put("fsm.dispatch_calls", lambda: calls(dispatch))
    m.put("fsm.recursion_ratio", lambda: _ratio(calls(dispatch), calls(dispatch, 0)))
    if workload.telemetry:
        m.put("obs.sketch_updates", lambda: calls("repro.obs.sketch:SourceSketch.update"))
    if workload.kind == "report":

        def runner_overhead() -> Optional[float]:
            # Battery wall over the time inside execute_request, both
            # traced: what the runner and the renderer add to the runs.
            row = row_of("repro.runner.executor:execute_request")
            return None if row is None else _ratio(folded["total_s"] - row[3], row[3])

        m.put("runner.overhead_frac", runner_overhead)

    def timed_ms(function: Callable[..., Any], *call_args: Any) -> float:
        start = time.perf_counter()
        function(*call_args)
        return (time.perf_counter() - start) * 1e3

    def fingerprint_ms() -> float:
        # The digest is cached per process: drop it, as a fresh process
        # finds it, and time one full computation.
        cache_module = _resolve("repro.runner.cache")
        cache_module._FINGERPRINT = None
        return timed_ms(cache_module.code_fingerprint)

    m.put("runner.fingerprint_ms", fingerprint_ms)

    def cache_key_ms() -> float:
        from repro import DDOS_EXPERIMENTS, ddos_request
        from repro.runner import cache_key

        return timed_ms(cache_key, ddos_request(DDOS_EXPERIMENTS["H"], seed=seed))

    m.put("runner.cache_key_ms", cache_key_ms)


def run_traced(args: argparse.Namespace) -> Dict[str, Any]:
    import cProfile
    import pstats

    import layers

    workload = wl.WORKLOADS[args.workload]
    probes = workload.sizes(args.smoke).get("probes", 0)
    import_repro()
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    setup = wl.setup_only(workload, args.seed, args.smoke, args.tmp)
    warm_up(workload, args.seed)
    m = Metrics()
    failures: List[str] = []

    plain_wall = plain_answers = None
    if workload.telemetry:
        plain = wl.run_ddos_pass(wl.WORKLOADS["ddos_H"], args.seed, args.smoke)
        plain_wall, plain_answers = plain.wall_s, plain.info["answers_digest"]
        del plain

    # Untraced pass: the reference wall and the public counters.
    cache_dir = _fresh_dir(args.tmp)
    untraced = cold_pass(workload, args.seed, args.smoke, cache_dir)
    failures += untraced.info["failures"]
    if workload.telemetry and untraced.info["answers_digest"] != plain_answers:
        failures.append("telemetry changed the client answer stream")
    if workload.kind == "ddos":
        ddos_counts(m, workload, untraced, probes, setup["testbed_s"], plain_wall)
    else:
        report_counts(m, args, untraced, cache_dir, failures)
    untraced.result = None
    shutil.rmtree(cache_dir, ignore_errors=True)

    # Traced pass: the same input under the interpreter's profiling hook.
    cache_dir = _fresh_dir(args.tmp)
    profiler = cProfile.Profile()
    gc.collect()
    try:
        traced = (
            wl.run_report_pass(args.seed, args.smoke, cache_dir, profiler=profiler)
            if workload.kind == "report"
            else wl.run_ddos_pass(workload, args.seed, args.smoke, profiler=profiler)
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if traced.info["sim_digest"] != untraced.info["sim_digest"]:
        failures.append("traced pass changed the simulated results")
    failures += traced.info["failures"]
    traced_wall = traced.wall_s
    del traced
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    folded = layers.fold(stats, package_root)
    trace_counts(m, workload, stats, folded, untraced, traced_wall, args.seed)
    return {
        "wall_s": untraced.wall_s,
        "traced_wall_s": traced_wall,
        "sim_digest": untraced.info["sim_digest"],
        "vp_queries": untraced.info["vp_queries"],
        "failures": failures,
        "per_layer": m.values,
        "functions": layers.function_table(stats, package_root),
        "env": environment(),
    }


def run_probes_mode(_args: argparse.Namespace) -> Dict[str, Any]:
    import probes

    import_repro()
    return {"per_layer": probes.run_probes()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("timed", "traced", "probes"))
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), default="ddos_H")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--max-passes", type=int, default=1000)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    modes = {"timed": run_timed, "traced": run_traced, "probes": run_probes_mode}
    out = modes[args.mode](args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
