#!/usr/bin/env python3
"""perfbench: the repository's end-to-end + per-layer performance benchmark.

    python3 perfbench/run.py --workload ddos_H --seed 42 --seconds 14 --trace 0
    python3 perfbench/run.py [--seed 42] [--out FILE]        # all six, both passes
    python3 perfbench/run.py --smoke                         # tiny sizes, < 30 s
    python3 perfbench/run.py --compare A.json B.json

One workload with ``--trace 0`` measures the end-to-end metrics in fresh
child processes (closed loop, one thread); ``--trace 1`` runs the traced
pass, the exact counts and the public-function probes for the per-layer
metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names,
units and bounds come from ``BENCHMARK.json``. See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh measuring processes per run: pass-to-pass spread inside one
#: process is ~4 %, process-to-process (heap layout) up to ~14 %.
PROCESSES = 2
#: Extra set-up-only processes, so ``setup_s`` is a median of five.
SETUP_ONLY_PROCESSES = 3
#: The driver allows 180 s per run; a child that exceeds this is stuck.
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not run (not: it ran and a check failed)."""


def load_contract() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found")
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def child_env() -> Dict[str, str]:
    """A clean, pinned environment for every measuring process."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, tmp: str, *options: Any) -> Dict[str, Any]:
    """Run one worker to completion and return the object it printed."""
    command = [sys.executable, str(HERE / "worker.py"), mode, "--tmp", tmp]
    command += [str(option) for option in options]
    # Its own session, so that a stuck worker is stopped together with
    # the pool processes the jobs=2 probe starts below it.
    child = subprocess.Popen(
        command,
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"worker timed out: {' '.join(command)}") from error
    if child.returncode != 0:
        raise BenchmarkError(
            f"worker failed ({child.returncode}): {' '.join(command)}\n{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(samples: Sequence[float], better: str) -> Dict[str, Any]:
    """One metric's samples: its value, median, quartiles and count.

    The value is the *best* sample (the minimum of a time, the maximum
    of a rate). On this shared two-core box the noise is one-sided: a
    pass is never faster than the program allows, but neighbours slow
    single passes by 10-50 % for seconds at a time, which moves a median
    of four to six passes far more than their best (measured on ten
    repeated runs of one seed, inter-quartile spread of the median vs
    the best: ``warm_wall_s`` 21 % vs 5 %, ``setup_s`` 19 % vs 12 %,
    ``wall_s`` 4.3 % vs 4.7 %).
    """
    values = sorted(samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "value": values[0] if better == "lower" else values[-1],
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(samples),
    }


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(
    name: str, seed: int, seconds: float, smoke: bool, tmp: str, contract: Dict[str, Any]
) -> Dict[str, Any]:
    """The untraced measurement of one workload."""
    better = {spec["name"]: spec["better"] for spec in contract["end_to_end"]}
    common = ["--workload", name, "--seed", seed] + (["--smoke"] if smoke else [])
    processes = 1 if smoke else PROCESSES
    # Two cold passes per process at least, so a quartile means
    # something; one for the battery, whose cold pass alone is ~8 s.
    min_passes = 1 if smoke or WORKLOADS[name].kind == "report" else 2
    children = []
    for index in range(processes):
        options = common + ["--budget", 0 if smoke else seconds / processes]
        options += ["--min-passes", min_passes]
        if smoke:
            options += ["--max-passes", 1]
        if WORKLOADS[name].telemetry and index == 0:
            options.append("--reference")
        children.append(spawn("timed", tmp, *options))
    setups = [child["setup_s"] for child in children]
    for _ in range(0 if smoke else SETUP_ONLY_PROCESSES):
        setups.append(
            spawn("timed", tmp, *common, "--budget", 0, "--min-passes", 0)["setup_s"]
        )

    passes = [p for child in children for p in child["passes"]]
    warm = [w for child in children for w in child["warm"]]
    failures: List[str] = []
    failed = 0
    first = passes[0]
    reference = children[0].get("reference_answers_digest")
    for item in passes + warm:
        problems = list(item["failures"])
        if "sim_digest" in item and item["sim_digest"] != first.get("sim_digest"):
            problems.append("sim_digest differs from the first pass")
        if reference and item.get("answers_digest") not in (None, reference):
            problems.append("telemetry changed the client answer stream")
        failed += bool(problems)
        failures += problems
    sizes = {child.get("result_mb") for child in children}
    if len(sizes) > 1:
        failed += 1
        failures.append(f"result_mb differs between processes: {sorted(map(str, sizes))}")

    good = [p for p in passes if p["wall_s"] is not None]
    samples = {
        "wall_s": [p["wall_s"] for p in good],
        "vp_queries_per_s": [p["vp_queries"] / p["wall_s"] for p in good],
        "warm_wall_s": [w["wall_s"] for w in warm if w["wall_s"] is not None],
        "peak_rss_mb": [child["peak_rss_mb"] for child in children if "peak_rss_mb" in child],
        "setup_s": setups,
    }
    return {
        "end_to_end": {
            metric: summarize(values, better[metric])
            for metric, values in samples.items()
            if values and metric in better
        },
        "result_mb": children[0].get("result_mb"),
        "sim_digest": first.get("sim_digest"),
        "vp_queries": first.get("vp_queries"),
        "events": first.get("events"),
        "attempted": len(passes) + len(warm),
        "failed": failed,
        "failures": failures,
        "processes": processes,
        "passes": len(passes),
        "sizes": WORKLOADS[name].sizes(smoke),
        "env": children[0]["env"],
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def trace(
    name: str, seed: int, smoke: bool, tmp: str, probes: Dict[str, Any]
) -> Dict[str, Any]:
    """The traced pass and the exact counts of one workload, plus the
    public-function probes (``probes``: they do not depend on the
    workload, so a set of runs measures them once)."""
    options = ["--workload", name, "--seed", seed] + (["--smoke"] if smoke else [])
    traced = spawn("traced", tmp, *options)
    per_layer = dict(traced["per_layer"])
    per_layer.update(probes)
    return {
        "per_layer": per_layer,
        "sim_digest": traced["sim_digest"],
        "untraced_wall_s": traced["wall_s"],
        "traced_wall_s": traced["traced_wall_s"],
        "attempted": 2,
        "failed": int(bool(traced["failures"])),
        "failures": traced["failures"],
        "functions": traced["functions"],
        "env": traced["env"],
    }


def complete(record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """Give every contract metric an entry with its unit, in contract order.

    A per-layer metric the run did not produce is ``null`` with a reason
    (layer metrics may degrade); a missing end-to-end metric is a
    failure (end-to-end ones may not).
    """
    for section in ("end_to_end", "per_layer"):
        if section not in record:
            continue
        have = record[section]
        record[section] = ordered = {
            spec["name"]: have.get(
                spec["name"], {"value": None, "reason": "not produced on this workload"}
            )
            for spec in contract[section]
        }
        for spec in contract[section]:
            entry = ordered[spec["name"]]
            entry["unit"] = spec["unit"]
            if section == "end_to_end" and entry["value"] is None:
                record["failed"] += 1
                record["failures"].append(f"end-to-end metric {spec['name']} missing")


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_record(name: str, record: Dict[str, Any]) -> None:
    print(f"== {name}  sim_digest={str(record.get('sim_digest'))[:16]}")
    for metric, entry in record.get("end_to_end", {}).items():
        if entry["value"] is None:
            print(f"  {metric:<34} null  ({entry.get('reason')})")
            continue
        print(
            f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<6} median={entry['median']:.6g}"
            f" q1={entry['q1']:.6g} q3={entry['q3']:.6g} n={entry['n']}"
        )
    for metric, entry in record.get("per_layer", {}).items():
        if entry["value"] is None:
            print(f"  {metric:<34} {'null':>14} {entry['unit']:<6} ({entry.get('reason')})")
        else:
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")


def driver_line(record: Dict[str, Any], section: str) -> str:
    """The one-object result line of a single (workload, trace) run.

    Values are numbers as measured; a layer metric that could not be
    measured reads 0 here and ``null`` with its reason everywhere else.
    """
    metrics = {
        name: {
            "value": entry["value"] if entry["value"] is not None else 0,
            "unit": entry["unit"],
        }
        for name, entry in record[section].items()
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_set(args: argparse.Namespace, contract: Dict[str, Any], tmp: str) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()
    results: Dict[str, Any] = {}
    failed = 0
    probes = spawn("probes", tmp)["per_layer"] if args.trace in (1, None) else {}
    for name in names:
        record: Dict[str, Any] = {"attempted": 0, "failed": 0, "failures": []}
        parts = []
        if args.trace in (0, None):
            parts.append(measure(name, args.seed, seconds, args.smoke, tmp, contract))
        if args.trace in (1, None):
            parts.append(trace(name, args.seed, args.smoke, tmp, probes))
        for part in parts:
            for key in ("attempted", "failed"):
                record[key] += part.pop(key)
            record["failures"] += part.pop("failures")
            if record.setdefault("sim_digest", part["sim_digest"]) != part.pop("sim_digest"):
                record["failed"] += 1
                record["failures"].append("traced and untraced sim_digest differ")
            record.update(part)
        complete(record, contract)
        print_record(name, record)
        failed += record["failed"]
        results[name] = record
    load_end = os.getloadavg()

    if args.out:
        first = results[names[0]]
        document = {
            "schema": "perfbench/1",
            "env": {
                **first.get("env", {}),
                "git_commit": git_commit(),
                "nproc": nproc,
                "loadavg_start": load_start,
                "loadavg_end": load_end,
                "noisy": max(load_start[0], load_end[0]) > nproc,
                "seed": args.seed,
                "seconds": seconds,
                "smoke": args.smoke,
                "processes": 1 if args.smoke else PROCESSES,
                "setup_only_processes": 0 if args.smoke else SETUP_ONLY_PROCESSES,
            },
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=1, sort_keys=True)
            stream.write("\n")
    if len(names) == 1 and args.trace is not None:
        section = "end_to_end" if args.trace == 0 else "per_layer"
        print(driver_line(results[names[0]], section))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both passes")
    parser.add_argument("--out", help="write the full result file (JSON)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
        if args.compare:
            return compare.main(args.compare[0], args.compare[1], contract)
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        # Private scratch inside the checkout for every DiskCache; the
        # user's caches (benchmarks/.runcache, .repro-cache) are never read.
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(dir=str(scratch), prefix="run-")
        try:
            return run_set(args, contract, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                scratch.rmdir()
            except OSError:
                pass  # another run is using it
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
