"""``run.py --compare A.json B.json``: is B different from A?

For every (workload, end-to-end metric) both values (the best sample,
as ``run.py`` reports it), medians and quartiles are printed with the
ratio B/A and a verdict from the bounds fixed in ``BENCHMARK.json``:

* ``unresolved`` — either side's inter-quartile spread, as a share of
  its median, exceeds the bound: the runs cannot tell;
* ``regressed`` / ``improved`` — B's value is worse / better than A's
  by more than the bound;
* ``unchanged`` — otherwise.

Differences that make the comparison apples-to-oranges (simulated
results, resolved queue backend, Python version, core count) are flagged
instead of compared silently.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

ENV_KEYS = ("queue_backend_resolved", "python", "nproc", "code_fingerprint", "seed")

#: Counts fixed by (workload, seed, code): they repeat exactly, so any
#: difference is a change of behaviour, not noise.
EXACT_COUNTS = ("vp_queries", "events", "result_mb")


def spread(entry: Dict[str, Any]) -> float:
    """Inter-quartile distance as a share of the median."""
    return (entry["q3"] - entry["q1"]) / abs(entry["median"]) if entry["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> Dict[str, Any]:
    """Rows and flags of B against A (both result-file documents)."""
    flags: List[str] = []
    for key in ENV_KEYS:
        if a["env"].get(key) != b["env"].get(key):
            flags.append(f"{key} differs: {a['env'].get(key)!r} vs {b['env'].get(key)!r}")
    for side, document in (("A", a), ("B", b)):
        if document["env"].get("noisy"):
            flags.append(f"{side} was measured on a loaded machine (loadavg > nproc)")
    rows = []
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None:
            flags.append(f"workload {name} is missing from B")
            continue
        if run_a.get("sim_digest") != run_b.get("sim_digest"):
            flags.append(f"{name}: simulated results changed (sim_digest differs)")
        for key in EXACT_COUNTS:
            if key in run_a and key in run_b and run_a[key] != run_b[key]:
                flags.append(f"{name}: exact count {key} changed: {run_a[key]} -> {run_b[key]}")
        for side, run in (("A", run_a), ("B", run_b)):
            if run.get("failed"):
                flags.append(f"{name}: {run['failed']} failed operation(s) in {side}")
        for spec in contract["end_to_end"]:
            entry_a = run_a.get("end_to_end", {}).get(spec["name"])
            entry_b = run_b.get("end_to_end", {}).get(spec["name"])
            if not entry_a or not entry_b or entry_a["value"] is None or entry_b["value"] is None:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": spec["name"],
                    "unit": spec["unit"],
                    "bound": spec["bound"],
                    "a": entry_a,
                    "b": entry_b,
                    "ratio": entry_b["value"] / entry_a["value"] if entry_a["value"] else None,
                    "verdict": verdict(entry_a, entry_b, spec["better"], spec["bound"]),
                }
            )
    return {"rows": rows, "flags": flags}


def render(result: Dict[str, Any], path_a: str, path_b: str) -> str:
    lines = [
        f"A = {path_a}",
        f"B = {path_b}",
        f"{'workload':<18}{'metric':<18}{'A value (median) [q1, q3]':<50}"
        f"{'B value (median) [q1, q3]':<50}{'B/A':>8}  {'bound':>6}  verdict",
    ]
    for row in result["rows"]:
        cells = [
            f"{side['value']:.5g} ({side['median']:.5g}) "
            f"[{side['q1']:.5g}, {side['q3']:.5g}] n={side['n']}"
            for side in (row["a"], row["b"])
        ]
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "n/a"
        lines.append(
            f"{row['workload']:<18}{row['metric']:<18}{cells[0]:<50}{cells[1]:<50}"
            f"{ratio:>8}  {row['bound']:>6.0%}  {row['verdict']}"
        )
    lines.append("(ratio base: A's value; verdicts use the bounds in BENCHMARK.json)")
    for flag in result["flags"]:
        lines.append(f"FLAG: {flag}")
    return "\n".join(lines)


def main(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    documents = []
    for path in (path_a, path_b):
        with open(path, "r", encoding="utf-8") as stream:
            documents.append(json.load(stream))
    result = compare(documents[0], documents[1], contract)
    print(render(result, path_a, path_b))
    regressed = any(row["verdict"] == "regressed" for row in result["rows"])
    return 1 if regressed else 0
