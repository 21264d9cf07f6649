#!/usr/bin/env python
"""Capture the FSM-port differential goldens.

The FSM refactor (DESIGN.md §14) re-represents the resolver lifecycle as
table-driven state machines without changing behavior. These goldens pin
the *pre-refactor* observable output of small-but-complete experiment
batteries; ``tests/test_fsm_differential.py`` replays the same runs and
requires digest-identical results, so any behavioral drift in the port
fails loudly.

Regenerate (only when an intentional behavior change lands)::

    PYTHONPATH=src python scripts/capture_fsm_goldens.py

writes ``tests/goldens/fsm_port.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys


def _digest(rows) -> str:
    payload = "\n".join(rows).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def answers_digest(answers) -> str:
    """A canonical digest over every stub observation in a run."""
    rows = [
        "|".join(
            (
                str(answer.probe_id),
                str(answer.resolver),
                str(answer.round_index),
                f"{answer.sent_at:.9f}",
                "-" if answer.answered_at is None else f"{answer.answered_at:.9f}",
                str(answer.status),
                "-" if answer.rcode is None else str(int(answer.rcode)),
                "-" if answer.returned_ttl is None else str(answer.returned_ttl),
                "-" if answer.serial is None else str(answer.serial),
                "-" if answer.encoded_ttl is None else str(answer.encoded_ttl),
                str(answer.record_count),
            )
        )
        for answer in answers
    ]
    return _digest(rows)


def querylog_digest(log) -> str:
    """Canonical digest over an authoritative-side query log."""
    rows = [
        f"{entry.time:.9f}|{entry.src}|{entry.qname}|{entry.qtype.name}|{entry.server}"
        for entry in log.entries
    ]
    return _digest(rows)


def capture_ddos(key: str, probes: int, seed: int) -> dict:
    from repro.core.experiments import DDOS_EXPERIMENTS, run_ddos

    result = run_ddos(DDOS_EXPERIMENTS[key], probe_count=probes, seed=seed)
    testbed = result.testbed
    return {
        "answers": answers_digest(result.answers),
        "outcomes_by_round": result.outcomes_by_round(),
        "test_zone_queries": querylog_digest(testbed.query_log),
        "parent_zone_queries": querylog_digest(testbed.parent_query_log),
        "offered_queries": len(testbed.offered_query_log),
    }


def capture_baseline(key: str, probes: int, seed: int) -> dict:
    from repro.core.experiments import BASELINE_EXPERIMENTS, run_baseline

    result = run_baseline(BASELINE_EXPERIMENTS[key], probe_count=probes, seed=seed)
    return {
        "answers": answers_digest(result.answers),
        "miss_rate": f"{result.miss_rate:.9f}",
        "queries": result.dataset.queries,
    }


def capture_software() -> dict:
    from repro.core.experiments import run_software_study

    cells = {}
    for software in ("bind", "unbound"):
        for attack in (False, True):
            cell = run_software_study(software, attack)
            cells[f"{software}:{'attack' if attack else 'normal'}"] = {
                "row": cell.as_row(),
                "resolved": cell.resolved,
            }
    return cells


def capture_glue() -> dict:
    from repro.core.experiments import run_glue_experiment

    from dataclasses import asdict

    result = run_glue_experiment(probe_count=48, rounds=2)
    return {
        "ns_buckets": asdict(result.ns_buckets),
        "a_buckets": asdict(result.a_buckets),
    }


def capture_probe_case() -> dict:
    from dataclasses import asdict

    from repro.core.experiments import run_probe_case

    result = run_probe_case(seed=11)
    return {"rows": [asdict(row) for row in result.rows]}


def capture_cache_dump() -> dict:
    from repro.core.experiments import run_cache_dump_study

    cells = {}
    for software in ("bind", "unbound"):
        result = run_cache_dump_study(software)
        cells[software] = {
            "ns_cached_ttl": result.ns_cached_ttl,
            "dump": [list(row) for row in result.dump],
        }
    return cells


def capture_anycast(probes: int = 120) -> dict:
    from repro.core.experiments import AnycastSpec, run_anycast_study

    cells = {}
    for label, spec in (
        ("plain", AnycastSpec()),
        ("withdraw20", AnycastSpec(withdraw_after_min=20)),
    ):
        result = run_anycast_study(spec, probe_count=probes)
        cells[label] = {
            "attacked": answers_digest(result.answers_attacked_catchment),
            "healthy": answers_digest(result.answers_healthy_catchment),
            "indirect": answers_digest(result.answers_indirect),
        }
    return cells


def capture() -> dict:
    return {
        "ddos_H_p24_s42": capture_ddos("H", probes=24, seed=42),
        "ddos_A_p16_s7": capture_ddos("A", probes=16, seed=7),
        "ddos_I_p16_s42": capture_ddos("I", probes=16, seed=42),
        "baseline_3600_p24_s42": capture_baseline("3600", probes=24, seed=42),
        "software": capture_software(),
        "glue": capture_glue(),
        "probe_case_s11": capture_probe_case(),
        "cache_dump": capture_cache_dump(),
        "anycast_p120": capture_anycast(),
    }


def main() -> int:
    out = pathlib.Path(__file__).resolve().parent.parent / "tests" / "goldens"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fsm_port.json"
    payload = capture()
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
