"""Parallel-vs-serial determinism across the full experiment battery.

The executor's contract is that ``jobs=N`` output is identical to
``jobs=1`` output, and that a cache hit is indistinguishable from a
fresh run. These tests run every DDoS scenario A–I and every caching
baseline at reduced scale both ways and compare the derived metrics the
paper's tables and figures are built from.
"""

import hashlib

import pytest

from repro.attackload import AttackLoadSpec
from repro.core.experiments import BASELINE_EXPERIMENTS, DDOS_EXPERIMENTS
from repro.core.experiments.ddos import DDoSSpec
from repro.defense import DefenseSpec
from repro.runner import (
    DiskCache,
    baseline_request,
    ddos_request,
    run_many,
)

DDOS_PROBES = 24
BASELINE_PROBES = 40
SEED = 42

# A defended emergent-loss scenario (the defense-study shape at reduced
# scale): real attackers, RRL + filter + finite capacity. It must obey
# the same jobs=N / cache contracts as the axiomatic-drop experiments.
DEFENSE_SPEC = DDoSSpec(
    key="det-defense",
    ttl=60,
    ddos_start_min=10,
    ddos_duration_min=10,
    queries_before=1,
    total_duration_min=30,
    probe_interval_min=10,
    loss_fraction=0.0,
    servers="both",
)
DEFENSE_ATTACK = AttackLoadSpec(
    mode="direct-flood", attackers=2, qps=20.0, start=600.0, duration=600.0
)
DEFENSE_DEFENSE = DefenseSpec(
    rrl=True, rrl_rate=5.0, filtering=True, qps_capacity=20.0, queue_limit=10
)


def rows_digest(rows):
    """sha256 over every row of an answer or class store, field by field.

    Resolver addresses come out of the stores' interned tables, so a
    table that lost or reordered an entry across a boundary shows here
    even where no derived series reads it.
    """
    digest = hashlib.sha256()
    for row in rows:
        answer = getattr(row, "answer", row)
        fields = [getattr(answer, name) for name in answer.__slots__]
        if answer is not row:
            fields += [row.answer_class.value, row.ttl_altered, row.serial_decreased]
        digest.update(repr(fields).encode("utf-8") + b"\n")
    return digest.hexdigest()


def ddos_metrics(result):
    """Every testbed- and client-side series a DDoS figure reads."""
    return {
        "answers": rows_digest(result.answers),
        "classified": rows_digest(result.classified),
        "outcomes": result.outcomes_by_round(),
        "classes": result.class_timeseries(),
        "fail_before": result.failure_fraction_before_attack(),
        "fail_during": result.failure_fraction_during_attack(),
        "amplification": result.amplification(),
        "auth_load": result.authoritative_load(),
        "unique_rn": result.unique_rn(),
        "latency": [
            (row.round_index, row.mean_ms, row.median_ms)
            for row in result.latency_series()
        ],
        "defense": result.testbed.defense_stats,
        "attack": result.testbed.attack_stats,
    }


def baseline_metrics(result):
    return {
        "answers": rows_digest(result.answers),
        "classified": rows_digest(result.classified),
        "miss_rate": result.miss_rate,
        "dataset": result.dataset.as_rows(),
        "table2": result.table2.as_rows(),
        "table3": result.table3.as_rows(),
        "classes": result.class_timeseries(),
    }


@pytest.fixture(scope="module")
def battery_requests():
    return (
        [
            ddos_request(spec, probe_count=DDOS_PROBES, seed=SEED)
            for spec in DDOS_EXPERIMENTS.values()
        ]
        + [
            ddos_request(
                DEFENSE_SPEC,
                probe_count=DDOS_PROBES,
                seed=SEED,
                attack_load=DEFENSE_ATTACK,
                defense=DEFENSE_DEFENSE,
            )
        ]
        + [
            baseline_request(spec, probe_count=BASELINE_PROBES, seed=SEED)
            for spec in BASELINE_EXPERIMENTS.values()
        ]
    )


@pytest.fixture(scope="module")
def serial_results(battery_requests):
    return run_many(battery_requests, jobs=1)


def metrics_of(results):
    ddos_count = len(DDOS_EXPERIMENTS) + 1  # + the defended scenario
    return [
        ddos_metrics(result) if index < ddos_count else baseline_metrics(result)
        for index, result in enumerate(results)
    ]


def test_jobs4_identical_to_jobs1(battery_requests, serial_results):
    parallel = run_many(battery_requests, jobs=4)
    assert metrics_of(parallel) == metrics_of(serial_results)


def test_cache_hit_equals_fresh_run(tmp_path, battery_requests, serial_results):
    cache = DiskCache(tmp_path)
    cold = run_many(battery_requests, jobs=1, cache=cache)
    assert cache.misses == len(battery_requests) and cache.hits == 0
    warm = run_many(battery_requests, jobs=4, cache=cache)
    assert cache.hits == len(battery_requests)
    assert metrics_of(cold) == metrics_of(serial_results)
    assert metrics_of(warm) == metrics_of(serial_results)


def test_every_scenario_key_covered(battery_requests):
    keys = {request.spec.key for request in battery_requests}
    assert set(DDOS_EXPERIMENTS) <= keys
    assert set(BASELINE_EXPERIMENTS) <= keys
    assert "det-defense" in keys


_HASH_SEED_CHILD = """
import pickle, sys
sys.path[:0] = ["src", "."]
from repro.core.experiments import DDOS_EXPERIMENTS
from repro.runner import DiskCache, ddos_request, run_many
from tests.test_runner_determinism import ddos_metrics
cache = DiskCache(sys.argv[1])
request = ddos_request(DDOS_EXPERIMENTS["H"], probe_count=60, seed=SEED)
(result,) = run_many([request], jobs=1, cache=cache)
with open(sys.argv[2], "wb") as stream:
    pickle.dump((cache.hits, ddos_metrics(result)), stream)
""".replace("SEED", str(SEED))


def _metrics_in_child(hash_seed, cache_dir, out_path):
    import os
    import pickle
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run(
        [sys.executable, "-c", _HASH_SEED_CHILD, str(cache_dir), str(out_path)],
        check=True,
        cwd=root,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    )
    with open(out_path, "rb") as stream:
        return pickle.load(stream)


def test_cached_result_survives_a_new_hash_seed(tmp_path):
    """A result written under one PYTHONHASHSEED and read under another
    reads the same numbers as an in-process run — Figure 10's NS-address
    kinds included, which depend on set lookups of pickled names."""
    from repro.core.experiments import run_ddos

    expected = ddos_metrics(run_ddos(DDOS_EXPERIMENTS["H"], probe_count=60, seed=SEED))
    kinds = {kind for counts in expected["auth_load"].values() for kind in counts}
    assert {"A-for-NS", "AAAA-for-NS"} <= kinds

    hits, cold = _metrics_in_child(1, tmp_path / "cache", tmp_path / "cold.pkl")
    assert hits == 0
    hits, warm = _metrics_in_child(2, tmp_path / "cache", tmp_path / "warm.pkl")
    assert hits == 1
    assert cold == expected
    assert warm["auth_load"] == expected["auth_load"]
    assert warm == expected


def test_cached_anycast_study_reads_the_same_cells(tmp_path):
    """The anycast study is a run-request kind: a warm ``run_many``
    reads its result back from disk with the scoreboard's cell values
    unchanged."""
    from repro.analysis.scoreboard import CELL
    from repro.core.experiments.anycast_study import AnycastSpec
    from repro.runner import anycast_request

    requests = [
        anycast_request(AnycastSpec(), probe_count=60, seed=SEED),
        anycast_request(AnycastSpec(withdraw_after_min=20), probe_count=60, seed=SEED),
    ]
    cells = [
        CELL[f"anycast.{name}"] for name in ("attacked", "healthy", "withdrawal")
    ]

    def values(results):
        runs = dict(zip(("anycast", "anycast-withdrawn"), results))
        return [cell.evaluate(runs) for cell in cells]

    cache = DiskCache(tmp_path)
    cold = values(run_many(requests, jobs=1, cache=cache))
    assert (cache.hits, cache.misses) == (0, 2)
    warm = values(run_many(requests, jobs=1, cache=cache))
    assert cache.hits == 2
    assert warm == cold
