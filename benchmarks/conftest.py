"""One session of named results for the paper scoreboard.

A single ``run_many`` batch runs the report's battery at its default
sizes (600 baseline / 400 DDoS probes, seed 42) together with the
extension runs (the anycast study included), through the
:class:`repro.runner.DiskCache` at ``benchmarks/.runcache``
(``$REPRO_CACHE_DIR`` relocates it). A repeat session against unchanged
code skips every simulation; any edit under ``src/repro`` changes the
code fingerprint and reruns them. The two synthetic §4 traces
(``IN_PROCESS``) have no run-request kind and are regenerated here each
session: they run no simulator and take about 0.15 s together.

Run:  PYTHONPATH=src python -m pytest benchmarks -q
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.scoreboard import (
    IN_PROCESS,
    extension_requests,
    paper_requests,
)
from repro.runner import DiskCache, run_many

BASELINE_PROBES = 600
DDOS_PROBES = 400
SEED = 42
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
RUNCACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", str(pathlib.Path(__file__).parent / ".runcache")
)


@pytest.fixture(scope="session")
def runs():
    named = paper_requests(BASELINE_PROBES, DDOS_PROBES, SEED)
    named += extension_requests(SEED)
    results = run_many(
        [request for _, request in named], cache=DiskCache(RUNCACHE_DIR)
    )
    by_name = {name: result for (name, _), result in zip(named, results)}
    by_name.update((name, compute(SEED)) for name, compute in IN_PROCESS.items())
    return by_name
