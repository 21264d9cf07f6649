#!/usr/bin/env python
"""Assert the observability layer is zero-cost when disabled.

A testbed built without an ``ObsSpec`` must hold no registry, recorder,
or per-source sketch and must record no telemetry after a short run
(:func:`assert_zero_cost_disabled`). Wall-time budgets live in
``perfbench/``, which measures whole experiments rather than the kernel
in isolation.

Usage::

    PYTHONPATH=src python scripts/check_kernel_budget.py
"""

from __future__ import annotations

import argparse
import sys


def assert_zero_cost_disabled() -> None:
    """Structurally verify the zero-cost-when-disabled promise.

    With no ``ObsSpec``, a testbed must hold *no* observability objects
    at all — no metrics registry, no flight recorder, no per-source
    sketch — so the hot paths capture ``None`` sinks at construction and
    skip every telemetry branch.
    """
    from repro.clients.population import PopulationConfig
    from repro.core.testbed import Testbed, TestbedConfig

    testbed = Testbed(
        TestbedConfig(
            seed=1, population=PopulationConfig(probe_count=2)
        )
    )
    problems = []
    if testbed.obs.registry is not None:
        problems.append("metrics registry built without an ObsSpec")
    if testbed.obs.recorder is not None:
        problems.append("flight recorder built without a TimelineSpec")
    if testbed.source_sketch is not None:
        problems.append("source sketch built without a TimelineSpec")
    testbed.schedule_probing(0.0, 30.0, 2)
    testbed.run(60.0, grace=5.0)
    if testbed.timeline_points:
        problems.append(
            f"{len(testbed.timeline_points)} timeline points recorded "
            "with telemetry disabled"
        )
    if testbed.metric_snapshots:
        problems.append(
            f"{len(testbed.metric_snapshots)} metric snapshots recorded "
            "with telemetry disabled"
        )
    if problems:
        raise SystemExit(
            "check_kernel_budget: zero-cost-when-disabled violated: "
            + "; ".join(problems)
        )
    print("check_kernel_budget: zero-cost-when-disabled: ok")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv
    )
    assert_zero_cost_disabled()
    return 0


if __name__ == "__main__":
    sys.exit(main())
