#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-reported vs measured, every table/figure.

Thin wrapper around :func:`repro.analysis.report.build_report`. Runs go
through the paper scoreboard's run cache (``$REPRO_CACHE_DIR``, else
``benchmarks/.runcache``), so a regeneration after
``pytest benchmarks`` reuses that session's runs.

Usage:  python scripts/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

from repro.analysis.report import build_report
from repro.runner import DiskCache

RUNCACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR",
    str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / ".runcache"),
)


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    started = time.time()
    # The committed artifact carries the beyond-the-paper defense grid.
    report = build_report(include_defense=True, cache=DiskCache(RUNCACHE_DIR))
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {output_path} in {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
