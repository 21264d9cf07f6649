"""Consistency checks on the paper scoreboard the report and benches share."""

import math
import re

from repro.analysis.scoreboard import (
    CELLS,
    IN_PROCESS,
    extension_requests,
    paper_requests,
)
from repro.core.experiments import BASELINE_EXPERIMENTS, DDOS_EXPERIMENTS

IDS = {cell.id for cell in CELLS}


def test_cell_ids_are_unique():
    assert len(IDS) == len(CELLS)


def test_every_band_is_well_formed():
    for cell in CELLS:
        bounds = [bound for bound in (cell.lo, cell.hi) if bound is not None]
        assert all(math.isfinite(bound) for bound in bounds), cell.id
        if len(bounds) == 2:
            assert cell.lo <= cell.hi if cell.closed else cell.lo < cell.hi, cell.id
        # A cell without a band must at least carry the paper's number.
        assert bounds or cell.value is not None, cell.id
        assert bounds or not cell.closed, cell.id


def test_every_run_a_cell_reads_is_in_the_batch():
    names = [name for name, _ in paper_requests() + extension_requests()]
    assert len(names) == len(set(names))
    available = set(names) | set(IN_PROCESS)
    for cell in CELLS:
        assert set(cell.reads.split()) <= available, cell.id


def test_paper_miss_covers_every_baseline():
    for key in BASELINE_EXPERIMENTS:
        assert f"fig03.{key}.miss_rate" in IDS


def test_paper_failures_reference_real_experiments():
    experiments = {"ddos": DDOS_EXPERIMENTS, "baseline": BASELINE_EXPERIMENTS}
    for cell in CELLS:
        for name in cell.reads.split():
            kind, _, key = name.partition("-")
            if kind in experiments:
                assert key in experiments[kind], (cell.id, name)


def test_paper_software_covers_both_conditions():
    for software in ("bind", "unbound"):
        for condition in ("normal", "attack"):
            assert f"fig16.{software}.{condition}" in IDS


def test_paper_value_matches_paper_text():
    """A cell's number is one the paper's text states (percent or plain)."""
    for cell in CELLS:
        if cell.value is None:
            continue
        stated = [
            float(number) / (100 if percent else 1)
            for number, percent in re.findall(r"(\d+(?:\.\d+)?)(%?)", cell.paper)
        ]
        assert any(math.isclose(cell.value, number) for number in stated), (
            cell.id,
            cell.paper,
            cell.value,
        )
