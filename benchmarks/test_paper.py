"""Every paper cell against its band, at the report's default sizes."""

import pytest

from repro.analysis.scoreboard import CELLS


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
def test_paper_cell(cell, runs):
    value = cell.evaluate(runs)
    assert cell.holds(value), (
        f"{cell.id} = {value!r}, outside {cell.band} (paper: {cell.paper})"
    )
