"""Layered-defense reliability grids: Table 4 with real attack traffic.

The paper's Table 4 experiments *impose* a loss rate at the
authoritatives. This family instead offers an adversarial query stream
(:mod:`repro.attackload`) against authoritatives with a finite service
capacity (:mod:`repro.defense`), so loss *emerges* from saturation — and
then measures how much of the legitimate VPs' reliability each defense
layer buys back as layers are added one at a time:

* ``capacity-only`` — no active defense; the bounded service queue is
  the only thing standing between the flood and the zone.
* ``+rrl`` — BIND-style response rate limiting on top of capacity.
* ``+filter`` — per-source attacker filtering on top of capacity.
* ``+rrl+filter`` — both layers together.

Columns sweep attack intensity as a multiple of per-server capacity
(offered-load ratio rho). At rho the steady-state emergent loss of the
undefended column tends to ``1 - 1/rho`` (§ the M/D/1/K note in
``repro.defense.capacity``), which is how the grid reconciles with the
paper's configured-loss rows: rho 2, 4, 10 are the emergent analogues of
the 50%, 75%, 90% experiments (D–I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.attackload import (
    MODE_DIRECT,
    MODES,
    SPOOF_NONE,
    AttackLoadSpec,
)
from repro.clients.population import PopulationConfig
from repro.core.experiments.ddos import DDoSSpec
from repro.defense import DefenseSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner import DiskCache, RunFailure

# The measurement zone always runs two test authoritatives ("both" in
# Table 4's terms); capacity is per server, so the flood must offer
# intensity x capacity x servers in total for each server to see rho =
# intensity.
TEST_SERVER_COUNT = 2

# Grid rows, in the order layers are added. Each entry maps the row key
# to the (rrl, filtering) switches; capacity is always on — it is the
# substrate that makes loss emergent rather than configured.
DEFENSE_LAYERS: Tuple[Tuple[str, bool, bool], ...] = (
    ("capacity-only", False, False),
    ("+rrl", True, False),
    ("+filter", False, True),
    ("+rrl+filter", True, True),
)


@dataclass
class DefenseCell:
    """One (defense layers, attack intensity) cell of the grid."""

    layers: str
    intensity: float
    failure_before: float
    failure_during: float
    defense_stats: Dict[str, int] = field(repr=False)
    attack_stats: Dict[str, int] = field(repr=False)

    @property
    def reliability(self) -> float:
        """Legit-VP answer rate during the attack (1 - failure)."""
        return 1.0 - self.failure_during

    def _class_fraction(self, suffix: str) -> float:
        """Served share of all defense decisions for one traffic class."""
        served = self.defense_stats.get(f"served_{suffix}", 0)
        decided = served + sum(
            self.defense_stats.get(f"{counter}_{suffix}", 0)
            for counter in ("filtered", "rate_limited", "dropped_capacity")
        )
        if decided == 0:
            return 1.0
        return served / decided

    @property
    def legit_served_fraction(self) -> float:
        """Fraction of legitimate queries the authoritatives served."""
        return self._class_fraction("legit")

    @property
    def attack_served_fraction(self) -> float:
        """Fraction of attack queries that got past every layer."""
        return self._class_fraction("attack")


@dataclass
class DefenseStudyResult:
    """The full layers x intensity grid, plus rendering helpers."""

    cells: List[DefenseCell]
    capacity: float
    mode: str
    probe_count: int
    seed: int
    failures: List["RunFailure"] = field(default_factory=list)

    def cell(self, layers: str, intensity: float) -> DefenseCell:
        for candidate in self.cells:
            if candidate.layers == layers and candidate.intensity == intensity:
                return candidate
        raise KeyError(f"no cell for layers={layers!r}, intensity={intensity}")

    def _cell_or_none(
        self, layers: str, intensity: float
    ) -> Optional[DefenseCell]:
        """Grid lookup for renderers: ``None`` where the run failed."""
        try:
            return self.cell(layers, intensity)
        except KeyError:
            return None

    def layer_rows(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.layers not in seen:
                seen.append(cell.layers)
        return seen

    def intensities(self) -> List[float]:
        return sorted({cell.intensity for cell in self.cells})

    def render(self) -> str:
        """Plain-text grid for the CLI."""
        intensities = self.intensities()
        lines = [
            (
                f"legit-VP reliability during attack ({self.mode}, "
                f"capacity {self.capacity:.0f} q/s per server; columns: "
                "offered load / capacity)"
            ),
            f"{'defenses':>14} "
            + "".join(f"{intensity:>8.0f}x" for intensity in intensities),
        ]
        for layers in self.layer_rows():
            row = "".join(
                f"{cell.reliability:>9.1%}" if cell else f"{'n/a':>9}"
                for cell in (
                    self._cell_or_none(layers, intensity)
                    for intensity in intensities
                )
            )
            lines.append(f"{layers:>14} {row}")
        lines.append("")
        lines.append("attack queries surviving every layer:")
        for layers in self.layer_rows():
            row = "".join(
                f"{cell.attack_served_fraction:>9.1%}" if cell else f"{'n/a':>9}"
                for cell in (
                    self._cell_or_none(layers, intensity)
                    for intensity in intensities
                )
            )
            lines.append(f"{layers:>14} {row}")
        return "\n".join(lines)

    def markdown(self) -> List[str]:
        """Markdown rows for the EXPERIMENTS report."""
        intensities = self.intensities()
        header = "| defenses | " + " | ".join(
            f"{intensity:.0f}x capacity" for intensity in intensities
        )
        lines = [
            header + " |",
            "|---" * (len(intensities) + 1) + "|",
        ]
        for layers in self.layer_rows():
            cells = " | ".join(
                (
                    f"{cell.reliability:.1%} "
                    f"(atk {cell.attack_served_fraction:.0%})"
                    if cell
                    else "n/a (run failed)"
                )
                for cell in (
                    self._cell_or_none(layers, intensity)
                    for intensity in intensities
                )
            )
            lines.append(f"| {layers} | {cells} |")
        return lines


def defense_spec_for(
    layers: str,
    capacity: float,
    queue_limit: int = 10,
    rrl_rate: Optional[float] = None,
) -> DefenseSpec:
    """The :class:`DefenseSpec` for one grid row key.

    The study's RRL floor defaults to ``capacity / 4``: rate limiting
    only helps if it caps a hot prefix *below* server capacity (a floor
    at or above capacity can never pull an overloaded server out of
    saturation). The small queue bounds waiting time at ``queue_limit /
    capacity`` seconds, keeping served-but-late responses inside the
    recursives' retry timeouts — loss shows up as loss, not as timeout
    inflation.
    """
    if rrl_rate is None:
        rrl_rate = capacity / 4.0
    for key, rrl, filtering in DEFENSE_LAYERS:
        if key == layers:
            return DefenseSpec(
                rrl=rrl,
                rrl_rate=rrl_rate,
                filtering=filtering,
                qps_capacity=capacity,
                queue_limit=queue_limit,
            )
    raise KeyError(f"unknown defense row {layers!r}")


def run_defense_study(
    intensities: Sequence[float] = (2.0, 4.0, 10.0),
    capacity: float = 20.0,
    mode: str = MODE_DIRECT,
    attackers: int = 8,
    probe_count: int = 120,
    seed: int = 42,
    layer_rows: Sequence[str] = tuple(key for key, _, _ in DEFENSE_LAYERS),
    population: Optional[PopulationConfig] = None,
    jobs: Optional[int] = 1,
    cache: Optional["DiskCache"] = None,
    keep_going: bool = False,
) -> DefenseStudyResult:
    """Run the grid; one emergent-loss DDoS experiment per cell.

    Every cell is a normal Table 4 timeline (warm-up, attack window,
    recovery) with ``loss_fraction`` 0 — no axiomatic drop — plus an
    :class:`AttackLoadSpec` flood sized to ``intensity x capacity x
    TEST_SERVER_COUNT`` total q/s and a :class:`DefenseSpec` from the
    row key. Cells fan out over ``jobs`` workers and reuse ``cache``
    like every other batch experiment.

    The short TTL (60 s) keeps recursives dependent on live
    authoritative service during the attack, so reliability tracks what
    the defenses let through rather than what caches hide (the paper's
    Experiment I regime).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    from repro.runner import RunFailure, ddos_request, run_many

    attack_start_min, attack_duration_min = 30.0, 40.0
    total_min = attack_start_min + attack_duration_min + 10.0
    cells = [
        (layers, float(intensity))
        for layers in layer_rows
        for intensity in intensities
    ]
    requests = []
    for layers, intensity in cells:
        total_qps = intensity * capacity * TEST_SERVER_COUNT
        requests.append(
            ddos_request(
                DDoSSpec(
                    key=f"defense-{layers}-{intensity:g}x",
                    ttl=60,
                    ddos_start_min=attack_start_min,
                    ddos_duration_min=attack_duration_min,
                    queries_before=int(attack_start_min // 10),
                    total_duration_min=total_min,
                    probe_interval_min=10,
                    loss_fraction=0.0,
                    servers="both",
                ),
                probe_count=probe_count,
                seed=seed,
                population=population,
                attack_load=AttackLoadSpec(
                    mode=mode,
                    attackers=attackers,
                    qps=total_qps / attackers,
                    start=attack_start_min * 60.0,
                    duration=attack_duration_min * 60.0,
                    spoof=SPOOF_NONE,
                ),
                defense=defense_spec_for(layers, capacity),
            )
        )
    results = run_many(requests, jobs=jobs, cache=cache, keep_going=keep_going)
    study_cells = [
        DefenseCell(
            layers=layers,
            intensity=intensity,
            failure_before=result.failure_fraction_before_attack(),
            failure_during=result.failure_fraction_during_attack(),
            defense_stats=dict(result.testbed.defense_stats or {}),
            attack_stats=dict(result.testbed.attack_stats or {}),
        )
        for (layers, intensity), result in zip(cells, results)
        if not isinstance(result, RunFailure)
    ]
    return DefenseStudyResult(
        cells=study_cells,
        capacity=capacity,
        mode=mode,
        probe_count=probe_count,
        seed=seed,
        failures=[r for r in results if isinstance(r, RunFailure)],
    )
