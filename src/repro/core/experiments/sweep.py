"""Parameter sweeps: the resilience surface behind the paper's matrix.

The paper samples a handful of (loss rate, TTL) points — Experiments
D–I. This module generalizes that into a grid sweep producing the full
client-failure / amplification surface, which is how an operator would
actually consume the result ("how much TTL do I need to survive an
attack of intensity X?").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.clients.population import PopulationConfig
from repro.core.experiments.ddos import DDoSSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner import DiskCache, RunFailure


@dataclass
class SweepPoint:
    """One (loss, TTL) cell of the surface."""

    loss_fraction: float
    ttl: int
    failure_before: float
    failure_during: float
    amplification: float

    @property
    def failure_added(self) -> float:
        """Attack-attributable failure (during minus baseline)."""
        return max(0.0, self.failure_during - self.failure_before)


@dataclass
class SweepResult:
    """The full grid, indexable by (loss, ttl).

    Under ``keep_going`` a cell whose run exhausted its retries is absent
    from ``points`` and recorded in ``failures`` instead; derived
    matrices carry NaN in that cell so the rest of the surface is still
    usable.
    """

    points: List[SweepPoint]
    probe_count: int
    seed: int
    failures: List["RunFailure"] = field(default_factory=list)

    def point(self, loss_fraction: float, ttl: int) -> SweepPoint:
        for candidate in self.points:
            if candidate.loss_fraction == loss_fraction and candidate.ttl == ttl:
                return candidate
        raise KeyError(f"no sweep point for loss={loss_fraction}, ttl={ttl}")

    def losses(self) -> List[float]:
        return sorted({point.loss_fraction for point in self.points})

    def ttls(self) -> List[int]:
        return sorted({point.ttl for point in self.points})

    def failure_matrix(self) -> List[List[float]]:
        """Rows = TTLs (ascending), columns = losses (ascending).

        A cell lost to a failed run renders as NaN rather than taking
        the whole matrix down with a ``KeyError``.
        """
        matrix: List[List[float]] = []
        for ttl in self.ttls():
            row: List[float] = []
            for loss in self.losses():
                try:
                    row.append(self.point(loss, ttl).failure_during)
                except KeyError:
                    row.append(float("nan"))
            matrix.append(row)
        return matrix

    def minimum_ttl_for(
        self, loss_fraction: float, max_failure: float
    ) -> Optional[int]:
        """Smallest swept TTL keeping failures at/below ``max_failure``
        under ``loss_fraction`` — the operator's planning question.
        Cells lost to failed runs are treated as not satisfying."""
        for ttl in self.ttls():
            try:
                candidate = self.point(loss_fraction, ttl)
            except KeyError:
                continue
            if candidate.failure_during <= max_failure:
                return ttl
        return None


def sweep_spec(
    ttl: int,
    loss_fraction: float,
    attack_start_min: float = 60.0,
    attack_duration_min: float = 60.0,
) -> DDoSSpec:
    """One grid cell as a Table 4-style spec (10-minute probing rounds,
    one round of tail after the attack)."""
    return DDoSSpec(
        key=f"sweep-{ttl}-{int(loss_fraction * 100)}",
        ttl=ttl,
        ddos_start_min=attack_start_min,
        ddos_duration_min=attack_duration_min,
        queries_before=int(attack_start_min // 10),
        total_duration_min=attack_start_min + attack_duration_min + 10,
        probe_interval_min=10,
        loss_fraction=loss_fraction,
        servers="both",
    )


def run_sweep(
    losses: Sequence[float] = (0.5, 0.75, 0.9),
    ttls: Sequence[int] = (60, 300, 1800),
    probe_count: int = 200,
    seed: int = 42,
    attack_start_min: float = 60.0,
    attack_duration_min: float = 60.0,
    population: Optional[PopulationConfig] = None,
    jobs: Optional[int] = 1,
    cache: Optional["DiskCache"] = None,
    keep_going: bool = False,
) -> SweepResult:
    """Run the grid; one full DDoS experiment per cell.

    Cells are independent runs, so the grid fans out over ``jobs`` worker
    processes (``None``/0 = all cores; the default of 1 keeps library
    callers serial) and previously-computed cells are reused from
    ``cache``. Point order — and therefore every derived matrix — is the
    (ttl, loss) grid order regardless of parallelism.

    With ``keep_going`` a cell that exhausts the executor's retry ladder
    is dropped from the surface (NaN in the matrices) and recorded in
    :attr:`SweepResult.failures` instead of aborting the whole grid.
    """
    from repro.runner import RunFailure, ddos_request, run_many

    cells = [(ttl, loss) for ttl in ttls for loss in losses]
    requests = [
        ddos_request(
            sweep_spec(ttl, loss, attack_start_min, attack_duration_min),
            probe_count=probe_count,
            seed=seed,
            population=population,
        )
        for ttl, loss in cells
    ]
    results = run_many(requests, jobs=jobs, cache=cache, keep_going=keep_going)
    points = [
        SweepPoint(
            loss_fraction=loss,
            ttl=ttl,
            failure_before=result.failure_fraction_before_attack(),
            failure_during=result.failure_fraction_during_attack(),
            amplification=result.amplification(),
        )
        for (ttl, loss), result in zip(cells, results)
        if not isinstance(result, RunFailure)
    ]
    failures = [result for result in results if isinstance(result, RunFailure)]
    return SweepResult(
        points=points, probe_count=probe_count, seed=seed, failures=failures
    )
