"""Experiment runners: one per paper experiment.

* :mod:`~repro.core.experiments.baseline` — the §3 caching baseline
  (Tables 1–3, Figures 3 and 13).
* :mod:`~repro.core.experiments.ddos` — the §5/§6 DDoS emulations A–I
  (Table 4, Figures 6–12, 14, 15).
* :mod:`~repro.core.experiments.glue` — Appendix A referral-vs-answer
  TTL precedence (Tables 5–6).
* :mod:`~repro.core.experiments.software` — Appendix E BIND/Unbound
  retry counts (Figure 16).
* :mod:`~repro.core.experiments.probe_case` — Appendix F single-probe
  drill-down (Table 7, Figure 17).
"""

from repro.core.experiments.baseline import (
    BASELINE_EXPERIMENTS,
    BaselineResult,
    BaselineSpec,
    run_baseline,
)
from repro.core.experiments.ddos import (
    DDOS_EXPERIMENTS,
    DDoSResult,
    DDoSSpec,
    run_ddos,
)
from repro.core.experiments.defense_study import (
    DEFENSE_LAYERS,
    DefenseCell,
    DefenseStudyResult,
    run_defense_study,
)
from repro.core.experiments.glue import (
    CacheDumpResult,
    GlueResult,
    TtlBuckets,
    run_cache_dump_study,
    run_glue_experiment,
)
from repro.core.experiments.probe_case import (
    ProbeCaseResult,
    Table7Row,
    run_probe_case,
)
from repro.core.experiments.anycast_study import (
    AnycastResult,
    AnycastSpec,
    run_anycast_study,
)
from repro.core.experiments.software import SoftwareResult, run_software_study
from repro.core.experiments.sweep import SweepPoint, SweepResult, run_sweep

__all__ = [
    "AnycastResult",
    "AnycastSpec",
    "SweepPoint",
    "SweepResult",
    "run_anycast_study",
    "run_sweep",
    "BASELINE_EXPERIMENTS",
    "BaselineResult",
    "BaselineSpec",
    "CacheDumpResult",
    "DDOS_EXPERIMENTS",
    "DDoSResult",
    "DDoSSpec",
    "DEFENSE_LAYERS",
    "DefenseCell",
    "DefenseStudyResult",
    "run_defense_study",
    "GlueResult",
    "ProbeCaseResult",
    "SoftwareResult",
    "Table7Row",
    "TtlBuckets",
    "run_baseline",
    "run_cache_dump_study",
    "run_ddos",
    "run_glue_experiment",
    "run_probe_case",
    "run_software_study",
]
