"""repro — a reproduction of "When the Dike Breaks: Dissecting DNS
Defenses During DDoS" (Moura et al., ACM IMC 2018 / ISI-TR-725).

The library contains a complete, self-contained DNS ecosystem simulator
— protocol, authoritative servers, recursive resolver stack, client
population, network emulation with DDoS loss schedules — plus the
paper's measurement methodology (answer classification, latency and
amplification metrics) and a runner for every experiment behind the
paper's tables and figures.

Quick start::

    from repro import run_ddos, DDOS_EXPERIMENTS

    result = run_ddos(DDOS_EXPERIMENTS["H"], probe_count=500)
    print(result.failure_fraction_during_attack())   # ~0.40 in the paper
    print(result.amplification())                    # ~8x in the paper

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.clients import (
    Population,
    PopulationConfig,
    Probe,
    ProfileShares,
    build_population,
)
from repro.core import (
    AnswerClass,
    ClassificationTable,
    RotationSchedule,
    Testbed,
    TestbedConfig,
    World,
    classify_answers,
    classify_misses_by_resolver,
)
from repro.attackload import AttackLoadSpec
from repro.core.experiments import (
    BASELINE_EXPERIMENTS,
    DDOS_EXPERIMENTS,
    BaselineResult,
    BaselineSpec,
    DDoSResult,
    DDoSSpec,
    DefenseStudyResult,
    run_baseline,
    run_ddos,
    run_defense_study,
)
from repro.defense import DefenseSpec
from repro.core.experiments.glue import (
    run_cache_dump_study,
    run_glue_experiment,
)
from repro.core.experiments.probe_case import run_probe_case
from repro.core.experiments.software import run_software_study
from repro.dnscore import Message, Name, RRType, Zone
from repro.netem import AttackSchedule, AttackWindow, Network
from repro.obs import MetricsRegistry, ObsSpec, Tracer
from repro.runner import (
    MISS,
    DiskCache,
    RetryPolicy,
    RunFailure,
    RunFailureError,
    RunRequest,
    baseline_request,
    ddos_request,
    run_many,
)
from repro.resolvers import (
    DnsCache,
    ForwardingResolver,
    PublicResolverPool,
    RecursiveResolver,
    ResolverConfig,
    StubResolver,
)
from repro.servers import AuthoritativeServer, ZoneSpec, build_hierarchy
from repro.simcore import Simulator

__version__ = "1.0.0"

__all__ = [
    "AnswerClass",
    "AttackLoadSpec",
    "AttackSchedule",
    "AttackWindow",
    "AuthoritativeServer",
    "BASELINE_EXPERIMENTS",
    "BaselineResult",
    "BaselineSpec",
    "ClassificationTable",
    "DDOS_EXPERIMENTS",
    "DDoSResult",
    "DDoSSpec",
    "DefenseSpec",
    "DefenseStudyResult",
    "DiskCache",
    "DnsCache",
    "ForwardingResolver",
    "MISS",
    "Message",
    "MetricsRegistry",
    "Name",
    "Network",
    "ObsSpec",
    "Population",
    "PopulationConfig",
    "Probe",
    "ProfileShares",
    "PublicResolverPool",
    "RRType",
    "RecursiveResolver",
    "ResolverConfig",
    "RetryPolicy",
    "RotationSchedule",
    "RunFailure",
    "RunFailureError",
    "RunRequest",
    "Simulator",
    "StubResolver",
    "Testbed",
    "TestbedConfig",
    "Tracer",
    "World",
    "Zone",
    "ZoneSpec",
    "baseline_request",
    "build_hierarchy",
    "build_population",
    "classify_answers",
    "classify_misses_by_resolver",
    "ddos_request",
    "run_baseline",
    "run_cache_dump_study",
    "run_ddos",
    "run_defense_study",
    "run_glue_experiment",
    "run_many",
    "run_probe_case",
    "run_software_study",
    "__version__",
]
