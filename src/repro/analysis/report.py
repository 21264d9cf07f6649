"""The full paper-vs-measured report (EXPERIMENTS.md generator).

Runs the complete experiment battery at a configurable scale and
renders a Markdown comparison of every table and figure against the
paper's reported values. Deterministic for a given seed. Used by
``scripts/generate_experiments_md.py`` and ``python -m repro report``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.core.experiments import (
    BASELINE_EXPERIMENTS,
    DDOS_EXPERIMENTS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner import DiskCache, RunFailure
from repro.workloads.ditl import (
    DitlConfig,
    fraction_at_least,
    generate_ditl_counts,
    per_letter_cdf,
)
from repro.workloads.nl_trace import (
    NlTraceConfig,
    close_query_fraction,
    generate_nl_trace,
    interarrival_medians,
)

PAPER_MISS = {
    "60": "0.0%", "1800": "32.6%", "3600": "32.9%",
    "86400": "30.9%", "3600-10m": "28.5%",
}
PAPER_FAIL = {
    "E": "8.5%", "F": "19.0%", "H": "40.3%", "I": "~63%",
    "D": "no visible change", "G": "~28%",
}
PAPER_AMP = {"F": "3.5x", "H": "8.2x", "I": "8.1x"}
PAPER_SOFTWARE = {
    ("bind", False): "3", ("bind", True): "12",
    ("unbound", False): "5–6", ("unbound", True): "46",
}


def build_report(
    baseline_probes: int = 600,
    ddos_probes: int = 400,
    seed: int = 42,
    jobs: Optional[int] = None,
    cache: Optional["DiskCache"] = None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    timeline_path: Optional[str] = None,
    timeline_interval: float = 60.0,
    include_defense: bool = False,
    keep_going: bool = False,
    failure_ledger: Optional[List["RunFailure"]] = None,
) -> str:
    """Run everything and return the Markdown comparison report.

    The baseline and DDoS batteries — the expensive part — are fanned out
    over ``jobs`` worker processes (default: all cores) in one batch, and
    individual runs are skipped entirely when ``cache`` already holds
    them. The rendered report is identical for any ``jobs``/cache state.

    ``trace_path``/``metrics_path`` enable tracing/metrics on every
    baseline and DDoS run and write the combined telemetry as JSONL, with
    a ``run`` key (``baseline-1800``, ``ddos-H``) distinguishing rows.
    ``timeline_path`` arms the flight recorder (sampling every
    ``timeline_interval`` sim seconds) the same way, exports every run's
    timeline, and appends a flight-recorder section plotting
    client-visible reliability against the authoritative-side series.

    ``include_defense`` appends the beyond-the-paper layered-defense
    grid (``repro.core.experiments.defense_study``); off by default so
    the stock report stays byte-identical to previous versions.

    ``keep_going`` routes through to the executor: a run that exhausts
    its retry ladder no longer aborts the report — the sections that
    depended on it are replaced by an omission note, every other section
    renders from the runs that survived, and a failure-ledger section
    (plus ``failure_ledger``, when a list is passed in) records exactly
    what was lost.
    """
    from repro.obs import ObsSpec
    from repro.runner import (
        RunFailure,
        RunFailureError,
        baseline_request,
        cache_dump_request,
        ddos_request,
        glue_request,
        probe_case_request,
        run_many,
        software_request,
    )

    obs = None
    if (
        trace_path is not None
        or metrics_path is not None
        or timeline_path is not None
    ):
        from repro.obs import TimelineSpec

        obs = ObsSpec(
            trace=trace_path is not None,
            metrics=metrics_path is not None,
            timeline=(
                TimelineSpec(interval=timeline_interval)
                if timeline_path is not None
                else None
            ),
        )

    # Real wall-clock on purpose: the report footer tells the operator
    # how long the battery took; CI diffs exclude the footer line.
    started = time.time()  # repro-lint: allow[determinism]
    lines: List[str] = []
    out = lines.append
    failures: List[RunFailure] = []

    @contextmanager
    def section(title: str) -> Iterator[None]:
        """Render one report section, failure-tolerantly.

        Under ``keep_going`` a section that trips over a
        :class:`RunFailure` placeholder (or a nested battery that raised
        :exc:`RunFailureError`) is rolled back to its heading plus an
        omission note, so one poisoned run costs its sections, not the
        report.
        """
        mark = len(lines)
        try:
            yield
        except Exception as error:
            if not keep_going:
                raise
            if isinstance(error, RunFailureError):
                failures.extend(error.failures)
            del lines[mark:]
            out(f"## {title}")
            out("")
            out(
                "_Section omitted under keep-going: it depends on runs "
                "that failed after retries (see the failure ledger "
                "below)._"
            )
            out("")

    # Fan the full independent-run battery out in a single batch so the
    # worker pool stays busy across experiment families.
    software_cells = [
        (software, attack)
        for software in ("bind", "unbound")
        for attack in (False, True)
    ]
    requests = (
        [
            baseline_request(
                spec, probe_count=baseline_probes, seed=seed, obs=obs
            )
            for spec in BASELINE_EXPERIMENTS.values()
        ]
        + [
            ddos_request(spec, probe_count=ddos_probes, seed=seed, obs=obs)
            for spec in DDOS_EXPERIMENTS.values()
        ]
        + [glue_request(probe_count=400, seed=seed, rounds=3)]
        + [cache_dump_request(software) for software in ("bind", "unbound")]
        + [
            software_request(software, attack, seed=seed)
            for software, attack in software_cells
        ]
        + [probe_case_request(seed=11)]
    )
    battery_results = run_many(
        requests, jobs=jobs, cache=cache, keep_going=keep_going
    )
    failures.extend(
        result for result in battery_results if isinstance(result, RunFailure)
    )
    battery = iter(battery_results)
    baselines = {key: next(battery) for key in BASELINE_EXPERIMENTS}
    ddos = {key: next(battery) for key in DDOS_EXPERIMENTS}
    glue = next(battery)
    cache_dumps = {software: next(battery) for software in ("bind", "unbound")}
    software_results = {cell: next(battery) for cell in software_cells}
    probe = next(battery)

    if obs is not None:
        from repro.obs import export_metrics, export_spans, export_timeline

        # Failed runs have no telemetry to export; their ledger entry is
        # the record of what is missing from the JSONL outputs.
        telemetry = [
            (
                f"baseline-{key}",
                result.spans,
                result.metric_snapshots,
                result.timeline_points,
            )
            for key, result in baselines.items()
            if not isinstance(result, RunFailure)
        ] + [
            (
                f"ddos-{key}",
                result.testbed.spans,
                result.testbed.metric_snapshots,
                result.timeline_points,
            )
            for key, result in ddos.items()
            if not isinstance(result, RunFailure)
        ]
        if trace_path is not None:
            with open(trace_path, "w", encoding="utf-8") as stream:
                for run, spans, _, _ in telemetry:
                    export_spans(spans, stream, run=run)
        if metrics_path is not None:
            with open(metrics_path, "w", encoding="utf-8") as stream:
                for run, _, snapshots, _ in telemetry:
                    export_metrics(snapshots, stream, run=run)
        if timeline_path is not None:
            with open(timeline_path, "w", encoding="utf-8") as stream:
                for run, _, _, points in telemetry:
                    export_timeline(points, stream, run=run)

    out("# EXPERIMENTS — paper vs measured")
    out("")
    out(
        "Generated by `repro.analysis.report.build_report` "
        f"(seed {seed}; baselines at {baseline_probes} probes, DDoS runs at "
        f"{ddos_probes}; the paper used ~9k probes / ~15k VPs). Absolute "
        "counts scale with population; the comparison targets are "
        "fractions, multipliers, and orderings."
    )
    out("")

    # ------------------------------------------------------------------
    with section("Caching baseline (§3) — Tables 1–3, Figures 3, 13"):
        out("## Caching baseline (§3) — Tables 1–3, Figures 3, 13")
        out("")
        out("| experiment | paper miss rate | measured miss rate |")
        out("|---|---|---|")
        for key, result in baselines.items():
            out(f"| TTL {key} | {PAPER_MISS[key]} | {result.miss_rate:.1%} |")
        out("")

        base = baselines["1800"]
        dataset = base.dataset
        out("Table 1 ratios (TTL 1800 column):")
        out("")
        out("| quantity | paper | measured |")
        out("|---|---|---|")
        out(
            f"| probes answering | 95.3% | {dataset.probes_valid / dataset.probes:.1%} |"
        )
        out(f"| queries answered | 95.4% | {dataset.answers / dataset.queries:.1%} |")
        out(
            "| valid among answers | 99.6% | "
            f"{dataset.answers_valid / max(1, dataset.answers):.1%} |"
        )
        out(f"| VPs per probe | 1.67 | {dataset.vps / dataset.probes:.2f} |")
        out("")

        table2 = base.table2
        table2_day = baselines["86400"].table2
        out("Table 2 manipulation/fragmentation markers:")
        out("")
        out("| quantity | paper | measured |")
        out("|---|---|---|")
        out(
            "| warm-up TTL altered, TTL 1800 | ~2% | "
            f"{table2.warmup_ttl_altered / max(1, table2.warmup):.1%} |"
        )
        out(
            "| warm-up TTL altered, TTL 86400 | ~30% | "
            f"{table2_day.warmup_ttl_altered / max(1, table2_day.warmup):.1%} |"
        )
        out(
            "| CCdec (fragmentation), TTL 86400 | ~7.8% of CC | "
            f"{table2_day.cc_decreasing / max(1, table2_day.cc):.1%} |"
        )
        out("")

        table3 = base.table3
        out("Table 3 miss attribution (TTL 1800):")
        out("")
        out("| quantity | paper | measured |")
        out("|---|---|---|")
        out(
            "| public R1 share of AC | 48.7% | "
            f"{table3.public_r1 / max(1, table3.ac_total):.1%} |"
        )
        out(
            "| Google R1 share of AC | 39.3% | "
            f"{table3.google_r1 / max(1, table3.ac_total):.1%} |"
        )
        out(
            "| Google Rn within non-public AC | 9.5% | "
            f"{table3.google_rn / max(1, table3.non_public_r1):.1%} |"
        )
        out("")

    # ------------------------------------------------------------------
    with section("DDoS experiments (§5–§6) — Table 4, Figures 6–12, 14, 15"):
        out("## DDoS experiments (§5–§6) — Table 4, Figures 6–12, 14, 15")
        out("")
        out(
            "| exp | loss | TTL | paper failures (attack) | measured | "
            "measured amplification (paper) |"
        )
        out("|---|---|---|---|---|---|")
        for key, result in ddos.items():
            spec = result.spec
            amplification = f"{result.amplification():.1f}x"
            if key in PAPER_AMP:
                amplification += f" ({PAPER_AMP[key]})"
            out(
                f"| {key} | {spec.loss_fraction:.0%} {spec.servers} | {spec.ttl} | "
                f"{PAPER_FAIL.get(key, '-')} | "
                f"{result.failure_fraction_during_attack():.1%} | {amplification} |"
            )
        out("")

        series_a = ddos["A"].outcomes_by_round()
        cache_only = series_a[3]
        expired = series_a[9]
        out("Figure 6–12 checkpoints:")
        out("")
        out("| quantity | paper | measured |")
        out("|---|---|---|")
        out(
            "| served during cache-only full outage (Fig 6a) | 35–70% | "
            f"{cache_only['ok'] / sum(cache_only.values()):.0%} |"
        )
        out(
            "| served after caches expire (Fig 6a) | ~0.2% (serve-stale) | "
            f"{expired['ok'] / sum(expired.values()):.1%} |"
        )
        h_latency = {row.round_index: row for row in ddos["H"].latency_series()}
        i_latency = {row.round_index: row for row in ddos["I"].latency_series()}
        out(
            "| latency mid-attack, 30-min TTL (H) vs none (I) | ~390 ms vs "
            "~1300 ms (§5.5) | "
            f"mean {h_latency[8].mean_ms:.0f} ms / median {h_latency[8].median_ms:.0f} ms "
            f"vs mean {i_latency[8].mean_ms:.0f} ms / median "
            f"{i_latency[8].median_ms:.0f} ms |"
        )
        per_probe = {row.round_index: row for row in ddos["I"].per_probe()}
        out(
            "| Fig 11 Rn-per-probe median, normal→attack | 1→2 | "
            f"{per_probe[3].rn_median:.0f}→{per_probe[8].rn_median:.0f} |"
        )
        out(
            "| Fig 11 queries-per-probe p90, normal→attack | 3→18 | "
            f"{per_probe[3].queries_p90:.0f}→{per_probe[8].queries_p90:.0f} |"
        )
        unique_rn = ddos["F"].unique_rn()
        pre_mean = sum(unique_rn[r] for r in range(1, 6)) / 5
        mid_mean = sum(unique_rn[r] for r in range(6, 12)) / 6
        out(
            "| Fig 12 unique Rn growth under attack (F) | grows | "
            f"{pre_mean:.0f}→{mid_mean:.0f} per round |"
        )
        out("")

    # ------------------------------------------------------------------
    if timeline_path is not None:
        with section("Flight recorder — client reliability vs authoritative load"):
            from repro.analysis.figures import sparkline

            out("## Flight recorder — client reliability vs authoritative load")
            out("")
            out(
                "Sim-time telemetry timelines sampled every "
                f"{timeline_interval:.0f} s by the flight recorder "
                f"(exported per run to `{timeline_path}`; render with "
                "`repro timeline`). Each sparkline spans the full run, "
                "attack window marked under the axis; client-visible "
                "reliability is plotted against the authoritative-side "
                "offered/served series that drive it."
            )
            out("")
            for key in ("A", "H"):
                result = ddos[key]
                if isinstance(result, RunFailure):
                    raise RunFailureError([result])
                points = result.timeline_points
                if not points:
                    continue
                start, end = result.spec.attack_window
                axis = "".join(
                    "*" if start <= point.time < end else "-"
                    for point in points
                )
                out(f"Experiment {key} ({result.spec.describe()}):")
                out("")
                out("```")
                for name in (
                    "client_ok_ratio",
                    "offered_qps",
                    "served_qps",
                    "sketch.entropy_bits",
                ):
                    values = [point.values.get(name, 0.0) for point in points]
                    out(f"{name:>20} {sparkline(values, width=len(points))}")
                out(f"{'attack window':>20} {axis}")
                out("```")
                out("")

    # ------------------------------------------------------------------
    with section("Glue vs authoritative TTL (Appendix A) — Tables 5–6"):
        out("## Glue vs authoritative TTL (Appendix A) — Tables 5–6")
        out("")
        out("| quantity | paper | measured |")
        out("|---|---|---|")
        out(
            "| NS answers with child TTL | 94.4% | "
            f"{glue.ns_buckets.child_fraction:.1%} |"
        )
        out(
            "| A answers with child TTL | 95.0% | "
            f"{glue.a_buckets.child_fraction:.1%} |"
        )
        for software in ("bind", "unbound"):
            dump = cache_dumps[software]
            out(
                f"| {software} caches child NS TTL (3600 vs parent 172800) | "
                f"yes (~3595) | "
                f"{'yes' if dump.stored_child_value else 'NO'} ({dump.ns_cached_ttl}) |"
            )
        out("")

    # ------------------------------------------------------------------
    with section("Software retries (Appendix E) — Figure 16"):
        out("## Software retries (Appendix E) — Figure 16")
        out("")
        out("| software | condition | paper total queries | measured |")
        out("|---|---|---|---|")
        for software in ("bind", "unbound"):
            for attack in (False, True):
                result = software_results[(software, attack)]
                condition = "authoritatives dead" if attack else "normal"
                out(
                    f"| {software} | {condition} | "
                    f"{PAPER_SOFTWARE[(software, attack)]} | "
                    f"{result.total} (root {result.queries_root}, tld "
                    f"{result.queries_tld}, target {result.queries_target}) |"
                )
        out("")

    # ------------------------------------------------------------------
    with section("Single-probe drill-down (Appendix F) — Table 7, Figure 17"):
        out("## Single-probe drill-down (Appendix F) — Table 7, Figure 17")
        out("")
        summary = probe.amplification_summary()
        normal_rows = [row for row in probe.rows if not row.during_attack]
        attack_rows = [row for row in probe.rows if row.during_attack]
        out("| quantity | paper | measured |")
        out("|---|---|---|")
        out(
            "| topology | 3 R1, 8 Rn, 2 AT | "
            f"{len(probe.r1_addresses)} R1, {len(probe.rn_addresses)} Rn, "
            f"{len(probe.at_addresses)} AT |"
        )
        out(
            "| auth queries per interval, normal | 3–6 | "
            f"{min(row.auth_queries for row in normal_rows)}–"
            f"{max(row.auth_queries for row in normal_rows)} |"
        )
        out(
            "| auth queries per interval, attack | 11–29 | "
            f"{min(row.auth_queries for row in attack_rows)}–"
            f"{max(row.auth_queries for row in attack_rows)} |"
        )
        out(
            "| client answers during attack | 2 of 3 | "
            f"{sum(row.client_answers for row in attack_rows) / len(attack_rows):.1f}"
            " of 3 |"
        )
        normal_rate = summary["normal_queries_per_client_query"]
        attack_rate = summary["attack_queries_per_client_query"]
        out(
            "| amplification per client query | ~4–10x | "
            f"{attack_rate / max(0.01, normal_rate):.1f}x |"
        )
        out("")

    # ------------------------------------------------------------------
    out("## Production-zone caching (§4) — Figures 4–5")
    out("")
    trace = generate_nl_trace(NlTraceConfig(recursive_count=2000, seed=seed))
    medians = interarrival_medians(trace)
    early = sum(1 for value in medians.values() if value < 3400) / len(medians)
    counts = generate_ditl_counts(DitlConfig(recursive_count=20000, seed=seed))
    cdfs = per_letter_cdf(counts)
    out("| quantity | paper | measured |")
    out("|---|---|---|")
    out(
        f"| .nl queries with Δt < 10 s | 28% | {close_query_fraction(trace):.0%} |"
    )
    out(f"| .nl resolvers refreshing early | 22% | {early:.0%} |")
    out(
        f"| root recursives sending 1 DS query/day | 87% | {cdfs['ALL'][0]:.0%} |"
    )
    out(
        "| F-root recursives sending ≥5 | ~5% | "
        f"{fraction_at_least(counts, 'F', 5):.1%} |"
    )
    out(
        "| H-root recursives sending ≥5 | >10% | "
        f"{fraction_at_least(counts, 'H', 5):.1%} |"
    )
    out("")

    # ------------------------------------------------------------------
    if include_defense:
        from repro.core.experiments.defense_study import run_defense_study

        study = run_defense_study(
            probe_count=min(120, ddos_probes),
            seed=seed,
            jobs=jobs,
            cache=cache,
            keep_going=keep_going,
        )
        failures.extend(study.failures)
        out("## Layered authoritative defenses (beyond the paper)")
        out("")
        out(
            "Emergent-loss analogue of Table 4: a direct flood against "
            f"authoritatives with {study.capacity:.0f} q/s service capacity "
            "each, defenses layered on one at a time. Cells show legit-VP "
            "reliability during the attack (and the fraction of attack "
            "queries that survived every layer). Offered-load ratios 2x / "
            "4x / 10x correspond to the paper's 50% / 75% / 90% "
            "configured-loss experiments."
        )
        out("")
        for line in study.markdown():
            out(line)
        out("")

    # ------------------------------------------------------------------
    if failures:
        out("## Failure ledger")
        out("")
        out(
            f"{len(failures)} run(s) exhausted the executor's retry "
            "ladder under keep-going; the sections above that depended "
            "on them carry omission notes, and the telemetry exports "
            "skip them."
        )
        out("")
        out("| request | kind | error | attempts |")
        out("|---|---|---|---|")
        for failure in failures:
            out(
                f"| #{failure.index} | {failure.kind} | "
                f"{failure.error_type}: {failure.message} | "
                f"{failure.attempts} |"
            )
        out("")
    if failure_ledger is not None:
        failure_ledger.extend(failures)

    elapsed = time.time() - started  # repro-lint: allow[determinism]
    out(f"_Full battery regenerated in {elapsed:.0f} s of wall-clock time._")
    out("")
    return "\n".join(lines)
