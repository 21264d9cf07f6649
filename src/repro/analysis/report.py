"""The full paper-vs-measured report (EXPERIMENTS.md generator).

Runs the complete experiment battery at a configurable scale and
renders a Markdown comparison of every table and figure against the
paper's reported values. Every paper value it prints, and the verdict
next to it, comes from the scoreboard's cells
(:data:`repro.analysis.scoreboard.CELLS`). Deterministic for a given
seed. Used by ``scripts/generate_experiments_md.py`` and
``python -m repro report``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.core.experiments import (
    BASELINE_EXPERIMENTS,
    DDOS_EXPERIMENTS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner import DiskCache, RunFailure


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
    from repro.analysis.scoreboard import (
        CELL,
        IN_PROCESS,
        SOFTWARE_CELLS,
        latency_at,
        paper_requests,
        per_probe_at,
        software_run,
        unique_rn_means,
    )
    from repro.obs import ObsSpec
    from repro.runner import RunFailure, RunFailureError, run_many

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
    # how long the battery took, and how much of it the run cache
    # served; CI diffs exclude the footer line.
    started = time.time()  # repro-lint: allow[determinism]
    hits_before = cache.hits if cache is not None else 0
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
        out(f"## {title}")
        out("")
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
    names, requests = zip(*paper_requests(baseline_probes, ddos_probes, seed, obs))
    battery_results = run_many(
        list(requests), jobs=jobs, cache=cache, keep_going=keep_going
    )
    failures.extend(
        result for result in battery_results if isinstance(result, RunFailure)
    )
    runs: Dict[str, Any] = dict(zip(names, battery_results))
    run_count = len(requests)
    baselines = {key: runs[f"baseline-{key}"] for key in BASELINE_EXPERIMENTS}
    ddos = {key: runs[f"ddos-{key}"] for key in DDOS_EXPERIMENTS}
    cell_values: Dict[str, float] = {}

    def value(cell_id: str) -> float:
        if cell_id not in cell_values:
            cell_values[cell_id] = CELL[cell_id].evaluate(runs)
        return cell_values[cell_id]

    def verdict(*cell_ids: str) -> str:
        banded = [cell_id for cell_id in cell_ids if CELL[cell_id].banded]
        if not banded:
            return ""
        inside = all(CELL[cell_id].holds(value(cell_id)) for cell_id in banded)
        return "in band" if inside else "out of band"

    def header() -> None:
        out("| quantity | paper | measured | verdict |")
        out("|---|---|---|---|")

    def row(label: str, measured: str, *cell_ids: str) -> None:
        paper = CELL[cell_ids[0]].paper
        out(f"| {label} | {paper} | {measured} | {verdict(*cell_ids)} |")

    def cell_rows(*rows: Tuple[str, str, str]) -> None:
        """Rows whose measured value is the cell's own, formatted."""
        for label, cell_id, spec in rows:
            row(label, format(value(cell_id), spec), cell_id)

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
        out("| experiment | paper miss rate | measured miss rate | verdict |")
        out("|---|---|---|---|")
        for key, result in baselines.items():
            row(f"TTL {key}", f"{result.miss_rate:.1%}", f"fig03.{key}.miss_rate")
        out("")

        out("Table 1 ratios (TTL 1800 column):")
        out("")
        header()
        cell_rows(
            ("probes answering", "table1.probes_valid", ".1%"),
            ("queries answered", "table1.answered", ".1%"),
            ("valid among answers", "table1.answers_valid", ".1%"),
            ("VPs per probe", "table1.vps_per_probe", ".2f"),
        )
        out("")

        out("Table 2 manipulation/fragmentation markers:")
        out("")
        header()
        cell_rows(
            ("warm-up TTL altered, TTL 1800", "table2.1800.warmup_altered", ".1%"),
            ("warm-up TTL altered, TTL 86400", "table2.86400.warmup_altered", ".1%"),
            ("CCdec (fragmentation), TTL 86400", "table2.86400.ccdec", ".1%"),
        )
        out("")

        out("Table 3 miss attribution (TTL 1800):")
        out("")
        header()
        cell_rows(
            ("public R1 share of AC", "table3.public_r1_share", ".1%"),
            ("Google R1 share of AC", "table3.google_r1_share", ".1%"),
            (
                "Google Rn within non-public AC",
                "table3.google_rn_within_nonpublic",
                ".1%",
            ),
        )
        out("")

    # ------------------------------------------------------------------
    with section("DDoS experiments (§5–§6) — Table 4, Figures 6–12, 14, 15"):
        out(
            "| exp | loss | TTL | paper failures (attack) | measured | "
            "measured amplification (paper) | verdict |"
        )
        out("|---|---|---|---|---|---|---|")
        for key, result in ddos.items():
            spec = result.spec
            failure = CELL.get(f"table4.{key}.failure")
            amplification = CELL.get(f"fig10.{key}.amplification")
            cells = [cell.id for cell in (failure, amplification) if cell]
            if amplification is None:
                measured_amplification = f"{result.amplification():.1f}x"
            else:
                measured_amplification = (
                    f"{value(amplification.id):.1f}x ({amplification.paper})"
                )
            out(
                f"| {key} | {spec.loss_fraction:.0%} {spec.servers} | {spec.ttl} | "
                f"{failure.paper if failure else '-'} | "
                f"{result.failure_fraction_during_attack():.1%} | "
                f"{measured_amplification} | {verdict(*cells)} |"
            )
        out("")

        out("Figure 6–12 checkpoints:")
        out("")
        header()
        cell_rows(
            (
                "served during cache-only full outage (Fig 6a)",
                "fig06.A.cache_only_ok",
                ".0%",
            ),
            ("served after caches expire (Fig 6a)", "fig06.A.expired_ok", ".1%"),
        )
        h_mid, i_mid = latency_at(ddos["H"], 8), latency_at(ddos["I"], 8)
        row(
            "latency mid-attack, 30-min TTL (H) vs none (I)",
            f"mean {h_mid.mean_ms:.0f} ms / median {h_mid.median_ms:.0f} ms "
            f"vs mean {i_mid.mean_ms:.0f} ms / median {i_mid.median_ms:.0f} ms",
            "fig09.I_over_H.median",
        )
        normal, attacked = per_probe_at(ddos["I"], 3), per_probe_at(ddos["I"], 8)
        row(
            "Fig 11 Rn-per-probe median, normal→attack",
            f"{normal.rn_median:.0f}→{attacked.rn_median:.0f}",
            "fig11.I.rn_median",
        )
        row(
            "Fig 11 queries-per-probe p90, normal→attack",
            f"{normal.queries_p90:.0f}→{attacked.queries_p90:.0f}",
            "fig11.I.queries_p90_growth",
        )
        pre_mean, mid_mean = unique_rn_means(ddos["F"])
        row(
            "Fig 12 unique Rn growth under attack (F)",
            f"{pre_mean:.0f}→{mid_mean:.0f} per round",
            "fig12.F.rn_growth",
        )
        out("")

    # ------------------------------------------------------------------
    if timeline_path is not None:
        with section("Flight recorder — client reliability vs authoritative load"):
            from repro.analysis.figures import sparkline

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
        header()
        cell_rows(
            ("NS answers with child TTL", "table5.ns_child", ".1%"),
            ("A answers with child TTL", "table5.a_child", ".1%"),
        )
        for software in ("bind", "unbound"):
            dump = runs[f"cache-dump-{software}"]
            row(
                f"{software} caches child NS TTL (3600 vs parent 172800)",
                f"{'yes' if dump.stored_child_value else 'NO'} ({dump.ns_cached_ttl})",
                f"table6.{software}.stored_child",
            )
        out("")

    # ------------------------------------------------------------------
    with section("Software retries (Appendix E) — Figure 16"):
        out("| software | condition | paper total queries | measured | verdict |")
        out("|---|---|---|---|---|")
        for software, attack in SOFTWARE_CELLS:
            result = runs[software_run(software, attack)]
            cell_id = f"fig16.{software}.{'attack' if attack else 'normal'}"
            condition = "authoritatives dead" if attack else "normal"
            row(
                f"{software} | {condition}",
                f"{result.total} (root {result.queries_root}, tld "
                f"{result.queries_tld}, target {result.queries_target})",
                cell_id,
            )
        out("")

    # ------------------------------------------------------------------
    with section("Single-probe drill-down (Appendix F) — Table 7, Figure 17"):
        probe = runs["probe-case"]
        summary = probe.amplification_summary()
        normal_queries = [
            interval.auth_queries
            for interval in probe.rows
            if not interval.during_attack
        ]
        attack_rows = [interval for interval in probe.rows if interval.during_attack]
        header()
        row(
            "topology",
            f"{len(probe.r1_addresses)} R1, {len(probe.rn_addresses)} Rn, "
            f"{len(probe.at_addresses)} AT",
            "fig17.rn_count",
        )
        row(
            "auth queries per interval, normal",
            f"{min(normal_queries)}–{max(normal_queries)}",
            "table7.auth_normal_min",
            "table7.auth_normal_max",
        )
        attack_queries = [interval.auth_queries for interval in attack_rows]
        row(
            "auth queries per interval, attack",
            f"{min(attack_queries)}–{max(attack_queries)}",
            "table7.auth_attack_max",
        )
        answers = sum(interval.client_answers for interval in attack_rows)
        answers /= len(attack_rows)
        row(
            "client answers during attack",
            f"{answers:.1f} of 3",
            "table7.attack_answers",
        )
        normal_rate = summary["normal_queries_per_client_query"]
        attack_rate = summary["attack_queries_per_client_query"]
        row(
            "amplification per client query",
            f"{attack_rate / max(0.01, normal_rate):.1f}x",
            "table7.amplification",
        )
        out("")

    # ------------------------------------------------------------------
    out("## Production-zone caching (§4) — Figures 4–5")
    out("")
    for name in ("nl-trace", "ditl"):
        runs[name] = IN_PROCESS[name](seed)
    header()
    cell_rows(
        (".nl queries with Δt < 10 s", "fig04.close_fraction", ".0%"),
        (".nl resolvers refreshing early", "fig04.early_refresh", ".0%"),
        ("root recursives sending 1 DS query/day", "fig05.single_query", ".0%"),
        ("F-root recursives sending ≥5", "fig05.F.heavy", ".1%"),
        ("H-root recursives sending ≥5", "fig05.H.heavy", ".1%"),
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
        run_count += len(study.cells) + len(study.failures)
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
    cached = cache.hits - hits_before if cache is not None else 0
    out(
        f"_Full battery regenerated in {elapsed:.0f} s of wall-clock time: "
        f"{run_count - cached} runs simulated, {cached} read from the run "
        "cache._"
    )
    out("")
    return "\n".join(lines)
