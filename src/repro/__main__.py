"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro ddos H --probes 500
    python -m repro ddos H --trace spans.jsonl --metrics-out metrics.jsonl
    python -m repro analyze-trace spans.jsonl --mode trace-summary
    python -m repro profile H --probes 200
    python -m repro baseline 1800 --probes 600
    python -m repro software --attack
    python -m repro glue
    python -m repro probe-case
    python -m repro report --jobs 4 --cache-dir .repro-cache
    python -m repro sweep --jobs 0 --cache-dir .repro-cache
    python -m repro defense-study --jobs 0 --intensities 2,4,10
    python -m repro lint --format json
    python -m repro verify --format json
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Sequence

from repro.analysis.figures import render_timeseries_table
from repro.analysis.tables import render_kv_table
from repro.core.experiments import (
    BASELINE_EXPERIMENTS,
    DDOS_EXPERIMENTS,
    run_cache_dump_study,
    run_glue_experiment,
    run_probe_case,
    run_software_study,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner import RunFailure


def _make_cache(args: argparse.Namespace):
    """Build the optional persistent result cache from ``--cache-dir``."""
    if getattr(args, "cache_dir", None) is None:
        return None
    from repro.runner import DiskCache

    cache = DiskCache(args.cache_dir)
    try:
        cache.root.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise SystemExit(f"error: --cache-dir {args.cache_dir!r} is not a directory")
    return cache


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="trace every query lifecycle and write the spans as JSONL",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="collect component metrics and write per-round snapshots as JSONL",
    )
    parser.add_argument(
        "--timeline",
        metavar="PATH",
        help=(
            "record sim-time telemetry timelines (flight recorder + "
            "per-source sketches) and write the points as JSONL; render "
            "with 'repro timeline PATH'"
        ),
    )
    parser.add_argument(
        "--timeline-interval",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="flight-recorder sampling cadence in sim seconds (default: 60)",
    )


def _obs_spec(args: argparse.Namespace):
    """Build the run's ``ObsSpec`` from the observability flags."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics_out", None)
    timeline = getattr(args, "timeline", None)
    if trace is None and metrics is None and timeline is None:
        return None
    from repro.obs import ObsSpec, TimelineSpec

    timeline_spec = (
        TimelineSpec(interval=args.timeline_interval)
        if timeline is not None
        else None
    )
    return ObsSpec(
        trace=trace is not None,
        metrics=metrics is not None,
        timeline=timeline_spec,
    )


def _write_obs_outputs(args, spans, snapshots, timeline_points=(), run=None) -> None:
    if getattr(args, "trace", None):
        from repro.obs import export_spans

        with open(args.trace, "w", encoding="utf-8") as stream:
            rows = export_spans(spans, stream, run=run)
        print(f"wrote {rows} spans to {args.trace}")
    if getattr(args, "metrics_out", None):
        from repro.obs import export_metrics

        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            rows = export_metrics(snapshots, stream, run=run)
        print(f"wrote {rows} metric snapshots to {args.metrics_out}")
    if getattr(args, "timeline", None):
        from repro.obs import export_timeline

        with open(args.timeline, "w", encoding="utf-8") as stream:
            rows = export_timeline(timeline_points, stream, run=run)
        print(f"wrote {rows} timeline points to {args.timeline}")


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent runs (default: all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="persistent result cache; reruns with unchanged code are instant",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "finish the rest of the battery when a run fails after "
            "retries; failures are listed in a ledger and the exit "
            "status is 1 (default: abort on the first exhausted run)"
        ),
    )


def _print_failure_ledger(failures: Sequence["RunFailure"]) -> None:
    """Report exhausted runs on stderr, one ledger line per failure."""
    print(
        f"\nfailure ledger: {len(failures)} run(s) failed after retries",
        file=sys.stderr,
    )
    for failure in failures:
        print(f"  {failure.describe()}", file=sys.stderr)


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.runner import RunFailure, baseline_request, run_many

    spec = BASELINE_EXPERIMENTS[args.experiment]
    request = baseline_request(
        spec,
        probe_count=args.probes,
        seed=args.seed,
        obs=_obs_spec(args),
    )
    [result] = run_many(
        [request],
        jobs=args.jobs,
        cache=_make_cache(args),
        keep_going=args.keep_going,
    )
    if isinstance(result, RunFailure):
        _print_failure_ledger([result])
        return 1
    _write_obs_outputs(
        args,
        result.spans,
        result.metric_snapshots,
        result.timeline_points,
        run=f"baseline-{args.experiment}",
    )
    print(render_kv_table(f"Dataset (TTL {args.experiment})", result.dataset.as_rows()))
    print()
    print(render_kv_table("Classification (Table 2)", result.table2.as_rows()))
    print()
    print(render_kv_table("Miss attribution (Table 3)", result.table3.as_rows()))
    print(f"\ncache-miss rate: {result.miss_rate:.1%}")
    return 0


def _cmd_ddos(args: argparse.Namespace) -> int:
    from repro.runner import RunFailure, ddos_request, run_many

    spec = DDOS_EXPERIMENTS[args.experiment]
    print(spec.describe())
    request = ddos_request(
        spec,
        probe_count=args.probes,
        seed=args.seed,
        obs=_obs_spec(args),
    )
    [result] = run_many(
        [request],
        jobs=args.jobs,
        cache=_make_cache(args),
        keep_going=args.keep_going,
    )
    if isinstance(result, RunFailure):
        _print_failure_ledger([result])
        return 1
    _write_obs_outputs(
        args,
        result.testbed.spans,
        result.testbed.metric_snapshots,
        result.timeline_points,
        run=f"ddos-{args.experiment}",
    )
    if args.export_trace:
        from repro.analysis.traceio import export_query_log

        with open(args.export_trace, "w", encoding="utf-8") as stream:
            rows = export_query_log(result.testbed.offered_query_log, stream)
        print(f"exported {rows} offered queries to {args.export_trace}")
    print()
    print(
        render_timeseries_table(
            "Client outcomes per round (* = attack)",
            result.outcomes_by_round(),
            ["ok", "servfail", "no_answer"],
            attack_rounds=spec.attack_rounds,
        )
    )
    print(f"\nfailures before attack: {result.failure_fraction_before_attack():.1%}")
    print(f"failures during attack: {result.failure_fraction_during_attack():.1%}")
    print(f"authoritative amplification: {result.amplification():.1f}x")
    return 0


def _cmd_software(args: argparse.Namespace) -> int:
    for software in ("bind", "unbound"):
        result = run_software_study(software, args.attack, seed=args.seed)
        condition = "authoritatives dead" if args.attack else "normal"
        print(
            f"{software:8s} ({condition}): root={result.queries_root} "
            f"tld={result.queries_tld} target={result.queries_target} "
            f"total={result.total} resolved={result.resolved}"
        )
    return 0


def _cmd_glue(args: argparse.Namespace) -> int:
    result = run_glue_experiment(probe_count=args.probes, seed=args.seed)
    print(render_kv_table("NS answers (Table 5)", result.ns_buckets.as_rows()))
    print()
    print(render_kv_table("A answers (Table 5)", result.a_buckets.as_rows()))
    print(f"\nchild-TTL fraction (NS): {result.ns_buckets.child_fraction:.1%}")
    for software in ("bind", "unbound"):
        dump = run_cache_dump_study(software)
        print(
            f"{software} cache after NS query: {dump.ns_cached_ttl}s "
            f"(child published {dump.child_ttl}s, parent {dump.parent_ttl}s)"
        )
    return 0


def _cmd_probe_case(args: argparse.Namespace) -> int:
    result = run_probe_case(seed=args.seed)
    print("interval  client(q/ans/R1)  auth(q/ans/ATs/Rn/pairs)  top2")
    for row in result.rows:
        marker = " *" if row.during_attack else ""
        print(
            f"{row.interval:>8}  {row.client_queries}/{row.client_answers}/"
            f"{row.client_r1_count:<12} {row.auth_queries}/{row.auth_answers}/"
            f"{row.at_count}/{row.rn_count}/{row.rn_at_pairs:<10} "
            f"{row.top2_queries}{marker}"
        )
    summary = result.amplification_summary()
    print(
        f"\nqueries per client query: normal "
        f"{summary['normal_queries_per_client_query']:.1f}, attack "
        f"{summary['attack_queries_per_client_query']:.1f}"
    )
    return 0


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    if args.mode == "trace-summary":
        from repro.obs import SpanFormatError, import_spans, summarize_spans

        with open(args.path, "r", encoding="utf-8") as stream:
            try:
                spans = import_spans(stream)
            except SpanFormatError as exc:
                raise SystemExit(f"error: {args.path}: {exc}")
        try:
            print(summarize_spans(spans, top_n=args.top))
        except SpanFormatError as exc:
            raise SystemExit(f"error: {args.path}: {exc}")
        return 0

    from repro.analysis.traceio import analyze_trace, import_query_log

    with open(args.path, "r", encoding="utf-8") as stream:
        log = import_query_log(stream)
    analysis = analyze_trace(log, ttl=args.ttl)
    print(
        render_kv_table(
            f"Trace analysis ({args.path}, TTL {args.ttl:.0f}s)",
            analysis.as_rows(),
        )
    )
    return 0


def _attack_window_for(args: argparse.Namespace, run_label: str):
    """The attack window to annotate: explicit flag, else from the run key."""
    if args.attack_window:
        try:
            start_text, end_text = args.attack_window.split(":", 1)
            return (float(start_text), float(end_text))
        except ValueError:
            raise SystemExit(
                f"error: --attack-window must be START:END seconds, got "
                f"{args.attack_window!r}"
            )
    if run_label.startswith("ddos-"):
        key = run_label[len("ddos-"):]
        if key in DDOS_EXPERIMENTS:
            return DDOS_EXPERIMENTS[key].attack_window
    return None


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import (
        SpanFormatError,
        import_timeline,
        render_timeline,
        render_timeline_csv,
        validate_timeline,
    )

    with open(args.path, "r", encoding="utf-8") as stream:
        try:
            by_run = import_timeline(stream)
        except SpanFormatError as exc:
            raise SystemExit(f"error: {args.path}: {exc}")
    if not by_run:
        raise SystemExit(f"error: {args.path}: no timeline points")
    if args.run is not None:
        if args.run not in by_run:
            known = ", ".join(sorted(label or "(unlabelled)" for label in by_run))
            raise SystemExit(
                f"error: {args.path}: no run {args.run!r} (runs: {known})"
            )
        by_run = {args.run: by_run[args.run]}
    series = args.series.split(",") if args.series else None
    blocks = []
    for label, points in by_run.items():
        try:
            validate_timeline(points)
        except SpanFormatError as exc:
            raise SystemExit(f"error: {args.path}: run {label or '?'}: {exc}")
        try:
            if args.format == "csv":
                blocks.append(render_timeline_csv(points, series))
            else:
                title = f"{label or 'timeline'}: {len(points)} samples"
                blocks.append(
                    render_timeline(
                        points,
                        series,
                        attack_window=_attack_window_for(args, label),
                        title=title,
                    )
                )
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
    print("\n\n".join(blocks))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.export import write_sweep_csv
    from repro.core.experiments.sweep import run_sweep

    losses = [float(value) for value in args.losses.split(",")]
    ttls = [int(value) for value in args.ttls.split(",")]
    sweep = run_sweep(
        losses=losses,
        ttls=ttls,
        probe_count=args.probes,
        seed=args.seed,
        jobs=args.jobs,
        cache=_make_cache(args),
        keep_going=args.keep_going,
    )
    print("failure fraction during attack (rows: TTL, columns: loss)")
    header = f"{'TTL':>8} " + "".join(f"{loss:>9.0%}" for loss in sweep.losses())
    print(header)
    for ttl, row in zip(sweep.ttls(), sweep.failure_matrix()):
        print(f"{ttl:>8} " + "".join(f"{value:>9.1%}" for value in row))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as stream:
            write_sweep_csv(sweep, stream)
        print(f"\nwrote {args.csv}")
    if sweep.failures:
        _print_failure_ledger(sweep.failures)
        return 1
    return 0


def _cmd_defense_study(args: argparse.Namespace) -> int:
    from repro.core.experiments.defense_study import run_defense_study

    intensities = [float(value) for value in args.intensities.split(",")]
    study = run_defense_study(
        intensities=intensities,
        capacity=args.capacity,
        mode=args.mode,
        attackers=args.attackers,
        probe_count=args.probes,
        seed=args.seed,
        jobs=args.jobs,
        cache=_make_cache(args),
        keep_going=args.keep_going,
    )
    print(study.render())
    if args.json:
        import json

        payload = {
            "capacity": study.capacity,
            "mode": study.mode,
            "probe_count": study.probe_count,
            "seed": study.seed,
            "cells": [
                {
                    "layers": cell.layers,
                    "intensity": cell.intensity,
                    "failure_before": cell.failure_before,
                    "failure_during": cell.failure_during,
                    "legit_served_fraction": cell.legit_served_fraction,
                    "attack_served_fraction": cell.attack_served_fraction,
                    "defense_stats": cell.defense_stats,
                    "attack_stats": cell.attack_stats,
                }
                for cell in study.cells
            ],
        }
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"\nwrote {args.json}")
    if study.failures:
        _print_failure_ledger(study.failures)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.experiments.ddos import run_ddos
    from repro.obs import ObsSpec

    spec = DDOS_EXPERIMENTS[args.experiment]
    print(spec.describe())
    print(f"profiling with {args.probes} probes ...")
    result = run_ddos(
        spec,
        probe_count=args.probes,
        seed=args.seed,
        obs=ObsSpec(profile=True),
    )
    profile = result.testbed.profile_summary()
    print()
    print(
        render_kv_table(
            "Simulation kernel profile",
            [
                ("events processed", f"{profile['events']:,}"),
                ("wall time", f"{profile['wall_seconds']:.2f} s"),
                ("sim time", f"{profile['sim_seconds']:.0f} s"),
                ("events / wall second", f"{profile['events_per_second']:,.0f}"),
                (
                    "wall time per sim second",
                    f"{profile['wall_per_sim_second'] * 1e6:.1f} us",
                ),
                ("max event-queue depth", f"{profile['max_depth']:,}"),
                ("max cancelled-pending", f"{profile['max_dead']:,}"),
            ],
        )
    )
    print(f"\ntop {args.top} callback sites by wall time:")
    print(f"{'wall':>10} {'calls':>10}  site")
    for name, stats in list(profile["sites"].items())[: args.top]:
        print(
            f"{stats['wall_seconds'] * 1e3:>8.1f}ms {stats['calls']:>10,}  {name}"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.fsm.cli import run_verify

    return run_verify(args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report
    from repro.runner import RunFailure

    ledger: List[RunFailure] = []
    report = build_report(
        baseline_probes=args.baseline_probes,
        ddos_probes=args.ddos_probes,
        seed=args.seed,
        jobs=args.jobs,
        cache=_make_cache(args),
        trace_path=args.trace,
        metrics_path=args.metrics_out,
        timeline_path=args.timeline,
        timeline_interval=args.timeline_interval,
        include_defense=args.defense,
        keep_going=args.keep_going,
        failure_ledger=ledger,
    )
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(report)
    if ledger:
        _print_failure_ledger(ledger)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'When the Dike Breaks: Dissecting DNS "
            "Defenses During DDoS' (IMC 2018)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42, help="master RNG seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    baseline = subparsers.add_parser(
        "baseline", help="run a §3 caching baseline experiment"
    )
    baseline.add_argument("experiment", choices=sorted(BASELINE_EXPERIMENTS))
    baseline.add_argument("--probes", type=int, default=600)
    _add_runner_flags(baseline)
    _add_obs_flags(baseline)
    baseline.set_defaults(func=_cmd_baseline)

    ddos = subparsers.add_parser("ddos", help="run a Table 4 DDoS experiment")
    ddos.add_argument("experiment", choices=sorted(DDOS_EXPERIMENTS))
    ddos.add_argument("--probes", type=int, default=400)
    ddos.add_argument(
        "--export-trace",
        metavar="PATH",
        help="write the offered authoritative query trace as JSONL",
    )
    _add_runner_flags(ddos)
    _add_obs_flags(ddos)
    ddos.set_defaults(func=_cmd_ddos)

    analyze = subparsers.add_parser(
        "analyze-trace",
        help="apply the paper's §4 methodology to a JSONL query trace",
    )
    analyze.add_argument("path", help="JSONL trace file")
    analyze.add_argument(
        "--mode",
        choices=["querylog", "trace-summary"],
        default="querylog",
        help=(
            "querylog: §4 analysis of an offered-query trace; "
            "trace-summary: lifecycle summary of a --trace span file"
        ),
    )
    analyze.add_argument(
        "--ttl", type=float, default=3600.0, help="reference record TTL"
    )
    analyze.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest lifecycles listed by trace-summary mode",
    )
    analyze.set_defaults(func=_cmd_analyze_trace)

    timeline = subparsers.add_parser(
        "timeline",
        help="render a --timeline JSONL export (flight-recorder series)",
    )
    timeline.add_argument("path", help="JSONL timeline file")
    timeline.add_argument(
        "--format",
        choices=["text", "csv"],
        default="text",
        help="text table (default) or CSV",
    )
    timeline.add_argument(
        "--series",
        metavar="NAME[,NAME...]",
        help=(
            "comma list of series to render (default: the headline "
            "series present in the file plus any sketch.* series)"
        ),
    )
    timeline.add_argument(
        "--run",
        metavar="LABEL",
        help="render only this run's timeline (e.g. ddos-H)",
    )
    timeline.add_argument(
        "--attack-window",
        metavar="START:END",
        help=(
            "annotate samples inside this sim-time window (seconds); "
            "derived automatically from ddos-<exp> run labels"
        ),
    )
    timeline.set_defaults(func=_cmd_timeline)

    software = subparsers.add_parser(
        "software", help="BIND/Unbound retry study (Appendix E)"
    )
    software.add_argument(
        "--attack", action="store_true", help="make all authoritatives unreachable"
    )
    software.set_defaults(func=_cmd_software)

    glue = subparsers.add_parser(
        "glue", help="referral vs answer TTL precedence (Appendix A)"
    )
    glue.add_argument("--probes", type=int, default=400)
    glue.set_defaults(func=_cmd_glue)

    probe_case = subparsers.add_parser(
        "probe-case", help="single-probe drill-down (Appendix F)"
    )
    probe_case.set_defaults(func=_cmd_probe_case)

    sweep = subparsers.add_parser(
        "sweep", help="loss x TTL resilience surface (generalizes Table 4)"
    )
    sweep.add_argument("--losses", default="0.5,0.75,0.9", help="comma list")
    sweep.add_argument("--ttls", default="60,300,1800", help="comma list")
    sweep.add_argument("--probes", type=int, default=200)
    sweep.add_argument("--csv", metavar="PATH", help="write the surface as CSV")
    _add_runner_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    defense = subparsers.add_parser(
        "defense-study",
        help=(
            "layered authoritative defenses vs real attack traffic "
            "(emergent-loss Table 4 analogue)"
        ),
    )
    defense.add_argument(
        "--intensities",
        default="2,4,10",
        help="comma list of offered-load / capacity ratios",
    )
    defense.add_argument(
        "--capacity",
        type=float,
        default=20.0,
        help="per-server service capacity in q/s",
    )
    defense.add_argument(
        "--mode",
        default="direct-flood",
        choices=["direct-flood", "random-subdomain", "nxns"],
        help="attack traffic mode",
    )
    defense.add_argument(
        "--attackers", type=int, default=8, help="attacker population size"
    )
    defense.add_argument("--probes", type=int, default=120)
    defense.add_argument(
        "--json", metavar="PATH", help="also write the full grid as JSON"
    )
    _add_runner_flags(defense)
    defense.set_defaults(func=_cmd_defense_study)

    profile = subparsers.add_parser(
        "profile",
        help="profile the simulation kernel over one DDoS experiment",
    )
    profile.add_argument(
        "experiment", nargs="?", default="H", choices=sorted(DDOS_EXPERIMENTS)
    )
    profile.add_argument("--probes", type=int, default=200)
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="callback sites listed (by wall time)",
    )
    profile.set_defaults(func=_cmd_profile)

    lint = subparsers.add_parser(
        "lint",
        help=(
            "run the AST static-analysis suite (determinism, spec "
            "hygiene, RNG streams, hot-path slots, event-loop safety)"
        ),
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    verify = subparsers.add_parser(
        "verify",
        help=(
            "model-check the resolver state-machine tables (reachability, "
            "liveness, determinism, retry-amplification bounds vs §6)"
        ),
    )
    from repro.fsm.cli import add_verify_arguments

    add_verify_arguments(verify)
    verify.set_defaults(func=_cmd_verify)

    report = subparsers.add_parser(
        "report",
        help="run every experiment and print the paper-vs-measured report",
    )
    report.add_argument("--baseline-probes", type=int, default=600)
    report.add_argument("--ddos-probes", type=int, default=400)
    report.add_argument(
        "--output", metavar="PATH", help="also write the report to a file"
    )
    report.add_argument(
        "--defense",
        action="store_true",
        help="append the layered-defense grid (beyond the paper)",
    )
    _add_runner_flags(report)
    _add_obs_flags(report)
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-render (timeline and
        # trace outputs can exceed the pipe buffer); exit quietly the way
        # well-behaved Unix filters do.
        sys.stderr.close()
        sys.exit(141)  # 128 + SIGPIPE
