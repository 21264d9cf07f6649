"""Plain-text exports of every paper table and figure.

Each render prints session results next to the paper's values from the
scoreboard and lands in ``benchmarks/output/<name>.txt``.
"""

from conftest import BASELINE_PROBES, DDOS_PROBES, OUTPUT_DIR

from repro.analysis.ecdf import Ecdf
from repro.analysis.figures import render_series, render_timeseries_table
from repro.analysis.scoreboard import (
    CELL,
    PAPER_AMPLIFICATION,
    PAPER_FAILURE,
    SOFTWARE_CELLS,
    SWEEP_LOSSES,
    SWEEP_TTLS,
    heavy_share,
    latency_at,
    software_run,
    sweep_run,
)
from repro.analysis.tables import render_kv_table, render_matrix
from repro.core.experiments import BASELINE_EXPERIMENTS
from repro.workloads.ditl import per_letter_cdf
from repro.workloads.nl_trace import interarrival_medians

BASELINES = list(BASELINE_EXPERIMENTS)


def versus(runs, cell_id, digits=3, paper_digits=3, unit=""):
    cell = CELL[cell_id]
    return (
        f"measured {cell.evaluate(runs):.{digits}f}{unit}"
        f" vs paper {cell.value:.{paper_digits}f}{unit}"
    )


def versus_lines(runs, cells, **formats):
    return "\n".join(
        f"  {name}: " + versus(runs, cell_id, **formats) for name, cell_id in cells
    )


def per_round(runs, figure, keys, describe, series, columns):
    sections = []
    for label, key in zip("abcd", keys):
        result = runs[f"ddos-{key}"]
        sections.append(render_timeseries_table(
            f"Figure {figure}{label}: Experiment {key} {describe(result.spec)}",
            series(result),
            columns,
            attack_rounds=result.spec.attack_rounds,
        ))
    return "\n\n".join(sections)


def outcomes(runs, figure, keys, describe):
    return per_round(
        runs, figure, keys, describe, lambda result: result.outcomes_by_round(),
        ["ok", "servfail", "no_answer"],
    )


def latency(runs, figure, keys, suffix):
    return "\n\n".join(
        render_series(
            f"Figure {figure}{label}: Experiment {key} latency (ms){suffix}",
            [
                (int(row.round_index * 10), *(
                    round(getattr(row, f"{stat}_ms"), 1)
                    for stat in ("median", "mean", "p75", "p90")
                ))
                for row in runs[f"ddos-{key}"].latency_series()
            ],
            ["minute", "median", "mean", "p75", "p90"],
        )
        for label, key in zip("abcd", keys)
    )


def by_baseline(runs, keys, table, rows):
    """A matrix with one column per baseline, rows read from ``table``."""
    tables = {key: table(runs[f"baseline-{key}"]) for key in keys}
    return [(label, [read(tables[key]) for key in keys]) for label, read in rows]


def fig03(runs):
    rows = by_baseline(runs, BASELINES, lambda base: base.table2, [
        (label, lambda table, attr=label.lower(): getattr(table, attr))
        for label in ("AA", "CC", "AC", "CA")
    ] + [("miss %", lambda table: f"{table.miss_rate:.1%}")])
    rows.append(("paper %", [
        f"{CELL[f'fig03.{key}.miss_rate'].value:.1%}" for key in BASELINES
    ]))
    return render_matrix(
        "Figure 3: warm-cache answer classes per experiment", BASELINES, rows
    )


def fig04(runs):
    ecdf = Ecdf(list(interarrival_medians(runs["nl-trace"]).values()))
    lines = [
        "Figure 4: ECDF of median inter-arrival to ns1-ns5.dns.nl",
        f"{'delta-t (s)':>12}  {'CDF':>6}",
    ] + [
        f"{x:>12}  {ecdf.at(x):>6.3f}"
        for x in (600, 1200, 1800, 2400, 3000, 3400, 3600, 3700, 4000, 6000)
    ]
    return "\n".join(lines) + (
        f"\n\nclose-query fraction: "
        f"{versus(runs, 'fig04.close_fraction', paper_digits=2)}"
        f"\nearly-refresh resolvers: "
        f"{versus(runs, 'fig04.early_refresh', paper_digits=2)}"
    )


def fig05(runs):
    counts = runs["ditl"]
    cdfs = per_letter_cdf(counts, max_queries=30)
    lines = [
        "Figure 5: CDF of queries per recursive for nl DS (24 h)",
        f"{'n':>4} {'F-Root':>8} {'H-Root':>8} {'ALL':>8}",
    ] + [
        f"{n:>4} {cdfs['F'][n - 1]:>8.3f} {cdfs['H'][n - 1]:>8.3f} "
        f"{cdfs['ALL'][n - 1]:>8.3f}"
        for n in (1, 2, 5, 10, 20, 30)
    ]
    return "\n".join(lines) + (
        f"\n\nsingle-query share: "
        f"{versus(runs, 'fig05.single_query', paper_digits=2)}"
        f"\nF-Root >=5 queries: {heavy_share(counts, 'F'):.3f} "
        f"(paper ~{CELL['fig05.F.heavy'].value:.2f}); "
        f"H-Root: {heavy_share(counts, 'H'):.3f} "
        f"(paper >{CELL['fig05.H.heavy'].value:.2f})"
    )


def fig06(runs):
    return outcomes(runs, 6, "ABC", lambda spec: f"(TTL {spec.ttl}s, 100% loss)")


def fig07(runs):
    result = runs["ddos-B"]
    return render_timeseries_table(
        "Figure 7: Experiment B answer classes per round",
        result.class_timeseries(),
        ["AA", "CC", "AC", "CA"],
        attack_rounds=result.spec.attack_rounds,
    )


def failures(runs):
    return versus_lines(
        runs, [(key, f"table4.{key}.failure") for key in PAPER_FAILURE]
    )


def fig08(runs):
    text = outcomes(
        runs,
        8,
        list(PAPER_FAILURE),
        lambda spec: f"({spec.loss_fraction:.0%} loss, TTL {spec.ttl}s)",
    )
    return text + "\n\nattack-window failures:\n" + failures(runs)


def fig09(runs):
    return latency(runs, 9, "EFHI", ", attack minutes 60-120")


def fig10(runs):
    text = per_round(
        runs, 10, list(PAPER_AMPLIFICATION), lambda spec: "offered queries by kind",
        lambda result: result.authoritative_load(),
        ["NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID"],
    )
    cells = [(key, f"fig10.{key}.amplification") for key in PAPER_AMPLIFICATION]
    return text + "\n\noffered-load multipliers:\n" + versus_lines(
        runs, cells, digits=1, paper_digits=1, unit="x"
    )


def fig11(runs):
    stats = ("rn", "queries")
    return render_series(
        "Figure 11: per-probe Rn and AAAA-for-PID queries (Experiment I)",
        [
            (int(row.round_index * 10), *(
                getattr(row, f"{stat}_{q}") for stat in stats
                for q in ("median", "p90", "max")
            ))
            for row in runs["ddos-I"].per_probe()
        ],
        ["minute", "Rn-med", "Rn-p90", "Rn-max", "q-med", "q-p90", "q-max"],
    )


def fig12(runs):
    merged = {}
    for key in "FHI":
        for round_index, count in runs[f"ddos-{key}"].unique_rn().items():
            merged.setdefault(round_index, {})[key] = count
    return render_series(
        "Figure 12: unique Rn addresses per round (attack minutes 60-120)",
        [
            (int(round_index * 10), *(bucket.get(key, 0) for key in "FHI"))
            for round_index, bucket in sorted(merged.items())
        ],
        ["minute", "Exp F", "Exp H", "Exp I"],
    )


def fig13(runs):
    return "\n\n".join(
        render_timeseries_table(
            f"Figure 13{label}: TTL {key} answer classes per round",
            runs[f"baseline-{key}"].class_timeseries(),
            ["AA", "AC", "CC", "CA"],
            round_minutes=runs[f"baseline-{key}"].spec.probe_interval / 60.0,
        )
        for label, key in zip("abcde", BASELINES)
    )


def fig14(runs):
    def describe(spec):
        which = "one NS" if spec.servers == "one" else "both NSes"
        return f"({spec.loss_fraction:.0%} loss on {which}, TTL {spec.ttl}s)"

    return outcomes(runs, 14, "DG", describe)


def fig15(runs):
    return latency(runs, 15, "DG", "")


def fig16(runs):
    rows = []
    for software, attack in SOFTWARE_CELLS:
        result = runs[software_run(software, attack)]
        cell = CELL[f"fig16.{software}.{'attack' if attack else 'normal'}"]
        rows.append((f"{software} ({'DDoS' if attack else 'normal'})", [
            result.queries_root, result.queries_tld, result.queries_target,
            result.total, cell.paper,
        ]))
    return render_matrix(
        "Figure 16: queries per resolution by zone",
        ["root", "net", "cachetest.net", "total", "paper-total"],
        rows,
    )


def table1(runs):
    rows = by_baseline(runs, BASELINES, lambda base: base.dataset, [
        (label, lambda dataset, attr=attr: getattr(dataset, attr))
        for label, attr in (
            ("Probes", "probes"),
            ("Probes (val.)", "probes_valid"),
            ("Probes (disc.)", "probes_discarded"),
            ("VPs", "vps"),
            ("Queries", "queries"),
            ("Answers", "answers"),
            ("Answers (val.)", "answers_valid"),
            ("Answers (disc.)", "answers_discarded"),
        )
    ])
    text = render_matrix(
        f"Table 1: caching baseline datasets ({BASELINE_PROBES} probes; paper: ~9k)",
        BASELINES,
        rows,
    )
    names = ("probes_valid", "answered", "answers_valid")
    return text + "\n\nKey ratios (TTL 1800):\n" + versus_lines(
        runs, [(name, f"table1.{name}") for name in names]
    )


def classification(runs, keys, table):
    labels = [label for label, _ in table(runs["baseline-1800"]).as_rows()]
    return by_baseline(runs, keys, table, [
        (label, lambda table, label=label: dict(table.as_rows())[label])
        for label in labels
    ])


def table2(runs):
    rows = classification(runs, BASELINES, lambda base: base.table2)
    rows += by_baseline(runs, BASELINES, lambda base: base.table2, [
        ("miss rate", lambda table: f"{table.miss_rate:.3f}")
    ])
    rows.append(("paper miss", [
        f"{CELL[f'fig03.{key}.miss_rate'].value:.3f}" for key in BASELINES
    ]))
    return render_matrix(
        "Table 2: answer classification (measured vs paper miss rates)",
        BASELINES,
        rows,
    )


def table3(runs):
    keys = BASELINES[1:]
    text = render_matrix(
        "Table 3: AC answers by resolver kind (no public misses at TTL 60)",
        keys,
        classification(runs, keys, lambda base: base.table3),
    )
    names = ("public_r1_share", "google_r1_share", "google_rn_within_nonpublic")
    return text + "\n\nShares (TTL 1800):\n" + versus_lines(
        runs, [(name, f"table3.{name}") for name in names]
    )


def table4(runs):
    rows = []
    for key in "ABCDEFGHI":
        result = runs[f"ddos-{key}"]
        spec = result.spec
        rows.append((key, [
            spec.ttl, f"{spec.loss_fraction:.0%}", spec.servers, len(result.answers),
            f"{result.failure_fraction_before_attack():.3f}",
            f"{result.failure_fraction_during_attack():.3f}",
        ]))
    text = render_matrix(
        f"Table 4: DDoS experiments A-I ({DDOS_PROBES} probes; paper ~9k)",
        ["TTL", "loss", "servers", "queries", "fail-pre", "fail-ddos"],
        rows,
    )
    return text + "\n\nAttack-window failures:\n" + failures(runs)


def table5(runs):
    return "\n\n".join(
        render_kv_table(
            f"Table 5 ({record} record): returned TTLs, parent=3600 vs child=60",
            getattr(runs["glue"], f"{record.lower()}_buckets").as_rows(),
        )
        for record in ("NS", "A")
    ) + f"\n\nchild-TTL fraction (NS): {versus(runs, 'table5.ns_child')}"


def table6(runs):
    sections = []
    for software in ("bind", "unbound"):
        dump = runs[f"cache-dump-{software}"]
        rows = [
            (f"{name} {rtype}", f"ttl={ttl} auth={auth}")
            for name, rtype, ttl, auth in sorted(dump.dump)
        ]
        rows += [("answered", dump.answered), ("NS cached TTL", dump.ns_cached_ttl)]
        sections.append(render_kv_table(
            f"Table 6 cache dump ({software}): parent TTL 172800, child 3600", rows
        ))
    return "\n\n".join(sections)


def table7(runs):
    probe = runs["probe-case"]
    rows = [
        (f"T{row.interval}{'*' if row.during_attack else ' '}", [
            row.client_queries, row.client_answers, row.client_r1_count,
            row.auth_queries, row.auth_answers, row.at_count, row.rn_count,
            row.rn_at_pairs, f"{row.top2_queries[0]};{row.top2_queries[1]}",
        ])
        for row in probe.rows
    ]
    table = render_matrix(
        "Table 7: client vs authoritative view (* = attack interval)",
        ["c-q", "c-ans", "c-R1", "a-q", "a-ans", "ATs", "Rn", "Rn-AT", "top2"],
        rows,
    )
    summary = probe.amplification_summary()
    return (
        f"Figure 17 topology: probe -> {len(probe.r1_addresses)} R1 -> "
        f"{len(probe.rn_addresses)} Rn -> {len(probe.at_addresses)} AT\n\n"
        f"{table}\n\nqueries per client query: "
        f"normal {summary['normal_queries_per_client_query']:.1f}, "
        f"attack {summary['attack_queries_per_client_query']:.1f} "
        f"(paper: {CELL['table7.amplification'].paper} under attack)"
    )


def ablation_defenses(runs):
    return render_matrix(
        "Ablation: Experiment H (90% loss) with defenses removed",
        ["fail-pre", "fail-ddos"],
        [
            (label, [
                f"{runs[name].failure_fraction_before_attack():.3f}",
                f"{runs[name].failure_fraction_during_attack():.3f}",
            ])
            for label, name in (
                ("full (caching + retries)", "H-250"),
                ("no retries", "H-no-retries"),
                ("no caching", "H-no-caching"),
                ("neither", "H-neither"),
                ("no serve-stale", "H-no-serve-stale"),
            )
        ],
    )


def ablation_fragmentation(runs):
    return render_kv_table(
        "Ablation: cache-miss rate vs Google-pool fan-out (TTL 1800)",
        [
            (f"{count} backends", f"{runs[f'fanout-{count}'].miss_rate:.3f}")
            for count in (1, 4, 12)
        ],
    )


def ablation_ttl(runs):
    return render_kv_table(
        "Ablation: failure rate vs zone TTL at 90% loss (paper §8)",
        [
            (f"TTL {ttl}s", f"{run.failure_fraction_during_attack():.3f}")
            for ttl, run in ((ttl, runs[f"ttl-{ttl}"]) for ttl in (60, 1800, 3600))
        ],
    )


def extension_anycast(runs):
    return render_matrix(
        "Extension: anycast (6 sites, 3 attacked at 90% loss), "
        "failures by pre-attack catchment",
        ["attacked", "healthy"],
        [
            (label, [
                f"{runs[name].failure_during_attack(catchment):.3f}"
                for catchment in ("attacked", "healthy")
            ])
            for label, name in (
                ("no mitigation", "anycast"),
                ("withdraw attacked sites at +20min", "anycast-withdrawn"),
            )
        ],
    )


def extension_queueing(runs):
    rows = []
    for label, name in (
        ("90% loss (paper)", "H-250"),
        ("queue only (400ms)", "H-queue-only"),
        ("90% loss + 400ms queue", "H-queue"),
    ):
        mid = latency_at(runs[name], 8)
        rows.append((label, [
            f"{runs[name].failure_fraction_during_attack():.3f}",
            f"{latency_at(runs[name], 2).mean_ms:.0f}",
            f"{mid.mean_ms:.0f}",
            f"{mid.p75_ms:.0f}",
        ]))
    return render_matrix(
        "Extension: queueing delay vs loss at the targets (Exp. H base)",
        ["fail-ddos", "pre-mean-ms", "mid-mean-ms", "mid-p75-ms"],
        rows,
    )


def sweep_surface(runs):
    anchors = ", ".join(
        f"{key}={100 * value:.2g}%" for key, (_, value) in PAPER_FAILURE.items()
    )
    return render_matrix(
        "Resilience surface: failures during attack "
        f"(150 probes; paper anchors: {anchors})",
        [f"{loss:.0%} loss" for loss in SWEEP_LOSSES],
        [
            (f"TTL {ttl}", [
                f"{runs[sweep_run(ttl, loss)].failure_fraction_during_attack():.1%}"
                for loss in SWEEP_LOSSES
            ])
            for ttl in SWEEP_TTLS
        ],
    )


RENDERS = (
    fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12,
    fig13, fig14, fig15, fig16, table1, table2, table3, table4, table5,
    table6, table7, ablation_defenses, ablation_fragmentation, ablation_ttl,
    extension_anycast, extension_queueing, sweep_surface,
)


def test_renders_write_output(runs):
    OUTPUT_DIR.mkdir(exist_ok=True)
    for render in RENDERS:
        (OUTPUT_DIR / f"{render.__name__}.txt").write_text(
            render(runs) + "\n", encoding="utf-8"
        )
