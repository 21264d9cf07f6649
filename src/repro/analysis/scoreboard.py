"""The paper scoreboard: every claim the reproduction makes, as data.

A :class:`Cell` is one comparison with the paper: what the paper says
(its text, and its number where it gives one), the band a measurement
must fall in, and how that measurement is taken from *named results*
(``ddos-H``, ``baseline-1800``, ``software-unbound-attack``,
``probe-case``, ...). :data:`CELLS` holds all of them.

The names resolve through three lists that everything shares:
:func:`paper_requests` is the battery ``build_report`` runs,
:func:`extension_requests` the ablation, queueing, TTL and sweep runs
beyond the paper (the anycast study among them), and :data:`IN_PROCESS`
the results with no run-request kind (the two synthetic traces).
``build_report`` prints each cell's paper text and verdict;
``benchmarks/test_paper.py`` asserts every cell at the report's default
sizes.

An ordering ("F fails more than E") is a cell on a difference with a
band open at zero, so every cell is one number against one band.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.analysis.ecdf import Ecdf
from repro.core.experiments import BASELINE_EXPERIMENTS, DDOS_EXPERIMENTS
from repro.workloads.ditl import fraction_at_least, per_letter_cdf
from repro.workloads.nl_trace import close_query_fraction, interarrival_medians

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsSpec
    from repro.runner import RunRequest


@dataclass(frozen=True)
class Cell:
    """One paper claim: a measured number against a band.

    ``measure`` receives the results named by ``reads`` (space-separated)
    in order. The band is ``lo < x < hi``, or ``lo <= x <= hi`` when
    ``closed``; either side may be ``None``. A cell with no band at all
    only records the paper's number next to what is measured.
    """

    id: str
    ref: str
    quantity: str
    paper: str
    reads: str
    measure: Callable[..., float]
    lo: Optional[float] = None
    hi: Optional[float] = None
    closed: bool = False
    value: Optional[float] = None

    @property
    def banded(self) -> bool:
        return self.lo is not None or self.hi is not None

    @property
    def band(self) -> str:
        left, right = "[]" if self.closed else "()"
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "inf" if self.hi is None else f"{self.hi:g}"
        return f"{left}{lo}, {hi}{right}"

    def evaluate(self, runs: Mapping[str, Any]) -> float:
        return float(self.measure(*(runs[name] for name in self.reads.split())))

    def holds(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if self.closed:
            return (self.lo is None or value >= self.lo) and (
                self.hi is None or value <= self.hi
            )
        return (self.lo is None or value > self.lo) and (
            self.hi is None or value < self.hi
        )


def _near(value: float, tolerance: float) -> Dict[str, float]:
    """Band keywords for ``|x - value| < tolerance``, with the value."""
    return {"lo": value - tolerance, "hi": value + tolerance, "value": value}


# ----------------------------------------------------------------------
# Measures shared by several cells (and by the report and the renders)
# ----------------------------------------------------------------------
def _ratio(part: float, whole: float) -> float:
    return part / max(1, whole)


def _failure(result: Any) -> float:
    return result.failure_fraction_during_attack()


def _failure_added(result: Any) -> float:
    return _failure(result) - result.failure_fraction_before_attack()


def ok_share(result: Any, round_index: int) -> float:
    """Share of a round's client queries that were answered."""
    bucket = result.outcomes_by_round()[round_index]
    return bucket["ok"] / sum(bucket.values())


def latency_at(result: Any, round_index: int) -> Any:
    return {row.round_index: row for row in result.latency_series()}[round_index]


def per_probe_at(result: Any, round_index: int) -> Any:
    return {row.round_index: row for row in result.per_probe()}[round_index]


def unique_rn_means(result: Any) -> Tuple[float, float]:
    """Figure 12: mean unique Rn per round before the attack (warm-up
    round excluded) and during it."""
    series = result.unique_rn()
    attack = result.spec.attack_rounds
    before = [series[index] for index in range(1, attack[0])]
    return (
        sum(before) / len(before),
        sum(series[index] for index in attack) / len(attack),
    )


def _rn_growth(result: Any) -> float:
    before, during = unique_rn_means(result)
    return during - before


def _medians(trace: Any) -> List[float]:
    return list(interarrival_medians(trace).values())


def _early_refresh(trace: Any) -> float:
    """Share of recursives whose median inter-arrival beats the 3600 s TTL."""
    medians = _medians(trace)
    return sum(1 for median in medians if median < 3400) / len(medians)


def _ttl_jump(trace: Any) -> float:
    ecdf = Ecdf(_medians(trace))
    return ecdf.at(3700) - ecdf.at(3400)


def heavy_share(counts: Any, letter: str) -> float:
    return fraction_at_least(counts, letter, 5)


def _auth_queries(probe: Any, during_attack: bool) -> List[int]:
    rows = probe.rows
    return [row.auth_queries for row in rows if row.during_attack == during_attack]


def _per_client_query(probe: Any, kind: str) -> float:
    return probe.amplification_summary()[f"{kind}_queries_per_client_query"]


def _classes(result: Any, round_index: int, *columns: str) -> int:
    bucket = result.class_timeseries()[round_index]
    return sum(bucket[column] for column in columns)


def _ac_counts(result: Any) -> List[int]:
    series = result.class_timeseries()
    return [series[index]["AC"] for index in sorted(series) if index >= 1]


def _late(result: Any, column: str) -> int:
    series = result.class_timeseries()
    return sum(series[index][column] for index in sorted(series) if index >= 2)


# ----------------------------------------------------------------------
# The cells
# ----------------------------------------------------------------------
PAPER_MISS = {
    "60": ("0.0%", 0.000),
    "1800": ("32.6%", 0.326),
    "3600": ("32.9%", 0.329),
    "86400": ("30.9%", 0.309),
    "3600-10m": ("28.5%", 0.285),
}
PAPER_FAILURE = {
    "E": ("8.5%", 0.085),
    "F": ("19.0%", 0.190),
    "H": ("40.3%", 0.403),
    "I": ("~63%", 0.630),
}
PAPER_AMPLIFICATION = {"F": ("3.5x", 3.5), "H": ("8.2x", 8.2), "I": ("8.1x", 8.1)}
SOFTWARE_CELLS = [
    (software, attack) for software in ("bind", "unbound") for attack in (False, True)
]
SWEEP_TTLS = (60, 300, 1800)
SWEEP_LOSSES = (0.5, 0.75, 0.9)


def software_run(software: str, attack: bool) -> str:
    return f"software-{software}-{'attack' if attack else 'normal'}"


def sweep_run(ttl: int, loss: float) -> str:
    return f"sweep-{ttl}-{int(loss * 100)}"


def _cells() -> Iterator[Cell]:
    # -- Figure 3, Tables 1-3: the caching baseline (§3) ----------------
    for key, (text, value) in PAPER_MISS.items():
        yield Cell(f"fig03.{key}.miss_rate", "Figure 3, Table 2",
                   f"warm-cache miss rate, TTL {key}", text, f"baseline-{key}",
                   lambda base: base.miss_rate, **_near(value, 0.10))
    yield Cell("fig03.60.all_aa", "Figure 3", "TTL 60: AA − subsequent answers",
               "every answer authoritative", "baseline-60",
               lambda base: base.table2.aa - base.table2.subsequent,
               lo=0, hi=0, closed=True)
    for key in ("3600", "86400", "3600-10m"):
        yield Cell(f"fig03.{key}.cc_over_aa", "Figure 3", f"TTL {key}: CC − AA",
                   "CC is the largest class", f"baseline-{key}",
                   lambda base: base.table2.cc - base.table2.aa, lo=0)
    for name, attrs, text, lo in (
        ("probes_valid", ("probes_valid", "probes"), "95.3%", 0.9),
        ("answered", ("answers", "queries"), "95.4%", 0.9),
        ("answers_valid", ("answers_valid", "answers"), "99.6%", 0.95),
    ):
        yield Cell(f"table1.{name}", "Table 1", f"{attrs[0]} / {attrs[1]}, TTL 1800",
                   text, "baseline-1800",
                   lambda base, attrs=attrs: _ratio(
                       *(getattr(base.dataset, attr) for attr in attrs)),
                   lo=lo, value=float(text[:-1]) / 100)
    yield Cell("table1.vps_per_probe", "Table 1", "VPs per probe, TTL 1800", "1.67",
               "baseline-1800", lambda base: base.dataset.vps / base.dataset.probes,
               value=1.67)
    for key, text, band in (
        ("1800", "~2%", {"value": 0.02}),
        ("3600", "~2%", {"hi": 0.08, "value": 0.02}),
        ("86400", "~30%", {"lo": 0.18, "hi": 0.45, "value": 0.30}),
    ):
        yield Cell(f"table2.{key}.warmup_altered", "Table 2",
                   f"warm-up answers with altered TTL, TTL {key}", text,
                   f"baseline-{key}",
                   lambda base: _ratio(base.table2.warmup_ttl_altered,
                                       base.table2.warmup), **band)
    yield Cell("table2.86400.ccdec", "Table 2", "CCdec share of CC, TTL 86400",
               "~7.8% of CC", "baseline-86400",
               lambda base: _ratio(base.table2.cc_decreasing, base.table2.cc),
               lo=0, value=0.078)
    yield Cell("table2.60.cc", "Table 2", "CC answers, TTL 60", "none", "baseline-60",
               lambda base: base.table2.cc, lo=0, hi=0, closed=True)
    for name, attrs, text, band in (
        ("public_r1_share", ("public_r1", "ac_total"), "48.7%",
         {"lo": 0.35, "hi": 0.70}),
        ("google_r1_share", ("google_r1", "ac_total"), "39.3%", {}),
        ("google_rn_within_nonpublic", ("google_rn", "non_public_r1"), "9.5%",
         {"hi": 0.35}),
    ):
        yield Cell(f"table3.{name}", "Table 3", f"{attrs[0]} / {attrs[1]}, TTL 1800",
                   text, "baseline-1800",
                   lambda base, attrs=attrs: _ratio(
                       *(getattr(base.table3, attr) for attr in attrs)),
                   value=float(text[:-1]) / 100, **band)
    yield Cell("table3.google_within_public", "Table 3",
               "Google R1 − ½ public R1, shares of AC, TTL 1800",
               "most public misses are Google's", "baseline-1800",
               lambda base: _ratio(base.table3.google_r1, base.table3.ac_total)
               - 0.5 * _ratio(base.table3.public_r1, base.table3.ac_total), lo=0)
    # -- Figure 13 (Appendix B) --------------------------------------------
    for column in ("CC", "AC"):
        yield Cell(f"fig13.60.{column.lower()}", "Figure 13a",
                   f"largest per-round {column} count, TTL 60", "all AA",
                   "baseline-60",
                   lambda base, column=column: max(
                       bucket[column] for bucket in base.class_timeseries().values()),
                   lo=0, hi=0, closed=True)
    yield Cell("fig13.3600.ac_rounds", "Figure 13c",
               "post-warm-up rounds with an AC count, TTL 3600", "AC every round",
               "baseline-3600", lambda base: len(_ac_counts(base)), lo=0)
    yield Cell("fig13.3600.ac_spread", "Figure 13c",
               "max AC − 3 × max(1, min AC) over rounds, TTL 3600",
               "AC roughly constant", "baseline-3600",
               lambda base: max(_ac_counts(base)) - 3 * max(1, min(_ac_counts(base))),
               hi=0)
    yield Cell("fig13.86400.late_aa", "Figure 13d",
               "AA − 0.2 × CC over rounds ≥ 2, TTL 86400", "no AA after warm-up",
               "baseline-86400",
               lambda base: _late(base, "AA") - _late(base, "CC") * 0.2, hi=0)
    # -- Table 4, Figures 8 and 14: failures during the attack (§5) -------
    for key, (text, value) in PAPER_FAILURE.items():
        yield Cell(f"table4.{key}.failure", "Table 4, Figure 8",
                   f"failure during the attack, Experiment {key}", text,
                   f"ddos-{key}", _failure, **_near(value, 0.15))
    yield Cell("table4.D.failure", "Table 4, Figure 14a",
               "failure during − before the attack, Experiment D",
               "no visible change", "ddos-D", _failure_added, hi=0.05)
    yield Cell("table4.G.failure", "Table 4, Figure 14b",
               "failure during the attack, Experiment G (answered 0.55–0.95)",
               "~28%", "ddos-G", _failure, lo=0.05, hi=0.45, value=0.28)
    for low, high in (("E", "F"), ("F", "H"), ("H", "I")):
        yield Cell(f"table4.{high}_over_{low}", "Table 4",
                   f"failure {high} − failure {low}", "more loss, more failures",
                   f"ddos-{high} ddos-{low}",
                   lambda a, b: _failure(a) - _failure(b), lo=0)
    yield Cell("table4.D_vs_E", "Table 4", "failure D − failure E",
               "one-server attack barely visible", "ddos-D ddos-E",
               lambda d, e: _failure(d) - _failure(e), hi=0.05)
    yield Cell("fig08.H.flat", "Figure 8c", "H served, round 7 − round 10",
               "flat across the hour", "ddos-H",
               lambda h: ok_share(h, 7) - ok_share(h, 10), lo=-0.25, hi=0.25)
    # -- Figures 6, 7: complete failure (A, B, C) --------------------------
    yield Cell("fig06.A.cache_only_ok", "Figure 6a",
               "served in the cache-only outage (round 3)", "35–70%", "ddos-A",
               lambda a: ok_share(a, 3), lo=0.25, hi=0.75)
    yield Cell("fig06.A.expired_ok", "Figure 6a",
               "served after caches expire (round 9)", "~0.2% (serve-stale)",
               "ddos-A", lambda a: ok_share(a, 9), hi=0.1, value=0.002)
    yield Cell("fig06.B.decay", "Figure 6b", "served, round 11 − round 6",
               "decays as caches expire", "ddos-B",
               lambda b: ok_share(b, 11) - ok_share(b, 6), hi=0)
    yield Cell("fig06.B.recovered_ok", "Figure 6b", "served after recovery (round 14)",
               "recovers", "ddos-B", lambda b: ok_share(b, 14), lo=0.8)
    yield Cell("fig06.C.deep_attack_ok", "Figure 6c",
               "served 40 min into the attack (round 10)", "small residue",
               "ddos-C", lambda c: ok_share(c, 10), hi=0.2)
    for name, round_index, columns, text, band in (
        ("pre_fresh", 3, ("AA", "AC"), "healthy AA/CC/AC mix", {"lo": 0}),
        ("pre_cc", 3, ("CC",), "healthy AA/CC/AC mix", {"lo": 0}),
        ("mid_fresh", 8, ("AA", "AC"), "none through a 100% drop",
         {"lo": 0, "hi": 0, "closed": True}),
        ("mid_cc", 8, ("CC",), "fragmented caches keep CC alive", {"lo": 0}),
    ):
        yield Cell(f"fig07.B.{name}", "Figure 7",
                   f"{' + '.join(columns)} answers, round {round_index}", text,
                   "ddos-B",
                   lambda b, r=round_index, columns=columns: _classes(b, r, *columns),
                   **band)
    yield Cell("fig07.B.attack_ca", "Figure 7", "CA answers during the attack",
               "serve-stale CA grows", "ddos-B",
               lambda b: sum(b.class_timeseries()[index].get("CA", 0)
                             for index in b.spec.attack_rounds), lo=0)
    # -- Figures 9, 15: latency ----------------------------------------------
    for name, reads, quantity, text, measure, band in (
        ("fig09.E.median_steady", "ddos-E", "E median, round 8 − 3 × round 1",
         "medians barely move",
         lambda e: latency_at(e, 8).median_ms - latency_at(e, 1).median_ms * 3,
         {"hi": 0}),
        ("fig09.E.tail_stretch", "ddos-E", "E p90, round 8 − 2 × round 1",
         "tails stretch",
         lambda e: latency_at(e, 8).p90_ms - latency_at(e, 1).p90_ms * 2, {"lo": 0}),
        ("fig09.F_over_E.p90", "ddos-F ddos-E", "p90 mid-attack, F − E",
         "more loss, longer tails",
         lambda f, e: latency_at(f, 8).p90_ms - latency_at(e, 8).p90_ms, {"lo": 0}),
        ("fig09.H_vs_F.p90", "ddos-H ddos-F", "p90 mid-attack, H − 0.8 × F",
         "more loss, longer tails",
         lambda h, f: latency_at(h, 8).p90_ms - latency_at(f, 8).p90_ms * 0.8,
         {"lo": 0, "closed": True}),
        ("fig09.I_over_H.median", "ddos-I ddos-H", "median mid-attack, I − 3 × H",
         "~390 ms vs ~1300 ms (§5.5)",
         lambda i, h: latency_at(i, 8).median_ms - latency_at(h, 8).median_ms * 3,
         {"lo": 0}),
        ("fig15.D.median_steady", "ddos-D", "D median, round 8 − 2.5 × round 1",
         "latency untouched",
         lambda d: latency_at(d, 8).median_ms - latency_at(d, 1).median_ms * 2.5,
         {"hi": 0}),
        ("fig15.D.p90_steady", "ddos-D", "D p90, round 8 − max(4 × round 1, 1200)",
         "latency untouched",
         lambda d: latency_at(d, 8).p90_ms - max(latency_at(d, 1).p90_ms * 4, 1200.0),
         {"hi": 0}),
        ("fig15.G.tail_stretch", "ddos-G", "G p90, round 8 − 2 × round 1",
         "visible latency increase",
         lambda g: latency_at(g, 8).p90_ms - latency_at(g, 1).p90_ms * 2, {"lo": 0}),
    ):
        figure = "Figure 9" if name.startswith("fig09") else "Figure 15"
        yield Cell(name, figure, quantity, text, reads, measure, **band)
    # -- Figures 10-12: the authoritatives' view (§6) ------------------------
    for key, (text, value) in PAPER_AMPLIFICATION.items():
        yield Cell(f"fig10.{key}.amplification", "Figure 10, §6.1",
                   f"offered-load multiplier, Experiment {key}", text, f"ddos-{key}",
                   lambda result: result.amplification(),
                   lo=value / 2.5, hi=value * 2.5, value=value)
    yield Cell("fig10.H_over_F", "Figure 10", "amplification H − F",
               "more loss, more load", "ddos-H ddos-F",
               lambda h, f: h.amplification() - f.amplification(), lo=0)
    for kind in ("NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID"):
        yield Cell(f"fig10.H.mid.{kind}", "Figure 10b",
                   f"{kind} queries mid-attack, Experiment H", "all four kinds",
                   "ddos-H",
                   lambda h, kind=kind: h.authoritative_load()[8].get(kind, 0), lo=0)
    yield Cell("fig11.I.rn_median", "Figure 11", "Rn-per-probe median mid-attack",
               "1→2", "ddos-I", lambda i: per_probe_at(i, 8).rn_median, value=2)
    for stat, factor, text, closed in (
        ("queries_median", 2, "~3x", True),
        ("queries_p90", 2, "3→18", True),
        ("rn_p90", 1, "2→4", True),
        ("queries_max", 1, "grows", False),
    ):
        yield Cell(f"fig11.I.{stat}_growth", "Figure 11",
                   f"{stat} per probe, attack − {factor} × normal", text, "ddos-I",
                   lambda i, stat=stat, factor=factor: getattr(per_probe_at(i, 8), stat)
                   - getattr(per_probe_at(i, 3), stat) * factor,
                   lo=0, closed=closed)
    for key in ("F", "H"):
        yield Cell(f"fig12.{key}.rn_growth", "Figure 12",
                   f"unique Rn per round, attack − before, Experiment {key}",
                   "grows", f"ddos-{key}", _rn_growth, lo=0)
    yield Cell("fig12.I.rn_saturated", "Figure 12",
               "unique Rn per round, attack − before, Experiment I",
               "flat (saturated)", "ddos-I", _rn_growth, lo=-1.0, closed=True)
    # -- Figures 4, 5: production zones (§4) ---------------------------------
    yield Cell("fig04.ttl_jump", "Figure 4", "ECDF rise from 3400 s to 3700 s",
               "jump at the 3600 s TTL", "nl-trace", _ttl_jump, lo=0.3)
    yield Cell("fig04.close_fraction", "Figure 4", ".nl queries with Δt < 10 s",
               "28%", "nl-trace", close_query_fraction, **_near(0.28, 0.15))
    yield Cell("fig04.early_refresh", "Figure 4", ".nl resolvers refreshing early",
               "22%", "nl-trace", _early_refresh, **_near(0.22, 0.15))
    yield Cell("fig05.single_query", "Figure 5",
               "root recursives sending 1 DS query/day", "87%", "ditl",
               lambda counts: per_letter_cdf(counts)["ALL"][0], **_near(0.87, 0.07))
    for letter, text in (("F", "~5%"), ("H", ">10%")):
        yield Cell(f"fig05.{letter}.heavy", "Figure 5",
                   f"{letter}-root recursives sending ≥5", text, "ditl",
                   lambda counts, letter=letter: heavy_share(counts, letter),
                   value=float(text[1:-1]) / 100)
    yield Cell("fig05.H_over_F", "Figure 5", "≥5-query share, H-root − F-root",
               "H-Root worst, F-Root friendliest", "ditl",
               lambda counts: heavy_share(counts, "H") - heavy_share(counts, "F"),
               lo=0)
    yield Cell("fig05.max_total", "Figure 5", "largest per-recursive daily total",
               "long tail", "ditl",
               lambda counts: max(sum(per.values()) for per in counts.values()),
               lo=1000)
    # -- Tables 5, 6: glue vs authoritative TTL (Appendix A) -----------------
    for record, text in (("ns", "94.4%"), ("a", "95.0%")):
        yield Cell(f"table5.{record}_child", "Table 5",
                   f"{record.upper()} answers with child TTL", text, "glue",
                   lambda glue, record=record: getattr(
                       glue, f"{record}_buckets").child_fraction,
                   lo=0.85, value=float(text[:-1]) / 100)
    yield Cell("table5.parentish", "Table 5",
               "NS answers with the parent's TTL or in between", "~5.6%", "glue",
               lambda glue: glue.ns_buckets.parent_exact + glue.ns_buckets.between,
               lo=0)
    for software in ("bind", "unbound"):
        yield Cell(f"table6.{software}.answered", "Table 6",
                   f"{software} answers the cache-dump query", "yes",
                   f"cache-dump-{software}", lambda dump: dump.answered,
                   lo=1, hi=1, closed=True)
        yield Cell(f"table6.{software}.stored_child", "Table 6",
                   f"{software} caches the child NS TTL", "yes (~3595)",
                   f"cache-dump-{software}", lambda dump: dump.stored_child_value,
                   lo=1, hi=1, closed=True)
    # -- Figure 16: software retries (Appendix E) ----------------------------
    for (software, attack), text, value, lo, hi in zip(
        SOFTWARE_CELLS, ("3", "12", "5–6", "46"), (3, 12, None, 46),
        (3, 8, 5, 30), (3, 20, 12, 80),
    ):
        condition = "attack" if attack else "normal"
        yield Cell(f"fig16.{software}.{condition}", "Figure 16",
                   f"{software} total queries, {condition}", text,
                   software_run(software, attack), lambda result: result.total,
                   lo=lo, hi=hi, closed=True, value=value)
    yield Cell("fig16.unbound_over_bind", "Figure 16",
               "total queries under attack, Unbound − BIND", "46 vs 12",
               "software-unbound-attack software-bind-attack",
               lambda unbound, bind: unbound.total - bind.total, lo=0)
    yield Cell("fig16.bind.parent_requery", "Figure 16",
               "BIND root + TLD queries, attack − normal", "re-asks the parents",
               "software-bind-attack software-bind-normal",
               lambda attack, normal: attack.queries_root + attack.queries_tld
               - normal.queries_root - normal.queries_tld, lo=0)
    # -- Table 7, Figure 17: one probe (Appendix F) --------------------------
    yield Cell("fig17.rn_count", "Figure 17", "exit recursives (Rn) behind the probe",
               "3 R1, 8 Rn, 2 AT", "probe-case",
               lambda probe: len(probe.rn_addresses), value=8)
    per_interval = {
        "client_queries": lambda probe: [row.client_queries for row in probe.rows],
        "auth_normal": lambda probe: _auth_queries(probe, False),
    }
    for name, pick, text, band in (
        ("client_queries", min, "3", {"lo": 3, "value": 3}),
        ("client_queries", max, "3", {"hi": 3, "value": 3}),
        ("auth_normal", min, "3–6", {"lo": 3}),
        ("auth_normal", max, "3–6", {"hi": 8}),
    ):
        counts = per_interval[name]
        yield Cell(f"table7.{name}_{pick.__name__}", "Table 7",
                   f"{pick.__name__} of {name} per interval", text, "probe-case",
                   lambda probe, pick=pick, counts=counts: pick(counts(probe)),
                   closed=True, **band)
    yield Cell("table7.auth_attack_max", "Table 7",
               "max of authoritative queries per attack interval", "11–29",
               "probe-case", lambda probe: max(_auth_queries(probe, True)), lo=10)
    yield Cell("table7.attack_answers", "Table 7", "client answers per attack interval",
               "2 of 3", "probe-case",
               lambda probe: sum(row.client_answers for row in probe.rows
                                 if row.during_attack)
               / len(_auth_queries(probe, True)),
               value=2)
    yield Cell("table7.amplification", "Table 7",
               "queries per client query, attack − 3 × normal", "~4–10x",
               "probe-case",
               lambda probe: _per_client_query(probe, "attack")
               - _per_client_query(probe, "normal") * 3, lo=0)
    # -- Ablations (DESIGN §5) ------------------------------------------------
    yield Cell("ablation.no_retries", "§5.4", "H failure, no retries − full",
               "caching and retries are synergistic", "H-no-retries H-250",
               lambda variant, full: _failure(variant) - _failure(full), lo=0.05)
    yield Cell("ablation.no_caching", "§5.4", "H failure, no caching − full",
               "caching and retries are synergistic", "H-no-caching H-250",
               lambda variant, full: _failure(variant) - _failure(full), lo=0.03)
    yield Cell("ablation.neither_vs_single", "§5.4",
               "H failure, neither − max(no retries, no caching)",
               "together they dominate", "H-neither H-no-retries H-no-caching",
               lambda neither, retries, caching: _failure(neither)
               - max(_failure(retries), _failure(caching)), lo=-0.02)
    yield Cell("ablation.neither", "§5.4", "H failure with neither defense",
               "~90% loss, ~90% failures", "H-neither", _failure, lo=0.7)
    for fewer, more in ((1, 4), (4, 12)):
        yield Cell(f"ablation.fanout_{more}_over_{fewer}", "§3.5",
                   f"TTL 1800 miss rate, {more} − {fewer} Google backends",
                   "more backend caches, more misses", f"fanout-{more} fanout-{fewer}",
                   lambda a, b: a.miss_rate - b.miss_rate, lo=0)
    yield Cell("ablation.ttl_3600_vs_60", "§8",
               "failure at 90% loss, TTL 3600 − TTL 60", "longer TTLs buy resilience",
               "ttl-3600 ttl-60", lambda long, short: _failure(long) - _failure(short),
               hi=-0.1)
    # -- Extensions: queueing (§5.1), anycast (§8), the loss × TTL sweep -----
    yield Cell("queueing.queue_only.failure_added", "§5.1",
               "400 ms queue, no loss: failure during − before",
               "loss, not delay, dominates", "H-queue-only", _failure_added, hi=0.08)
    yield Cell("queueing.queue_only.latency", "§5.1",
               "400 ms queue, no loss: mean latency, round 8 − 2 × round 2",
               "delay stretches latency", "H-queue-only",
               lambda run: latency_at(run, 8).mean_ms - latency_at(run, 2).mean_ms * 2,
               lo=0)
    yield Cell("queueing.loss_plus_queue", "§5.1",
               "H failure, 90% loss + 400 ms queue − 90% loss",
               "loss dominates reliability", "H-queue H-250",
               lambda combined, base: _failure(combined) - _failure(base),
               lo=-0.12, hi=0.12)
    for catchment, band in (("attacked", {"lo": 0.15}), ("healthy", {"hi": 0.1})):
        yield Cell(f"anycast.{catchment}", "§8", f"failure in {catchment} catchments",
                   "uneven outcomes", "anycast",
                   lambda study, catchment=catchment: study.failure_during_attack(
                       catchment), **band)
    yield Cell("anycast.withdrawal", "§8",
               "attacked-catchment failure, withdrawn − no mitigation",
               "withdrawal re-homes clients", "anycast-withdrawn anycast",
               lambda withdrawn, plain: withdrawn.failure_during_attack("attacked")
               - plain.failure_during_attack("attacked"), hi=-0.08)
    for ttl in SWEEP_TTLS:
        yield Cell(f"sweep.{ttl}.mild", "Table 4 generalized",
                   f"failure at 50% loss, TTL {ttl}", "mild attacks survivable",
                   sweep_run(ttl, 0.5), _failure, hi=0.30)
        yield Cell(f"sweep.{ttl}.monotone", "Table 4 generalized",
                   f"failure at 50% − 90% loss, TTL {ttl}", "monotone in loss",
                   f"{sweep_run(ttl, 0.5)} {sweep_run(ttl, 0.9)}",
                   lambda mild, heavy: _failure(mild) - _failure(heavy),
                   hi=0.03, closed=True)
    yield Cell("sweep.heavy_ttl_gap", "Table 4 generalized",
               "failure at 90% loss, TTL 1800 − TTL 60", "caches carry heavy attacks",
               f"{sweep_run(1800, 0.9)} {sweep_run(60, 0.9)}",
               lambda cached, bare: _failure(cached) - _failure(bare), hi=-0.05)
    yield Cell("sweep.amplification_growth", "§6.1 generalized",
               "TTL 1800 amplification, 90% − 50% loss", "grows with loss",
               f"{sweep_run(1800, 0.9)} {sweep_run(1800, 0.5)}",
               lambda heavy, mild: heavy.amplification() - mild.amplification(), lo=0)


CELLS: Tuple[Cell, ...] = tuple(_cells())
CELL: Dict[str, Cell] = {cell.id: cell for cell in CELLS}


# ----------------------------------------------------------------------
# The named results cells read
# ----------------------------------------------------------------------
def paper_requests(
    baseline_probes: int = 600,
    ddos_probes: int = 400,
    seed: int = 42,
    obs: Optional["ObsSpec"] = None,
) -> List[Tuple[str, "RunRequest"]]:
    """The report's battery, in its batch order, each run by name."""
    from repro.runner import (
        baseline_request,
        cache_dump_request,
        ddos_request,
        glue_request,
        probe_case_request,
        software_request,
    )

    named = [
        (f"baseline-{key}", baseline_request(spec, baseline_probes, seed, obs=obs))
        for key, spec in BASELINE_EXPERIMENTS.items()
    ]
    named += [
        (f"ddos-{key}", ddos_request(spec, ddos_probes, seed, obs=obs))
        for key, spec in DDOS_EXPERIMENTS.items()
    ]
    named.append(("glue", glue_request(probe_count=400, seed=seed, rounds=3)))
    named += [
        (f"cache-dump-{software}", cache_dump_request(software))
        for software in ("bind", "unbound")
    ]
    named += [
        (software_run(*cell), software_request(*cell, seed=seed))
        for cell in SOFTWARE_CELLS
    ]
    named.append(("probe-case", probe_case_request(seed=11)))
    return named


def extension_requests(seed: int = 42) -> List[Tuple[str, "RunRequest"]]:
    """Runs beyond the paper: defense ablations on Experiment H (250
    probes), Google-pool fan-out (300), zone TTL at 90% loss (250),
    queueing delay (250), the anycast study with and without route
    withdrawal (250) and the loss × TTL sweep (150)."""
    from repro.clients.population import PopulationConfig
    from repro.clients.publicdns import default_public_services
    from repro.core.experiments.anycast_study import AnycastSpec
    from repro.core.experiments.sweep import sweep_spec
    from repro.runner import anycast_request, baseline_request, ddos_request

    h = DDOS_EXPERIMENTS["H"]

    def h_without(**switches: bool) -> "RunRequest":
        population = PopulationConfig(probe_count=250, **switches)
        return ddos_request(h, 250, seed, population=population)

    def fanout(backend_count: int) -> "RunRequest":
        services = default_public_services()
        for service in services:
            if service.google_like:
                service.backend_count = backend_count
        population = PopulationConfig(probe_count=300, public_services=services)
        return baseline_request(
            BASELINE_EXPERIMENTS["1800"], 300, seed, population=population
        )

    def ttl_at_90(ttl: int) -> "RunRequest":
        spec = dataclasses.replace(h, key=f"ttl-{ttl}", ttl=ttl, total_duration_min=130)
        return ddos_request(spec, 250, seed)

    named = [
        ("H-250", ddos_request(h, 250, seed)),
        ("H-no-retries", h_without(disable_retries=True)),
        ("H-no-caching", h_without(disable_caching=True)),
        ("H-neither", h_without(disable_retries=True, disable_caching=True)),
        ("H-no-serve-stale", h_without(disable_serve_stale=True)),
    ]
    named += [(f"fanout-{count}", fanout(count)) for count in (1, 4, 12)]
    named += [(f"ttl-{ttl}", ttl_at_90(ttl)) for ttl in (60, 1800, 3600)]
    named += [
        (name, ddos_request(dataclasses.replace(h, **changes), 250, seed))
        for name, changes in (
            ("H-queue-only", {"key": "Hq0", "loss_fraction": 0.0, "queue_delay": 0.4}),
            ("H-queue", {"key": "Hq4", "queue_delay": 0.4}),
        )
    ]
    named += [
        (name, anycast_request(AnycastSpec(withdraw_after_min=after), 250, seed))
        for name, after in (("anycast", None), ("anycast-withdrawn", 20))
    ]
    sweep = [(ttl, loss) for ttl in SWEEP_TTLS for loss in SWEEP_LOSSES]
    named += [
        (sweep_run(*cell), ddos_request(sweep_spec(*cell, 40.0, 40.0), 150, seed))
        for cell in sweep
    ]
    return named


def _nl_trace(seed: int) -> Any:
    from repro.workloads.nl_trace import NlTraceConfig, generate_nl_trace

    return generate_nl_trace(NlTraceConfig(recursive_count=2000, seed=seed))


def _ditl(seed: int) -> Any:
    from repro.workloads.ditl import DitlConfig, generate_ditl_counts

    return generate_ditl_counts(DitlConfig(recursive_count=20000, seed=seed))


#: Results with no run-request kind, computed in the calling process:
#: the two synthetic traces. They run no simulator and take about 0.15 s
#: together, and a pickled copy of the ``.nl`` trace (2 MB) loads no
#: faster than it regenerates.
IN_PROCESS: Dict[str, Callable[[int], Any]] = {
    "nl-trace": _nl_trace,
    "ditl": _ditl,
}
