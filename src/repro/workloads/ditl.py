"""Synthetic root-server DITL counts (paper §4.2, Figure 5).

The paper counts, per recursive, the queries for the ``nl`` DS record
(TTL 86400 s) arriving at the root servers over 24 hours:

* ~87% of recursives send exactly one query in the day (full TTL honor);
* ~13% send several; per-letter behavior differs (F-Root "best": ~5%
  send ≥5; H-Root "worst": >10% send ≥5);
* a very long tail, up to 21.8k queries from one recursive.

The generator draws per-recursive totals from that mixture and spreads
them across the 12 letters the paper analyzes (all except G-Root).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional

ROOT_LETTERS = ("A", "B", "C", "D", "E", "F", "H", "I", "J", "K", "L", "M")


@dataclass
class DitlConfig:
    """Mixture parameters for per-recursive daily query counts."""

    recursive_count: int = 20000
    single_share: float = 0.87
    # Among multi-queriers, geometric "a few" vs pareto "heavy".
    heavy_share: float = 0.06
    geometric_p: float = 0.45
    pareto_alpha: float = 0.9
    pareto_scale: float = 5.0
    max_count: int = 21800
    seed: int = 42


def generate_ditl_counts(
    config: Optional[DitlConfig] = None,
) -> Dict[str, Dict[str, int]]:
    """Per-recursive, per-letter query counts for the nl DS record.

    Returns ``{recursive: {letter: count}}``; a recursive appears under
    a letter only if it sent at least one query there.
    """
    config = config or DitlConfig()
    rng = random.Random(config.seed)
    result: Dict[str, Dict[str, int]] = {}
    # Letters differ in "friendliness": F sees the least re-asking, H the
    # most; weights skew which letter absorbs multi-query traffic.
    letter_weights = {letter: 1.0 for letter in ROOT_LETTERS}
    letter_weights["F"] = 0.5
    letter_weights["H"] = 3.2
    letters = list(letter_weights)
    # choices() reads one random() per item drawn, so one k-item call
    # draws exactly what k one-item calls would.
    cum_weights = list(accumulate(letter_weights.values()))

    for index in range(config.recursive_count):
        src = f"rec-{index}"
        draw = rng.random()
        if draw < config.single_share:
            total = 1
        elif draw < config.single_share + config.heavy_share:
            total = min(
                config.max_count,
                int(config.pareto_scale / (rng.random() ** (1 / config.pareto_alpha))),
            )
        else:
            # Geometric "a few": 2, 3, 4 ... queries.
            total = 2
            while rng.random() > config.geometric_p and total < 500:
                total += 1
        per_letter: Dict[str, int] = {}
        for letter in rng.choices(letters, cum_weights=cum_weights, k=total):
            per_letter[letter] = per_letter.get(letter, 0) + 1
        result[src] = per_letter
    return result


def per_letter_cdf(
    counts: Dict[str, Dict[str, int]], max_queries: int = 30
) -> Dict[str, List[float]]:
    """Figure 5: CDF of per-recursive query counts, per letter and overall.

    ``result[letter][n-1]`` is the fraction of that letter's recursives
    that sent at most ``n`` queries. The "ALL" series counts each
    recursive's total across letters.
    """
    series: Dict[str, List[int]] = {letter: [] for letter in ROOT_LETTERS}
    totals: List[int] = []
    for per_letter in counts.values():
        totals.append(sum(per_letter.values()))
        for letter, count in per_letter.items():
            series[letter].append(count)
    result: Dict[str, List[float]] = {}
    for letter, values in list(series.items()) + [("ALL", totals)]:
        if not values:
            result[letter] = [1.0] * max_queries
            continue
        values.sort()
        cdf: List[float] = []
        total = len(values)
        for threshold in range(1, max_queries + 1):
            covered = _count_at_most(values, threshold)
            cdf.append(covered / total)
        result[letter] = cdf
    return result


def _count_at_most(sorted_values: List[int], threshold: int) -> int:
    import bisect

    return bisect.bisect_right(sorted_values, threshold)


def fraction_at_least(
    counts: Dict[str, Dict[str, int]], letter: str, threshold: int
) -> float:
    """Fraction of a letter's recursives sending ≥ ``threshold`` queries."""
    values = [
        per_letter[letter]
        for per_letter in counts.values()
        if letter in per_letter
    ]
    if not values:
        return 0.0
    return sum(1 for value in values if value >= threshold) / len(values)
