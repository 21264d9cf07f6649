"""Per-source filtering with imperfect detection.

Stands in for the network-side classifiers operators actually deploy
(anti-spoofing ACLs, hop-count filtering, flow classification): each
source address gets a sticky allow/block verdict the first time it is
seen. Attacker-controlled sources are caught with probability
``detection``; legitimate sources are wrongly blocked with probability
``fp_rate`` — the collateral-damage knob the defense study sweeps.

Verdicts are drawn lazily, in packet-arrival order, from a dedicated
RNG stream, so runs stay deterministic and adding the filter never
perturbs any other stream.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Set


class SourceFilter:
    """Sticky per-source allow/block decisions."""

    def __init__(
        self,
        detection: float,
        fp_rate: float,
        rng: random.Random,
    ) -> None:
        self.detection = detection
        self.fp_rate = fp_rate
        self._rng = rng
        self._attackers: Set[str] = set()
        self._verdicts: Dict[str, bool] = {}

    def mark_attackers(self, sources: Iterable[str]) -> None:
        """Register ground-truth attacker sources (the testbed knows
        which addresses the attack load minted, including spoof pools)."""
        self._attackers.update(sources)

    def blocked(self, source: str) -> bool:
        verdict = self._verdicts.get(source)
        if verdict is None:
            if source in self._attackers:
                verdict = self._rng.random() < self.detection
            else:
                verdict = self.fp_rate > 0 and self._rng.random() < self.fp_rate
            self._verdicts[source] = verdict
        return verdict

    def classified_count(self) -> int:
        return len(self._verdicts)
