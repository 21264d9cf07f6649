#!/usr/bin/env python3
"""Put error bars on a reproduced claim by replicating across seeds.

The paper reports single measurement campaigns; a simulator can rerun
the world. This example replicates Experiment H (90% loss, 30-minute
TTL) across several seeds and reports mean, standard deviation, and a
95% confidence interval for the attack-window failure fraction and the
authoritative load multiplier — then checks whether the paper's numbers
fall inside the intervals.

Run:  python examples/replication_confidence.py
"""

from repro.analysis.scoreboard import CELL
from repro.analysis.stats import run_over_seeds
from repro.core.experiments import DDOS_EXPERIMENTS, run_ddos

SEEDS = (11, 23, 37, 41, 53)


def main() -> None:
    spec = DDOS_EXPERIMENTS["H"]
    print(f"{spec.describe()}")
    print(f"replicating across seeds {SEEDS} at 250 probes each...\n")

    sweeps = run_over_seeds(
        lambda seed: run_ddos(spec, probe_count=250, seed=seed),
        {
            "failure fraction (attack window)": (
                lambda result: result.failure_fraction_during_attack()
            ),
            "authoritative amplification": (
                lambda result: result.amplification()
            ),
        },
        seeds=SEEDS,
    )

    targets = {
        "failure fraction (attack window)": CELL["table4.H.failure"].value,
        "authoritative amplification": CELL["fig10.H.amplification"].value,
    }
    for name, sweep in sweeps.items():
        low, high = sweep.ci95
        paper = targets[name]
        verdict = "inside" if sweep.contains(paper) else "outside"
        print(f"{name}:")
        print(f"  mean {sweep.mean:.3f} ± {sweep.std:.3f} (std)")
        print(f"  95% CI [{low:.3f}, {high:.3f}]")
        print(f"  paper value {paper:.3f} falls {verdict} the interval\n")


if __name__ == "__main__":
    main()
