#!/usr/bin/env python3
"""Sweep readout-error rates and measure how far raw and mitigated estimates
of the network output drift from the exact values.

For each error rate the hybrid circuit is sampled for every input label, the
counts are passed through the readout channel, and the worst-case deviation
of the output estimate is recorded with and without calibration inversion.
Emits a plot-ready JSON table.

Usage:
  python scripts/run_noise_mitigation_study.py --shots 100000 --out results/noise_study.json
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qffnn.network import (
    hybrid_exact,
    line_recognition_network,
    output_probability_from_vector,
    sampled_counts,
)
from qffnn.neuron import BinaryVector
from qffnn.noise import ReadoutErrorModel, mitigate, noisy_counts


def worst_deviations(p01: float, p10: float, shots: int, seed: int) -> dict:
    net = line_recognition_network()
    model = ReadoutErrorModel(p01, p10)
    raw_worst = mitigated_worst = 0.0
    for label in range(16):
        vec = BinaryVector.from_label(label, 4)
        exact = hybrid_exact(net, vec).p_out
        rng = np.random.default_rng([seed, label])
        counts = noisy_counts(sampled_counts(net, vec, "hybrid", shots, rng), model, rng)
        raw_worst = max(raw_worst, abs(counts.marginal_probability(0) - exact))
        corrected = output_probability_from_vector(mitigate(counts, model))
        mitigated_worst = max(mitigated_worst, abs(corrected - exact))
    return {
        "p01": p01,
        "p10": p10,
        "worst_raw_error": raw_worst,
        "worst_mitigated_error": mitigated_worst,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/noise_study.json")
    args = parser.parse_args()

    rows = []
    for p01, p10 in ((0.01, 0.01), (0.02, 0.015), (0.05, 0.03), (0.1, 0.03), (0.1, 0.1)):
        row = worst_deviations(p01, p10, args.shots, args.seed)
        rows.append(row)
        print(
            f"p01={row['p01']:<5} p10={row['p10']:<5} "
            f"raw worst {row['worst_raw_error']:.4f}  mitigated worst {row['worst_mitigated_error']:.4f}"
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"shots": args.shots, "seed": args.seed, "rows": rows}, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
