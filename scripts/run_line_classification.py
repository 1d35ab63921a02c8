#!/usr/bin/env python3
"""Reproduce the 2x2 line-recognition experiment end to end.

Runs the 3-node network over all 16 input patterns four ways (hybrid and
coherent, exact and shot-sampled), writes one JSON document per run into the
results directory, and prints a combined table.  Fixed seed, so repeated
invocations produce identical files.

Usage:
  python scripts/run_line_classification.py
  python scripts/run_line_classification.py --shots 16384 --seed 7 --results-dir results
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qffnn.experiments import (
    DEFAULT_SHOTS,
    ExperimentConfig,
    results_to_json,
    run_network_experiment,
    summarize_network_results,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--results-dir", default="results")
    args = parser.parse_args()

    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)

    worst_exit = 0
    combined: dict[str, float] = {}
    for evaluation in ("exact", "sampled"):
        config = ExperimentConfig(
            mode="both", evaluation=evaluation, shots=args.shots, seed=args.seed
        )
        doc, exit_code = run_network_experiment(config)
        worst_exit = max(worst_exit, exit_code)
        path = results_dir / f"line_classification_{evaluation}.json"
        path.write_text(results_to_json(doc))
        print(f"== {evaluation} ==")
        print(summarize_network_results(doc))
        print(f"wrote {path}\n")
        for row in doc["rows"]:
            for mode, p in row["p_out"].items():
                combined[f"{row['label']}/{mode}/{evaluation}"] = p

    (results_dir / "line_classification_combined.json").write_text(
        json.dumps(combined, indent=2) + "\n"
    )
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
