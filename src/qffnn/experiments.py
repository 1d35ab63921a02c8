"""Experiment drivers behind the command-line interface.

The network experiment evaluates the 3-node line-recognition task over every
input label, in exact and/or shot-sampled form, optionally through the
readout-noise and mitigation pipeline, and emits one machine-readable results
document (JSON or CSV) plus a human summary.  One experiment simulates each
distinct node input once: the p1/p2 columns and the hybrid forward pass of
every label share one activation table.  Determinism: per-label random streams
come from (seed, label, mode), so results do not depend on evaluation order
and identical configurations produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .network import (
    DEFAULT_THRESHOLD,
    LINE_WEIGHTS,
    Activations,
    NetworkSpec,
    activation,
    coherent_exact,
    hybrid_exact,
    line_recognition_network,
    output_probability,
    sampled_counts,
)
from .neuron import BinaryVector, neuron_circuit, simulated_activation_probability
from .noise import ReadoutErrorModel, mitigate, noisy_counts
from .simulator import MAX_SHOTS, run_circuit

DEFAULT_SHOTS = 8192
MODES = ("hybrid", "coherent", "both")
EVALUATIONS = ("exact", "sampled")
FORMATS = ("json", "csv")

CSV_HEADER = [
    "label",
    "pattern",
    "p1",
    "p2",
    "p_out_hybrid",
    "p_out_coherent",
    "verdict",
    "target",
]


def pattern_string(vec: BinaryVector) -> str:
    """Flat pixel string, '#' for +1 (filled) and '.' for -1 (empty)."""
    return "".join("#" if e == 1 else "." for e in vec.entries)


def render_pattern(label: int) -> str:
    """Two-line 2x2 pixel rendering of a label in [0, 16)."""
    if not 0 <= label < 16:
        raise ValueError("label must lie in [0, 16)")
    flat = pattern_string(BinaryVector.from_label(label, 4))
    return flat[:2] + "\n" + flat[2:]


def line_labels() -> frozenset[int]:
    """Labels whose 2x2 image is one full row or one full column: the targets
    of the recognition task."""
    lines = []
    for pixels in ({0, 1}, {2, 3}, {0, 2}, {1, 3}):
        entries = tuple(1 if k in pixels else -1 for k in range(4))
        lines.append(BinaryVector(entries).label())
    return frozenset(lines)


TARGET_LABELS = line_labels()


def parse_weight(token: str, m: int | None = None) -> BinaryVector:
    """A weight given either as an integer label (length from ``m``, default 4)
    or as colon-separated entries like ``1:1:-1:-1``."""
    if ":" in token:
        return BinaryVector(tuple(int(t) for t in token.split(":")))
    return BinaryVector.from_label(int(token), m if m is not None else 4)


def parse_weights_option(option: str | None) -> tuple[BinaryVector, BinaryVector, BinaryVector]:
    """``--weights`` value: two hidden weights plus an optional output weight,
    comma separated.  Defaults to the line-recognition fixture 12,10,(1,-1)."""
    if option is None:
        return LINE_WEIGHTS
    parts = option.split(",")
    if len(parts) not in (2, 3):
        raise ValueError("--weights takes 'W1,W2' or 'W1,W2,W3'")
    w1 = parse_weight(parts[0])
    w2 = parse_weight(parts[1])
    w3 = parse_weight(parts[2], m=2) if len(parts) == 3 else LINE_WEIGHTS[2]
    if w1.m != 4 or w2.m != 4 or w3.m != 2:
        raise ValueError("network command expects 4-entry hidden weights and a 2-entry output weight")
    return w1, w2, w3


def check_run_options(
    evaluation: str, shots: int, seed: int, noise: tuple[float, float] | None, apply_mitigation: bool
) -> None:
    """Refuse shots outside 1..2**63 - 1 and a negative seed, whatever the
    evaluation, and readout options a run would ignore: noise needs sampling,
    mitigation needs noise."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"--shots must lie in 1..{MAX_SHOTS}, not {shots}")
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, not {seed}")
    if noise is not None:
        if evaluation != "sampled":
            raise ValueError("readout noise needs sampled evaluation")
        ReadoutErrorModel(*noise)  # validates the rates
    elif apply_mitigation:
        raise ValueError("mitigation needs readout noise")


@dataclass(slots=True)
class ExperimentConfig:
    mode: str = "both"
    evaluation: str = "exact"
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    noise: tuple[float, float] | None = None
    mitigate: bool = False
    # immutable, so every configuration without --weights shares these three
    weights: tuple[BinaryVector, BinaryVector, BinaryVector] = LINE_WEIGHTS
    threshold: float = DEFAULT_THRESHOLD
    format: str = "json"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.evaluation not in EVALUATIONS:
            raise ValueError(f"evaluation must be one of {EVALUATIONS}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if not 0.0 <= self.threshold <= 1.0:  # also refuses NaN
            raise ValueError(f"threshold must be a probability in [0, 1], not {self.threshold}")
        check_run_options(self.evaluation, self.shots, self.seed, self.noise, self.mitigate)

    @property
    def modes(self) -> tuple[str, ...]:
        return ("hybrid", "coherent") if self.mode == "both" else (self.mode,)

    def network(self) -> NetworkSpec:
        w1, w2, w3 = self.weights
        return line_recognition_network(w1, w2, w3)

    def echo(self) -> dict:
        return {
            "mode": self.mode,
            "evaluation": self.evaluation,
            "shots": self.shots if self.evaluation == "sampled" else None,
            "seed": self.seed,
            "noise": list(self.noise) if self.noise else None,
            "mitigate": self.mitigate,
            "weights": {
                "hidden_labels": [self.weights[0].label(), self.weights[1].label()],
                "output_entries": list(self.weights[2].entries),
            },
            "threshold": self.threshold,
            "format": self.format,
        }


def _estimate_sampled(
    counts: np.ndarray, noise: tuple[float, float] | None, apply_mitigation: bool, rng: np.random.Generator
) -> tuple[float, dict[str, int]]:
    """Output-bit estimate from a count vector, read out through the noise
    model and, when asked, mitigated; returned with the read counts keyed by
    bitstring (classical bit 0 rightmost) for the results document."""
    if noise is not None:
        model = ReadoutErrorModel(*noise)
        counts = noisy_counts(counts, model, rng)
    # check_run_options lets mitigation through only with noise
    p = output_probability(mitigate(counts, model) if apply_mitigation else counts)
    width = counts.size.bit_length() - 1
    return p, {format(k, f"0{width}b"): int(counts[k]) for k in np.flatnonzero(counts).tolist()}


def _evaluate_label(config: ExperimentConfig, net: NetworkSpec, label: int, activations: Activations) -> dict:
    w1, w2, _ = config.weights
    vec = BinaryVector.from_label(label, w1.m)
    row: dict = {
        "label": label,
        # one of 16 strings: interned, so the rows of every experiment share them
        "pattern": sys.intern(pattern_string(vec)),
        "p1": activation(activations, vec, w1),
        "p2": activation(activations, vec, w2),
        "p_out": {},
        "target": label in TARGET_LABELS,
    }
    counts: dict[str, dict[str, int]] = {}
    for mode_idx, mode in enumerate(config.modes):
        if config.evaluation == "exact":
            result = hybrid_exact(net, vec, activations=activations) if mode == "hybrid" else coherent_exact(net, vec)
            row["p_out"][mode] = result.p_out
        else:
            rng = np.random.default_rng([config.seed, label, mode_idx])
            row["p_out"][mode], counts[mode] = _estimate_sampled(
                sampled_counts(net, vec, mode, config.shots, rng), config.noise, config.mitigate, rng
            )
    if counts:
        row["counts"] = counts
    primary = config.modes[0]
    row["verdict"] = row["p_out"][primary] > config.threshold
    return row


def run_network_experiment(config: ExperimentConfig) -> tuple[dict, int]:
    """Evaluate every input label; returns (results document, exit code).
    Exit code 0 iff all verdicts match the line-recognition target set."""
    net = config.network()
    activations: Activations = {}
    rows = [_evaluate_label(config, net, label, activations) for label in range(1 << config.weights[0].m)]
    primary = config.modes[0]
    correct = sum(1 for r in rows if r["verdict"] == r["target"])
    target_p = [r["p_out"][primary] for r in rows if r["target"]]
    other_p = [r["p_out"][primary] for r in rows if not r["target"]]
    doc = {
        "config": config.echo(),
        "rows": rows,
        "summary": {
            "accuracy": correct / len(rows),
            "margin": min(target_p) - max(other_p),
        },
    }
    exit_code = 0 if correct == len(rows) else 1
    return doc, exit_code


def results_to_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in doc["rows"]:
        writer.writerow(
            [
                row["label"],
                row["pattern"],
                repr(row["p1"]),
                repr(row["p2"]),
                repr(row["p_out"]["hybrid"]) if "hybrid" in row["p_out"] else "",
                repr(row["p_out"]["coherent"]) if "coherent" in row["p_out"] else "",
                int(row["verdict"]),
                int(row["target"]),
            ]
        )
    return buf.getvalue()


def results_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def summarize_network_results(doc: dict) -> str:
    lines = ["label  pattern  p_out" + " " * 12 + "verdict  target"]
    primary = next(iter(doc["rows"][0]["p_out"]))
    for row in doc["rows"]:
        p = row["p_out"][primary]
        lines.append(
            f"{row['label']:>5}  {row['pattern']}     {p:<16.6f} {'+' if row['verdict'] else '-':>7}  {'+' if row['target'] else '-':>6}"
        )
    summary = doc["summary"]
    lines.append(f"accuracy {summary['accuracy']:.4f}  margin {summary['margin']:.6f}")
    return "\n".join(lines)


def run_neuron_experiment(
    input_vec: BinaryVector,
    weight: BinaryVector,
    evaluation: str = "exact",
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    noise: tuple[float, float] | None = None,
    apply_mitigation: bool = False,
) -> dict:
    """Single-node activation report; sampled mode also returns shot counts."""
    check_run_options(evaluation, shots, seed, noise, apply_mitigation)
    report: dict = {
        "input_label": input_vec.label(),
        "weight_label": weight.label(),
        "exact_p": simulated_activation_probability(input_vec, weight),
    }
    if evaluation == "sampled":
        rng = np.random.default_rng([seed, input_vec.label()])
        counts = run_circuit(neuron_circuit(input_vec, weight), shots, rng)
        report["p"], report["counts"] = _estimate_sampled(counts, noise, apply_mitigation, rng)
        report["shots"] = shots
    else:
        report["p"] = report["exact_p"]
    return report


def neuron_sweep(weight: BinaryVector) -> list[dict]:
    """Activation of one node against every input label (bar-plot data).
    Label L doubles as fed-forward bit pattern L: bit k set makes entry k -1."""
    rows = []
    for label in range(1 << weight.m):
        vec = BinaryVector.from_label(label, weight.m)
        rows.append(
            {
                "label": label,
                "pattern": pattern_string(vec),
                "p": simulated_activation_probability(vec, weight),
            }
        )
    return rows
