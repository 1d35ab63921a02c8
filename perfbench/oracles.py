"""Closed-form correctness oracles for the benchmark workloads.

Every oracle here works on plain tuples of +-1 entries and computes the
expected result from the closed form (i.w/m)**2 of a perceptron node, without
calling into qffnn.  Each ``check_*`` function returns a list of failure
messages; an empty list means the result passed.

Conventions shared with the program: a length-m sign vector is identified
with the label whose bit k is set for entry -1, and a measured bit b feeds the
next layer as entry +1 for b = 0 and -1 for b = 1.
"""

from __future__ import annotations

from itertools import product
from math import erfc, exp, pi, sqrt

import numpy as np

EXACT_TOL = 1e-12
SIGMAS = 5.0

Vector = tuple[int, ...]


def closed_form(i: Vector, w: Vector) -> float:
    """Activation (i.w/m)**2 of one node."""
    d = sum(a * b for a, b in zip(i, w, strict=True))
    return (d * d) / (len(i) * len(i))


def vector_from_label(label: int, m: int) -> Vector:
    return tuple(-1 if (label >> k) & 1 else 1 for k in range(m))


def fed_forward(bits: tuple[int, ...]) -> Vector:
    return tuple(1 if b == 0 else -1 for b in bits)


def line_law(i: Vector, w1: Vector, w2: Vector, w_out: Vector) -> np.ndarray:
    """Exact law of the three classical bits of the line network's hybrid
    circuit, indexed by out + 2*h1 + 4*h2 (classical bit 0 is the output)."""
    p1, p2 = closed_form(i, w1), closed_form(i, w2)
    law = np.zeros(8)
    for h1, h2 in product((0, 1), repeat=2):
        weight = (p1 if h1 else 1.0 - p1) * (p2 if h2 else 1.0 - p2)
        p_out = closed_form(fed_forward((h1, h2)), w_out)
        law[2 * h1 + 4 * h2 + 1] = weight * p_out
        law[2 * h1 + 4 * h2] = weight * (1.0 - p_out)
    return law


def output_marginal(law: np.ndarray) -> float:
    return float(law[1::2].sum())


def mitigated_tolerance(law: np.ndarray, p01: float, p10: float, shots: int) -> float:
    """Five standard deviations of a mitigated output estimate, derived from
    the exact law, the readout rates and the shot count alone.

    The mitigated vector is v = C^-1 f, where f is the multinomial frequency
    vector of the noisy patterns and C the tensored confusion matrix, so v
    has mean ``law`` and covariance C^-1 cov(f) C^-T.  Its output marginal
    has the standard deviation s_out of the matching linear form.  Clipping
    the negative entries of v and renormalizing moves the marginal by at most
    the clipped mass, whose mean, for entries distributed N(law_j, s_j**2),
    is c = sum_j [s_j phi(law_j/s_j) - law_j Phi(-law_j/s_j)].  The
    tolerance is 5 * (s_out + c).
    """
    bits = law.size.bit_length() - 1
    single = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
    cal = np.ones((1, 1))
    for _ in range(bits):
        cal = np.kron(cal, single)
    noisy = cal @ law
    cov_f = (np.diag(noisy) - np.outer(noisy, noisy)) / shots
    inv = np.linalg.inv(cal)
    cov_v = inv @ cov_f @ inv.T
    out = (np.arange(law.size) & 1).astype(float)
    s_out = float(np.sqrt(max(out @ cov_v @ out, 0.0)))
    clipped = 0.0
    for mean, var in zip(law, np.diag(cov_v)):
        if var > 0.0:
            s = sqrt(var)
            z = mean / s
            clipped += s * exp(-z * z / 2) / sqrt(2 * pi) - mean * 0.5 * erfc(z / sqrt(2))
    return SIGMAS * (s_out + clipped)


def deep_output_probability(
    inp: Vector, layers: list[list[Vector]], synapses: list[list[tuple[int, ...]]]
) -> float:
    """Output activation of a layered network by brute force over the joint
    bit pattern of every non-output layer, breadth first, closed form per node.
    ``synapses[l][j]`` lists the layer-l feeders of node j of layer l+1."""
    cache: dict[tuple[Vector, Vector], float] = {}

    def act(i: Vector, w: Vector) -> float:
        key = (i, w)
        if key not in cache:
            cache[key] = closed_form(i, w)
        return cache[key]

    states = [(1.0, [inp] * len(layers[0]))]
    for layer_idx in range(len(layers) - 1):
        expanded = []
        for prob, inputs in states:
            ps = [act(i, w) for i, w in zip(inputs, layers[layer_idx])]
            for bits in product((0, 1), repeat=len(ps)):
                weight = prob
                for p, b in zip(ps, bits):
                    weight *= p if b else 1.0 - p
                nxt = [fed_forward(tuple(bits[f] for f in feeders)) for feeders in synapses[layer_idx]]
                expanded.append((weight, nxt))
        states = expanded
    (w_out,) = layers[-1]
    return sum(prob * act(inputs[0], w_out) for prob, inputs in states)


def _near(what: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, expected {want!r} within {tol:g}"]


def check_line_exact(weights: tuple[Vector, Vector, Vector], doc: dict, exit_code: int) -> list[str]:
    """Every row's p1, p2 and hybrid and coherent p_out equal the closed form
    within 1e-12, all 16 labels are present, and the exit code is 0."""
    w1, w2, w_out = weights
    errors = [] if exit_code == 0 else [f"exit code {exit_code}"]
    rows = {row["label"]: row for row in doc["rows"]}
    if sorted(rows) != list(range(16)):
        return errors + [f"labels {sorted(rows)} are not 0..15"]
    for label, row in rows.items():
        i = vector_from_label(label, 4)
        law = line_law(i, w1, w2, w_out)
        errors += _near(f"label {label} p1", row["p1"], closed_form(i, w1), EXACT_TOL)
        errors += _near(f"label {label} p2", row["p2"], closed_form(i, w2), EXACT_TOL)
        for mode in ("hybrid", "coherent"):
            errors += _near(f"label {label} {mode}", row["p_out"][mode], output_marginal(law), EXACT_TOL)
    return errors


def check_line_sampled(
    weights: tuple[Vector, Vector, Vector],
    noise: tuple[float, float],
    shots: int,
    doc: dict,
    exit_code: int,
) -> list[str]:
    """Every mitigated p_out lies within five derived standard deviations of
    the exact value (see ``mitigated_tolerance``), the exact p1 and p2 match
    the closed form, and the exit code is 0."""
    w1, w2, w_out = weights
    p01, p10 = noise
    errors = [] if exit_code == 0 else [f"exit code {exit_code}"]
    rows = {row["label"]: row for row in doc["rows"]}
    if sorted(rows) != list(range(16)):
        return errors + [f"labels {sorted(rows)} are not 0..15"]
    for label, row in rows.items():
        i = vector_from_label(label, 4)
        law = line_law(i, w1, w2, w_out)
        p = output_marginal(law)
        errors += _near(f"label {label} p1", row["p1"], closed_form(i, w1), EXACT_TOL)
        errors += _near(f"label {label} p2", row["p2"], closed_form(i, w2), EXACT_TOL)
        # the coherent circuit measures only the output bit
        coherent_law = np.array([1.0 - p, p])
        for mode, mode_law in (("hybrid", law), ("coherent", coherent_law)):
            tol = mitigated_tolerance(mode_law, p01, p10, shots)
            errors += _near(f"label {label} {mode}", row["p_out"][mode], p, tol)
    return errors


def check_wide_node(i: Vector, w: Vector, report: dict) -> list[str]:
    """The node's reported activation equals (i.w/m)**2 within 1e-12."""
    return _near("p", report["p"], closed_form(i, w), EXACT_TOL)


def check_deep(
    inp: Vector, layers: list[list[Vector]], synapses: list[list[tuple[int, ...]]], p_out: float
) -> list[str]:
    """The network output equals the brute-force closed form within 1e-12."""
    return _near("p_out", p_out, deep_output_probability(inp, layers, synapses), EXACT_TOL)
