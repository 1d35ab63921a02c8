"""Acceptance suite for the line-recognition build.

Each test implements one exit criterion at its stated tolerance and prints a
single pass line on success (visible with ``pytest -s`` or ``-rA``).  The
hardware bars of the original experiment are not reproducible at desk scale;
criteria 9 and 10 stand in with shot statistics and the synthetic
noise/mitigation round trip.
"""

import time
from itertools import product

import numpy as np

from qffnn.network import (
    build_hybrid_circuit,
    coherent_exact,
    feedforward_input,
    hybrid_exact,
    line_recognition_network,
    output_probability,
    sampled_counts,
)
from qffnn.neuron import (
    BinaryVector,
    activation_probability,
    hypergraph_sign_synthesis,
    simulated_activation_probability,
    weight_transform_ops,
)
from qffnn.noise import ReadoutErrorModel, mitigate, noisy_counts
from qffnn.simulator import run_circuit
from reference import rew_amplitudes, run_gates

ATOL = 1e-12
NET = line_recognition_network()
TARGETS = (3, 5, 10, 12)
NON_TARGETS = tuple(sorted(set(range(16)) - set(TARGETS)))
ZERO_LABELS = (0, 6, 9, 15)


def _passed(criterion: int, message: str) -> None:
    print(f"criterion {criterion:02d} PASS: {message}")


def _exact_pair(label: int) -> tuple[float, float]:
    vec = BinaryVector.from_label(label, 4)
    return hybrid_exact(NET, vec).p_out, coherent_exact(NET, vec).p_out


def test_criterion_01_targets_fully_activate():
    start = time.perf_counter()
    for label in TARGETS:
        hy, co = _exact_pair(label)
        assert abs(hy - 1.0) < ATOL, (label, hy)
        assert abs(co - 1.0) < ATOL, (label, co)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"all four line patterns reach p_out = 1 in both modes ({elapsed:.2f}s)")


def test_criterion_02_non_targets_rejected():
    start = time.perf_counter()
    for label in NON_TARGETS:
        expected = 0.0 if label in ZERO_LABELS else 0.375
        hy, co = _exact_pair(label)
        assert abs(hy - expected) < ATOL, (label, hy)
        assert abs(co - expected) < ATOL, (label, co)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(2, f"all 12 non-line patterns give 0 or 0.375 ({elapsed:.2f}s)")


def test_criterion_03_hybrid_coherent_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    nets = [NET] + [
        line_recognition_network(
            BinaryVector.from_label(int(rng.integers(16)), 4),
            BinaryVector.from_label(int(rng.integers(16)), 4),
        )
        for _ in range(50)
    ]
    for net in nets:
        for label in range(16):
            vec = BinaryVector.from_label(label, 4)
            worst = max(worst, abs(hybrid_exact(net, vec).p_out - coherent_exact(net, vec).p_out))
    elapsed = time.perf_counter() - start
    assert worst < ATOL
    assert elapsed < 10.0
    _passed(3, f"max |hybrid - coherent| = {worst:.2e} over 51 weight pairs x 16 labels ({elapsed:.2f}s)")


def test_criterion_04_single_node_circuit_matches_oracle():
    start = time.perf_counter()
    worst = 0.0
    for i_label, w_label in product(range(16), range(16)):
        i, w = BinaryVector.from_label(i_label, 4), BinaryVector.from_label(w_label, 4)
        worst = max(worst, abs(simulated_activation_probability(i, w) - activation_probability(i, w)))
    rng = np.random.default_rng(271828)
    for _ in range(50):
        i = BinaryVector.from_label(int(rng.integers(1 << 8)), 8)
        w = BinaryVector.from_label(int(rng.integers(1 << 8)), 8)
        worst = max(worst, abs(simulated_activation_probability(i, w) - activation_probability(i, w)))
    elapsed = time.perf_counter() - start
    assert worst < ATOL
    assert elapsed < 10.0
    _passed(4, f"max |circuit - (i.w/m)^2| = {worst:.2e} over 306 pairs ({elapsed:.2f}s)")


def test_criterion_05_sign_synthesis_exhaustive():
    start = time.perf_counter()
    for num_qubits in (2, 3):
        m = 1 << num_qubits
        uniform = rew_amplitudes([1] * m)
        for label in range(1 << m):
            vec = BinaryVector.from_label(label, m)
            gates, sign = hypergraph_sign_synthesis(vec)
            assert len(gates) <= m - 1
            state = run_gates(gates, uniform)
            assert np.allclose(state, sign * rew_amplitudes(vec.entries), atol=ATOL)
            assert abs(abs(np.vdot(state, rew_amplitudes(vec.entries))) - 1.0) < ATOL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(5, f"sign synthesis exact for all 16 + 256 vectors, gate count <= m-1 ({elapsed:.2f}s)")


def test_criterion_06_weight_transform_constraint():
    start = time.perf_counter()
    for label in range(16):
        vec = BinaryVector.from_label(label, 4)
        state = run_gates(weight_transform_ops(vec), rew_amplitudes(vec.entries))
        assert abs(abs(state[3]) - 1.0) < ATOL, label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(6, f"weight transform sends every weight state onto |11> ({elapsed:.2f}s)")


def test_criterion_07_conditional_output_law_is_xor():
    w_out = NET.output_neuron.weight
    for b1, b2 in product((0, 1), repeat=2):
        fed = feedforward_input((b1, b2))
        assert activation_probability(fed, w_out) == float(b1 ^ b2)
        assert abs(simulated_activation_probability(fed, w_out) - float(b1 ^ b2)) < ATOL
    _passed(7, "p(out=1 | b1,b2) equals b1 XOR b2 for all four patterns")


def test_criterion_08_no_single_node_solves_the_task():
    for w_label in range(16):
        w = BinaryVector.from_label(w_label, 4)
        worst_target = min(activation_probability(BinaryVector.from_label(t, 4), w) for t in TARGETS)
        assert worst_target <= 0.25 < 0.5, w_label
    _passed(8, "every candidate weight fails at least one line pattern (min p <= 0.25)")


def test_criterion_09_sampled_statistics_and_verdicts():
    start = time.perf_counter()
    shots = 8192
    for label in range(16):
        vec = BinaryVector.from_label(label, 4)
        exact = hybrid_exact(NET, vec).p_out
        counts = run_circuit(build_hybrid_circuit(NET, vec), shots, np.random.default_rng([2718, label]))
        freq = output_probability(counts)
        sigma = np.sqrt(max(exact * (1.0 - exact), 0.0) / shots)
        assert abs(freq - exact) <= 5 * sigma + 1e-9, (label, freq, exact)
        assert (freq > 0.5) == (label in TARGETS), label
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(9, f"8192-shot estimates within 5 sigma, all 16 verdicts correct ({elapsed:.2f}s)")


def test_criterion_10_noise_mitigation_round_trip():
    shots = 100_000
    model = ReadoutErrorModel(0.05, 0.03)
    for label in range(16):
        vec = BinaryVector.from_label(label, 4)
        exact = hybrid_exact(NET, vec).p_out
        rng = np.random.default_rng([1618, label])
        counts = noisy_counts(sampled_counts(NET, vec, "hybrid", shots, rng), model, rng)
        mitigated = output_probability(mitigate(counts, model))
        assert abs(mitigated - exact) < 0.02, (label, mitigated, exact)
        assert (mitigated > 0.5) == (label in TARGETS), label

    harsh = ReadoutErrorModel(0.1, 0.03)
    deviations = []
    for label in range(16):
        vec = BinaryVector.from_label(label, 4)
        exact = hybrid_exact(NET, vec).p_out
        rng = np.random.default_rng([1618, label])
        counts = noisy_counts(sampled_counts(NET, vec, "hybrid", shots, rng), harsh, rng)
        deviations.append(abs(output_probability(counts) - exact))
    assert max(deviations) > 0.02
    _passed(10, f"mitigation recovers p_out within 0.02; raw noise off by up to {max(deviations):.3f}")
