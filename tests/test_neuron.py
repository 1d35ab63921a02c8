"""Perceptron node tests: labels, REW encoding, sign-flip synthesis, the
input/weight circuit fragments, and the activation law."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qffnn.neuron import (
    BinaryVector,
    NeuronSpec,
    activation_probability,
    hypergraph_sign_synthesis,
    input_preparation_ops,
    neuron_circuit,
    node_ops,
    simulated_activation_probability,
    weight_transform_ops,
)
from qffnn.simulator import Circuit, GateOp, h, run_circuit, simulate_state, z
from reference import marginal_probabilities, rew_amplitudes, run_gates

ATOL = 1e-12

sign_vectors = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.sampled_from((-1, 1)), min_size=1 << n, max_size=1 << n)
)


def uniform_state(num_qubits: int) -> np.ndarray:
    return rew_amplitudes([1] * (1 << num_qubits))


def prepared_state(vec: BinaryVector) -> np.ndarray:
    return simulate_state(Circuit(vec.num_qubits).extend(input_preparation_ops(vec)))


# ---------------------------------------------------------------------------
# vectors and labels


def test_label_to_vector_uses_bit_k_for_entry_k():
    assert BinaryVector.from_label(10, 4).entries == (1, -1, 1, -1)
    assert BinaryVector.from_label(12, 4).entries == (1, 1, -1, -1)
    assert BinaryVector.from_label(0, 4).entries == (1, 1, 1, 1)


@given(st.integers(0, 255))
def test_label_roundtrip(label):
    assert BinaryVector.from_label(label, 8).label() == label


def test_vector_keeps_a_tuple_of_ints_and_converts_the_rest():
    # the vector stores its label bitmask, not the tuple: at m = 4096 that is 32 KB
    entries = tuple([1, -1, -1, 1])
    vec = BinaryVector(entries)
    assert not any(isinstance(r, BinaryVector) for r in gc.get_referrers(entries))
    assert vec.entries == entries and BinaryVector(vec.entries) == vec
    converted = BinaryVector((True, -1)).entries
    assert converted == (1, -1) and all(type(e) is int for e in converted)
    converted = BinaryVector(tuple(np.array([-1, 1]))).entries
    assert converted == (-1, 1) and all(type(e) is int for e in converted)
    assert BinaryVector([1, -1]).entries == (1, -1)


def test_vector_validation():
    with pytest.raises(ValueError):
        BinaryVector((1, 0, 1, 1))
    with pytest.raises(ValueError, match="integers"):
        BinaryVector((1.5, -1.9))
    with pytest.raises(ValueError, match="integers"):
        BinaryVector(["1", "-1"])
    with pytest.raises(ValueError):
        BinaryVector((1, -1, 1))
    with pytest.raises(ValueError):
        BinaryVector.from_label(16, 4)


# ---------------------------------------------------------------------------
# REW states


def test_rew_state_of_all_plus_is_uniform():
    vec = BinaryVector.from_label(0, 4)
    assert np.allclose(rew_amplitudes(vec.entries), 0.5, atol=ATOL)
    assert np.allclose(prepared_state(vec), 0.5, atol=ATOL)


def test_rew_state_of_label_10():
    vec = BinaryVector.from_label(10, 4)
    assert np.allclose(rew_amplitudes(vec.entries), [0.5, -0.5, 0.5, -0.5], atol=ATOL)
    assert np.allclose(prepared_state(vec), [0.5, -0.5, 0.5, -0.5], atol=ATOL)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rew_overlap_equals_normalized_dot_product(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.choice([2, 4, 8]))
    a = BinaryVector.from_label(int(rng.integers(1 << m)), m)
    b = BinaryVector.from_label(int(rng.integers(1 << m)), m)
    overlap = np.vdot(rew_amplitudes(b.entries), rew_amplitudes(a.entries))
    assert abs(overlap - a.dot(b) / m) < ATOL


# ---------------------------------------------------------------------------
# sign-flip synthesis


def test_synthesis_of_all_plus_is_empty():
    gates, sign = hypergraph_sign_synthesis(BinaryVector.from_label(0, 4))
    assert gates == [] and sign == 1


def test_synthesis_single_cz_case():
    gates, sign = hypergraph_sign_synthesis(BinaryVector((1, 1, 1, -1)))
    assert sign == 1
    assert [(g.kind, g.targets) for g in gates] == [("CZ", (0, 1))]


def test_synthesis_negated_leading_entry():
    gates, sign = hypergraph_sign_synthesis(BinaryVector((-1, 1, 1, 1)))
    assert sign == -1
    assert [(g.kind, g.targets) for g in gates] == [("Z", (0,)), ("Z", (1,)), ("CZ", (0, 1))]


def greedy_sign_synthesis(vec: BinaryVector) -> tuple[list, int]:
    """Reference HSGS: scan indices by increasing Hamming weight and flip
    every index containing j whenever the tracked sign at j is wrong."""
    target = list(vec.entries)
    global_sign = 1
    if target[0] == -1:
        global_sign = -1
        target = [-t for t in target]
    m = len(target)
    current = [1] * m
    gates = []
    for j in sorted(range(1, m), key=lambda idx: (bin(idx).count("1"), idx)):
        if current[j] == target[j]:
            continue
        qubits = tuple(k for k in range(vec.num_qubits) if (j >> k) & 1)
        if len(qubits) == 1:
            gates.append(z(qubits[0]))
        else:
            gates.append(GateOp("CZ" if len(qubits) == 2 else "MCZ", qubits))
        for idx in range(m):
            if idx & j == j:
                current[idx] = -current[idx]
    return gates, global_sign


@pytest.mark.parametrize("m", [2, 4, 8])
def test_synthesis_matches_greedy_reference_on_every_vector(m):
    for label in range(1 << m):
        vec = BinaryVector.from_label(label, m)
        assert hypergraph_sign_synthesis(vec) == greedy_sign_synthesis(vec)


@pytest.mark.parametrize("m", [16, 32, 64, 128, 256, 512, 1024, 4096])
def test_synthesis_matches_greedy_reference_on_random_vectors(m):
    rng = np.random.default_rng(m)
    for _ in range(1 if m == 4096 else 3):
        vec = BinaryVector(tuple(int(v) for v in rng.choice((-1, 1), size=m)))
        gates, sign = hypergraph_sign_synthesis(vec)
        assert (gates, sign) == greedy_sign_synthesis(vec)
        assert len(gates) <= m - 1


@pytest.mark.parametrize("num_qubits", [2, 3])
def test_synthesis_exhaustive(num_qubits):
    m = 1 << num_qubits
    for label in range(1 << m):
        vec = BinaryVector.from_label(label, m)
        gates, sign = hypergraph_sign_synthesis(vec)
        assert len(gates) <= m - 1
        prepared = run_gates(gates, uniform_state(num_qubits))
        assert np.allclose(prepared, sign * rew_amplitudes(vec.entries), atol=ATOL)


def hsgs_state(vec: BinaryVector) -> np.ndarray:
    gates, sign = hypergraph_sign_synthesis(vec)
    n = vec.num_qubits
    return sign * simulate_state(Circuit(n).extend([h(q) for q in range(n)] + gates))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_folded_synthesis_gives_the_rew_state_of_every_vector(m):
    for label in range(1 << m):
        vec = BinaryVector.from_label(label, m)
        assert np.abs(hsgs_state(vec) - rew_amplitudes(vec.entries)).max() <= ATOL


@pytest.mark.parametrize("m", [16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_folded_synthesis_gives_the_rew_state_of_random_vectors(m):
    rng = np.random.default_rng(m)
    for _ in range(3):
        vec = BinaryVector(rng.choice((-1, 1), size=m))
        assert np.abs(hsgs_state(vec) - rew_amplitudes(vec.entries)).max() <= ATOL


def test_synthesis_emits_on_the_given_qubits():
    vec = BinaryVector.from_label(0b0110_1001_1001_0110, 16)
    local, sign = hypergraph_sign_synthesis(vec)
    placed, placed_sign = hypergraph_sign_synthesis(vec, (5, 2, 7, 0))
    assert placed_sign == sign and [g.kind for g in placed] == [g.kind for g in local]
    assert [g.participants for g in placed] == [
        tuple(sorted((5, 2, 7, 0)[q] for q in g.participants)) for g in local
    ]
    with pytest.raises(ValueError):
        hypergraph_sign_synthesis(vec, (0, 1, 2))


@settings(max_examples=60, deadline=None)
@given(entries=sign_vectors)
def test_synthesis_double_application_restores_uniform(entries):
    vec = BinaryVector(tuple(entries))
    gates, _ = hypergraph_sign_synthesis(vec)
    state = run_gates(gates + gates, uniform_state(vec.num_qubits))
    assert np.allclose(state, uniform_state(vec.num_qubits), atol=ATOL)


# ---------------------------------------------------------------------------
# input preparation and weight transform


def test_input_preparation_of_label_0_is_hadamards_only():
    ops = input_preparation_ops(BinaryVector.from_label(0, 4))
    assert [op.kind for op in ops] == ["H", "H"]


def test_input_preparation_of_label_12_amplitudes():
    state = prepared_state(BinaryVector.from_label(12, 4))
    assert np.allclose(state, [0.5, 0.5, -0.5, -0.5], atol=ATOL)


def test_input_preparation_matches_rew_for_every_label():
    for label in range(16):
        vec = BinaryVector.from_label(label, 4)
        overlap = np.vdot(prepared_state(vec), rew_amplitudes(vec.entries))
        assert abs(abs(overlap) - 1.0) < ATOL


def test_weight_transform_of_label_0():
    ops = weight_transform_ops(BinaryVector.from_label(0, 4))
    assert [op.kind for op in ops] == ["H", "H", "X", "X"]
    state = run_gates(ops, uniform_state(2))
    assert abs(abs(state[3]) - 1.0) < ATOL


@pytest.mark.parametrize("label", range(16))
def test_weight_transform_maps_weight_state_to_all_ones(label):
    vec = BinaryVector.from_label(label, 4)
    state = run_gates(weight_transform_ops(vec), rew_amplitudes(vec.entries))
    assert abs(abs(state[3]) - 1.0) < ATOL


def test_single_qubit_weight_transform_shrinks_to_h():
    assert [op.kind for op in weight_transform_ops(BinaryVector((1, -1)))] == ["H"]
    assert [op.kind for op in weight_transform_ops(BinaryVector((-1, 1)))] == ["H"]
    assert [op.kind for op in weight_transform_ops(BinaryVector((1, 1)))] == ["H", "X"]
    for entries in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        vec = BinaryVector(entries)
        state = run_gates(weight_transform_ops(vec), rew_amplitudes(vec.entries))
        assert abs(abs(state[1]) - 1.0) < ATOL


# ---------------------------------------------------------------------------
# activation


def neuron_ancilla_probability(input_label: int, weight_label: int, m: int = 4) -> float:
    input_vec = BinaryVector.from_label(input_label, m)
    weight_vec = BinaryVector.from_label(weight_label, m)
    n = input_vec.num_qubits
    circuit = Circuit(n + 1)
    circuit.extend(node_ops(input_vec, NeuronSpec(weight_vec, tuple(range(n)), n)))
    return float(marginal_probabilities(simulate_state(circuit), [n])[1])


def test_activation_is_one_for_matching_vectors():
    assert abs(neuron_ancilla_probability(12, 12) - 1.0) < ATOL


def test_activation_is_zero_for_orthogonal_vectors():
    assert abs(neuron_ancilla_probability(12, 10)) < ATOL


def test_activation_quarter_for_two_entry_overlap():
    assert abs(neuron_ancilla_probability(8, 12) - 0.25) < ATOL


def test_oracle_values():
    w12 = BinaryVector.from_label(12, 4)
    assert activation_probability(w12, w12) == 1.0
    assert activation_probability(w12.negated(), w12) == 1.0
    assert activation_probability(BinaryVector.from_label(1, 4), w12) == 0.25


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_activation_sign_symmetry(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.choice([2, 4, 8]))
    a = BinaryVector.from_label(int(rng.integers(1 << m)), m)
    b = BinaryVector.from_label(int(rng.integers(1 << m)), m)
    p = activation_probability(a, b)
    assert activation_probability(a.negated(), b) == p
    assert activation_probability(a, b.negated()) == p


def test_circuit_matches_oracle_for_all_pairs_m4():
    for input_label in range(16):
        for weight_label in range(16):
            expected = activation_probability(
                BinaryVector.from_label(input_label, 4), BinaryVector.from_label(weight_label, 4)
            )
            assert abs(neuron_ancilla_probability(input_label, weight_label) - expected) < ATOL


def test_circuit_matches_oracle_spot_checks_m8():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        i_label = int(rng.integers(1 << 8))
        w_label = int(rng.integers(1 << 8))
        expected = activation_probability(
            BinaryVector.from_label(i_label, 8), BinaryVector.from_label(w_label, 8)
        )
        assert abs(neuron_ancilla_probability(i_label, w_label, m=8) - expected) < ATOL


def test_simulated_activation_agrees_with_ancilla_route():
    for input_label, weight_label in ((3, 12), (7, 5), (9, 10)):
        direct = simulated_activation_probability(
            BinaryVector.from_label(input_label, 4), BinaryVector.from_label(weight_label, 4)
        )
        assert abs(direct - neuron_ancilla_probability(input_label, weight_label)) < ATOL


def test_neuron_circuit_sampling():
    vec = BinaryVector.from_label(3, 4)
    w = BinaryVector.from_label(12, 4)
    counts = run_circuit(neuron_circuit(vec, w), 10_000, np.random.default_rng(1))
    assert counts.counts == {"1": 10_000}  # opposite vectors still activate fully


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        activation_probability(BinaryVector.from_label(0, 4), BinaryVector.from_label(0, 2))
    with pytest.raises(ValueError):
        NeuronSpec(BinaryVector.from_label(0, 4), (0,), 1)
    with pytest.raises(ValueError):
        NeuronSpec(BinaryVector.from_label(0, 4), (0, 1), 1)


@pytest.mark.parametrize(
    "qubits,ancilla,message",
    [
        ((-1, 0), 2, r"negative encoding qubit in \(-1, 0\)"),
        ((0, 1), -4, "negative ancilla qubit -4"),
    ],
    ids=["qubits", "ancilla"],
)
def test_neuron_spec_refuses_negative_qubits(qubits, ancilla, message):
    with pytest.raises(ValueError, match=message):
        NeuronSpec(BinaryVector.from_label(12, 4), qubits, ancilla)
