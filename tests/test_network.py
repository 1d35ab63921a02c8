"""Network-level tests: feed-forward wiring, hybrid and coherent executors,
their equivalence, and the line-recognition fixture."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qffnn.experiments import ExperimentConfig, run_network_experiment
from qffnn.network import (
    LayerSpec,
    NetworkSpec,
    UnsupportedTopology,
    build_hybrid_circuit,
    coherent_exact,
    coherent_measured_circuit,
    feedforward_input,
    hybrid_exact,
    line_recognition_network,
    mode_circuit,
    output_probability,
    sampled_counts,
)
from qffnn.neuron import (
    BinaryVector,
    NeuronSpec,
    hypergraph_sign_synthesis,
    neuron_circuit,
    node_ops,
    simulated_activation_probability,
)
from qffnn.simulator import (
    LAW_ATOL,
    MAX_BRANCHES,
    MAX_QUBITS,
    Circuit,
    GateOp,
    clamp_probability,
    reduced_density_matrix,
    run_circuit_exact,
    simulate_state,
)
from reference import activation_probability, marginal_probabilities

ATOL = 1e-12
NET = line_recognition_network()
TARGETS = {3, 5, 10, 12}


def label(n: int, m: int = 4) -> BinaryVector:
    return BinaryVector.from_label(n, m)


# ---------------------------------------------------------------------------
# feed-forward input construction


@pytest.mark.parametrize(
    "bits,expected",
    [((0, 0), (1, 1)), ((0, 1), (1, -1)), ((1, 0), (-1, 1)), ((1, 1), (-1, -1))],
)
def test_feedforward_input_table(bits, expected):
    assert feedforward_input(bits).entries == expected


# ---------------------------------------------------------------------------
# hidden layer law


def hidden_law(n: int) -> dict[tuple[int, int], float]:
    """Law of the hidden bits (clbits 1 and 2, keyed in node order) of the
    combined circuit on input n; outcomes of probability 0 are absent."""
    table: dict[tuple[int, int], float] = {}
    law = run_circuit_exact(build_hybrid_circuit(NET, label(n)))
    for pattern in np.flatnonzero(law).tolist():
        bits = ((pattern >> 1) & 1, (pattern >> 2) & 1)
        table[bits] = table.get(bits, 0.0) + law[pattern]
    return table


def test_hidden_distribution_concentrates_for_deterministic_nodes():
    table = hidden_law(12)
    assert abs(table.get((1, 0), 0.0) - 1.0) < ATOL
    assert all(abs(p) < ATOL for bits, p in table.items() if bits != (1, 0))


def test_hidden_distribution_of_label_1():
    table = hidden_law(1)
    assert abs(table.get((0, 0), 0.0) - 0.5625) < ATOL
    assert abs(table.get((0, 1), 0.0) - 0.1875) < ATOL
    assert abs(table.get((1, 0), 0.0) - 0.1875) < ATOL
    assert abs(table.get((1, 1), 0.0) - 0.0625) < ATOL


def test_hidden_distribution_normalized_for_every_input():
    for n in range(16):
        assert abs(sum(hidden_law(n).values()) - 1.0) < ATOL


# ---------------------------------------------------------------------------
# exact executors


@pytest.mark.parametrize("n,expected", [(12, 1.0), (0, 0.0), (13, 0.375)])
def test_hybrid_exact_values(n, expected):
    assert abs(hybrid_exact(NET, label(n)).p_out - expected) < ATOL


@pytest.mark.parametrize("n,expected", [(10, 1.0), (15, 0.0), (8, 0.375)])
def test_coherent_exact_values(n, expected):
    assert abs(coherent_exact(NET, label(n)).p_out - expected) < ATOL


def test_modes_agree_for_every_label():
    for n in range(16):
        hy = hybrid_exact(NET, label(n)).p_out
        co = coherent_exact(NET, label(n)).p_out
        assert abs(hy - co) < ATOL


def ancilla_output_network() -> NetworkSpec:
    """The line network with its output node read through an ancilla (qubit
    7) instead of directly."""
    out = LayerSpec((NeuronSpec(BinaryVector((1, -1)), (6,), 7),))
    return NetworkSpec((NET.layers[0], out), NET.synapses)


def test_modes_agree_for_random_weight_pairs():
    rng = np.random.default_rng(99)
    nets = [
        line_recognition_network(label(int(rng.integers(16))), label(int(rng.integers(16))))
        for _ in range(10)
    ]
    for net in nets + [ancilla_output_network()]:
        for n in range(16):
            assert abs(hybrid_exact(net, label(n)).p_out - coherent_exact(net, label(n)).p_out) < ATOL


def test_hybrid_exact_agrees_with_convolution_oracle():
    # independent route: closed-form activations pushed through the two-node law
    w1, w2 = NET.layers[0].neurons[0].weight, NET.layers[0].neurons[1].weight
    for n in range(16):
        p1 = activation_probability(label(n), w1)
        p2 = activation_probability(label(n), w2)
        expected = p1 * (1 - p2) + (1 - p1) * p2
        assert abs(hybrid_exact(NET, label(n)).p_out - expected) < ATOL


def test_conditional_output_law_is_xor():
    w_out = NET.layers[-1].neurons[0].weight
    for b1, b2 in product((0, 1), repeat=2):
        fed = feedforward_input((b1, b2))
        assert activation_probability(fed, w_out) == float(b1 ^ b2)
        assert abs(simulated_activation_probability(fed, w_out) - (b1 ^ b2)) < ATOL


def test_permuting_hidden_nodes_leaves_output_unchanged():
    w1, w2 = NET.layers[0].neurons[0].weight, NET.layers[0].neurons[1].weight
    swapped = line_recognition_network(w2, w1)
    for n in range(16):
        assert abs(hybrid_exact(NET, label(n)).p_out - hybrid_exact(swapped, label(n)).p_out) < ATOL


def test_single_node_cannot_recognize_all_lines():
    for weight_label in range(16):
        w = label(weight_label)
        worst = min(activation_probability(label(t), w) for t in TARGETS)
        assert worst <= 0.25


def test_separation_margin():
    outs = {n: hybrid_exact(NET, label(n)).p_out for n in range(16)}
    margin = min(outs[t] for t in TARGETS) - max(outs[n] for n in set(range(16)) - TARGETS)
    assert abs(margin - 0.625) < ATOL
    assert all(outs[n] < 0.5 for n in set(range(16)) - TARGETS)


# ---------------------------------------------------------------------------
# coherent circuit structure


def coherent_state(n: int) -> np.ndarray:
    """Amplitudes after the gates of the coherent circuit on input n, that is
    before its one (final) measurement."""
    circuit = coherent_measured_circuit(NET, label(n))
    return simulate_state(Circuit(circuit.num_qubits, 0, circuit.ops[:-1]))


def test_coherent_circuit_structure():
    circuit = coherent_measured_circuit(NET, label(0))
    assert circuit.num_qubits == 7
    gates = circuit.ops[:-1]
    kinds = [op.kind for op in gates]
    assert kinds.count("MCX") == 2
    cz_ops = [op for op in gates if op.kind == "CZ"]
    synapse_cz = [op for op in cz_ops if 6 in op.targets]
    assert len(synapse_cz) == 2
    assert {op.targets for op in synapse_cz} == {(2, 6), (5, 6)}
    assert all(op.classical_condition is None for op in gates if isinstance(op, GateOp))


def test_coherent_circuit_op_count_bound():
    hidden_ops = 0
    for spec in NET.layers[0].neurons:
        flips, _ = hypergraph_sign_synthesis(label(0), spec.encoding_qubits)
        hidden_ops += len(node_ops(spec.weight, spec.encoding_qubits, flips, spec.ancilla_qubit))
    gates = coherent_measured_circuit(NET, label(0)).ops[:-1]
    assert len(gates) <= hidden_ops + 1 + 2 + 1  # H, two CZ, output weight (one H)


def test_coherent_state_branch_weights_for_deterministic_input():
    # input 12 drives node 1 to certain activation and node 2 to certain rest
    state = coherent_state(12)
    assert abs(marginal_probabilities(state, [2])[1] - 1.0) < ATOL
    assert abs(marginal_probabilities(state, [5])[1] - 0.0) < ATOL


def test_output_density_matrix_for_label_8():
    state = coherent_state(8)
    rho = reduced_density_matrix(state, 6)
    assert abs(rho[0, 0].real - 0.625) < ATOL
    assert abs(rho[1, 1].real - 0.375) < ATOL
    assert abs(rho[0, 1]) < ATOL


def test_output_density_matrix_is_diagonal_for_every_input():
    for n in range(16):
        rho = reduced_density_matrix(coherent_state(n), 6)
        assert abs(rho[0, 1]) < ATOL


# ---------------------------------------------------------------------------
# sampled executors


def test_hybrid_sampled_tracks_exact_values():
    rng = np.random.default_rng(42)
    shots = 10_000
    for n in (12, 6, 13):
        exact = hybrid_exact(NET, label(n)).p_out
        p = output_probability(sampled_counts(NET, label(n), "hybrid", shots, rng))
        sigma = np.sqrt(max(exact * (1 - exact), 0.0) / shots)
        assert abs(p - exact) <= 5 * sigma + 1e-9


def test_coherent_sampled_tracks_exact_values():
    rng = np.random.default_rng(43)
    shots = 10_000
    for n in (10, 0, 1):
        exact = coherent_exact(NET, label(n)).p_out
        p = output_probability(sampled_counts(NET, label(n), "coherent", shots, rng))
        sigma = np.sqrt(max(exact * (1 - exact), 0.0) / shots)
        assert abs(p - exact) <= 5 * sigma + 1e-9


def test_output_probability_reads_bit_0_of_laws_and_counts():
    law = np.array([0.1, 0.2, 0.3, 0.4])
    assert output_probability(law) == float(law[[1, 3]].sum())
    # counts divide as Python ints, so the ratio is rounded once even past
    # 2**53, where dividing the two sums as floats rounds three times
    hits, misses = 1443950364469935044, 543804029693342781
    assert float(hits) / float(hits + misses) != hits / (hits + misses)
    assert output_probability(np.array([misses, hits])) == hits / (hits + misses)


# ---------------------------------------------------------------------------
# deeper stacks and validation


def deep_network() -> NetworkSpec:
    hidden1 = LayerSpec(
        (
            NeuronSpec(label(12), (0, 1), 2),
            NeuronSpec(label(10), (3, 4), 5),
        )
    )
    hidden2 = LayerSpec(
        (
            NeuronSpec(BinaryVector((1, -1)), (0,), 1),
            NeuronSpec(BinaryVector((1, 1)), (2,), 3),
        )
    )
    out = LayerSpec((NeuronSpec(BinaryVector((1, -1)), (0,), None),))
    return NetworkSpec(
        (hidden1, hidden2, out),
        (((0, 1), (0, 1)), ((0, 1),)),
    )


def quarter_activation_network() -> NetworkSpec:
    """4-2-1 network on input label 0 whose first-layer weights each differ
    from the input in one or three entries: every first-layer activation is
    0.25, so every first-layer pattern has non-zero weight.  Two first-layer
    nodes share a weight, so one node input recurs within a pass."""
    first = LayerSpec(tuple(NeuronSpec(label(w), (3 * k, 3 * k + 1), 3 * k + 2) for k, w in enumerate((1, 2, 1, 14))))
    second = LayerSpec((NeuronSpec(label(1), (0, 1), 2), NeuronSpec(label(7), (3, 4), 5)))
    out = LayerSpec((NeuronSpec(BinaryVector((1, -1)), (0,), None),))
    return NetworkSpec((first, second, out), (((0, 1, 2, 3), (3, 1, 0, 2)), ((0, 1),)))


def brute_force_output_law(net: NetworkSpec, input_vec: BinaryVector) -> float:
    """Independent oracle: enumerate every bit pattern of every layer with the
    closed-form activation law."""

    def walk(layer_idx, inputs):
        specs = net.layers[layer_idx].neurons
        ps = [activation_probability(v, s.weight) for v, s in zip(inputs, specs)]
        if layer_idx == len(net.layers) - 1:
            return ps[0]
        total = 0.0
        for bits in product((0, 1), repeat=len(specs)):
            w = 1.0
            for p, b in zip(ps, bits):
                w *= p if b else 1 - p
            if w == 0.0:
                continue
            nxt = [
                feedforward_input([bits[f] for f in feeders])
                for feeders in net.synapses[layer_idx]
            ]
            total += w * walk(layer_idx + 1, nxt)
        return total

    return walk(0, [input_vec] * len(net.layers[0].neurons))


def test_deep_network_exact_matches_brute_force():
    for net in (deep_network(), quarter_activation_network()):
        for n in range(16):
            assert abs(hybrid_exact(net, label(n)).p_out - brute_force_output_law(net, label(n))) < ATOL


@pytest.fixture
def node_sims(monkeypatch) -> list[tuple[BinaryVector, BinaryVector]]:
    """The (input, weight) pair of every node simulation the network and
    experiment modules run, in call order."""
    import qffnn.experiments as experiments_module
    import qffnn.network as network_module

    calls = []

    def recording(vec, weight):
        calls.append((vec, weight))
        return simulated_activation_probability(vec, weight)

    for module in (network_module, experiments_module):
        monkeypatch.setattr(module, "simulated_activation_probability", recording)
    return calls


def test_forward_pass_simulates_each_distinct_node_input_once(node_sims):
    net = quarter_activation_network()
    assert all(activation_probability(label(0), spec.weight) == 0.25 for spec in net.layers[0].neurons)
    p_out = hybrid_exact(net, label(0)).p_out
    assert len(node_sims) == len(set(node_sims))
    assert abs(p_out - brute_force_output_law(net, label(0))) < ATOL


def test_standalone_hybrid_exact_calls_share_no_activations(node_sims):
    # label 13 activates both hidden nodes with 0.25, so all four hidden
    # patterns feed the output node: 2 + 4 simulations per call
    hybrid_exact(NET, label(13))
    first = len(node_sims)
    hybrid_exact(NET, label(13))
    assert first == 6 and node_sims[first:] == node_sims[:first]


def test_line_experiment_simulates_each_distinct_node_input_once(node_sims):
    # 16 labels under two hidden weights, plus the output node's 4 fed-forward
    # inputs; coherent mode runs the combined circuit, not single nodes
    config = ExperimentConfig(mode="both", evaluation="exact")
    run_network_experiment(config)
    assert len(node_sims) == 36 and len(set(node_sims)) == 36
    # a second experiment keeps nothing of the first
    run_network_experiment(config)
    assert node_sims[36:] == node_sims[:36]


def test_line_experiment_rows_equal_standalone_simulations():
    doc, _ = run_network_experiment(ExperimentConfig(mode="both", evaluation="exact"))
    w1, w2, _ = ExperimentConfig().weights
    for row in doc["rows"]:
        vec = label(row["label"])
        assert row["p1"].hex() == simulated_activation_probability(vec, w1).hex()
        assert row["p2"].hex() == simulated_activation_probability(vec, w2).hex()
        assert row["p_out"]["hybrid"].hex() == hybrid_exact(NET, vec).p_out.hex()


def wide_hidden_nodes_network() -> NetworkSpec:
    """Two m = 32 hidden nodes and a one-qubit output node: 13 qubits as one
    combined circuit, one more than MAX_QUBITS."""
    hidden = LayerSpec(
        (
            NeuronSpec(label(0x0F0F0F0F, 32), (0, 1, 2, 3, 4), 5),
            NeuronSpec(label(0x00FF00FF, 32), (6, 7, 8, 9, 10), 11),
        )
    )
    out = LayerSpec((NeuronSpec(BinaryVector((1, -1)), (12,), None),))
    return NetworkSpec((hidden, out), (((0, 1),),))


def test_network_past_the_qubit_cap_runs_only_through_the_forward_pass():
    net, vec = wide_hidden_nodes_network(), label(0x0F0F00FF, 32)
    with pytest.raises(UnsupportedTopology, match="13 qubits"):
        build_hybrid_circuit(net, vec)
    with pytest.raises(UnsupportedTopology):
        sampled_counts(net, vec, "hybrid", 100, np.random.default_rng(0))
    exact = brute_force_output_law(net, vec)
    assert 0.0 < exact < 1.0 and abs(hybrid_exact(net, vec).p_out - exact) < ATOL


def test_coherent_mode_rejects_deep_networks():
    # deep_network reuses qubits 0-3 across layers: the forward pass runs it,
    # the combined circuit and so coherent mode cannot
    with pytest.raises(UnsupportedTopology, match="share qubits"):
        coherent_exact(deep_network(), label(0))
    with pytest.raises(UnsupportedTopology, match="share qubits"):
        coherent_measured_circuit(deep_network(), label(0))
    with pytest.raises(UnsupportedTopology, match="share qubits"):
        sampled_counts(deep_network(), label(0), "hybrid", 100, np.random.default_rng(0))
    assert abs(hybrid_exact(deep_network(), label(13)).p_out - brute_force_output_law(deep_network(), label(13))) < ATOL


def test_build_hybrid_circuit_rejects_single_layer():
    with pytest.raises(ValueError, match="at least two layers"):
        NetworkSpec((LayerSpec((NeuronSpec(label(12), (0, 1), 2),)),), ())


def test_network_spec_refuses_more_than_one_output_node():
    hidden = LayerSpec((NeuronSpec(label(12), (0, 1), 2), NeuronSpec(label(10), (3, 4), 5)))
    out = LayerSpec((NeuronSpec(BinaryVector((1, -1)), (6,), None), NeuronSpec(BinaryVector((1, 1)), (7,), None)))
    with pytest.raises(ValueError, match="exactly one output node"):
        NetworkSpec((hidden, out), (((0, 1), (1, 0)),))


def test_neuron_spec_refuses_a_multi_qubit_node_without_ancilla():
    with pytest.raises(ValueError, match="needs an ancilla"):
        NeuronSpec(label(12), (0, 1), None)


def three_layer_network() -> NetworkSpec:
    """4-2-1 network on all 12 qubits: a fed-forward m = 4 node with a
    repeated feeder, a one-qubit node read without an ancilla, and a
    one-qubit output read through one."""
    first = LayerSpec((NeuronSpec(label(12), (0, 1), 2), NeuronSpec(label(1), (3, 4), 5)))
    second = LayerSpec((NeuronSpec(label(1), (6, 7), 8), NeuronSpec(label(1, 2), (9,), None)))
    out = LayerSpec((NeuronSpec(label(2, 2), (10,), 11),))
    return NetworkSpec((first, second, out), (((0, 1, 1, 0), (0, 1)), ((0, 1),)))


@pytest.mark.parametrize("mode,seed,inputs", [("hybrid", 44, (1, 3, 6)), ("coherent", 45, (12, 0, 14))])
def test_three_layer_sampled_counts_track_the_forward_pass(mode, seed, inputs):
    net, rng, shots = three_layer_network(), np.random.default_rng(seed), 10_000
    for n in inputs:
        exact = hybrid_exact(net, label(n)).p_out
        assert 0.0 < exact < 1.0
        p = output_probability(sampled_counts(net, label(n), mode, shots, rng))
        sigma = np.sqrt(exact * (1 - exact) / shots)
        assert abs(p - exact) <= 5 * sigma + 1e-9


@st.composite
def fitting_networks(draw) -> tuple[NetworkSpec, BinaryVector]:
    """A network of depth 2 or 3 on disjoint qubits within MAX_QUBITS, with
    an input: nodes on one or two encoding qubits (m = 2 or 4), feeders drawn
    with repetition, one-qubit nodes read with or without an ancilla."""
    depth = draw(st.integers(2, 3))
    widths = [draw(st.integers(1, 3))] + [draw(st.integers(1, 2)) for _ in range(depth - 2)] + [1]
    first_n = draw(st.integers(1, 2))
    free, left = iter(range(MAX_QUBITS)), sum(widths)
    layers, synapses, budget = [], [], MAX_QUBITS
    for i, width in enumerate(widths):
        specs, feeders = [], []
        for _ in range(width):
            left -= 1
            spare = budget - left  # one qubit stays for every node after this one
            n = first_n if i == 0 else draw(st.integers(1, 2 if spare >= 3 else 1))
            ancilla = n == 2 or (spare > n and draw(st.booleans()))
            budget -= n + ancilla
            weight = label(draw(st.integers(0, (1 << (1 << n)) - 1)), 1 << n)
            specs.append(NeuronSpec(weight, tuple(next(free) for _ in range(n)), next(free) if ancilla else None))
            if i:
                feeders.append(tuple(draw(st.lists(st.integers(0, widths[i - 1] - 1), min_size=1 << n, max_size=1 << n))))
        layers.append(LayerSpec(tuple(specs)))
        if i:
            synapses.append(tuple(feeders))
    vec = label(draw(st.integers(0, (1 << (1 << first_n)) - 1)), 1 << first_n)
    return NetworkSpec(tuple(layers), tuple(synapses)), vec


@settings(max_examples=100, deadline=None)
@given(fitting_networks())
def test_every_network_that_fits_runs_alike_in_all_three_forms(case):
    net, vec = case
    forward = hybrid_exact(net, vec).p_out
    combined = output_probability(run_circuit_exact(build_hybrid_circuit(net, vec)))
    assert abs(combined - forward) < ATOL
    assert abs(coherent_exact(net, vec).p_out - forward) < ATOL


def test_synapse_arity_is_validated():
    hidden = LayerSpec((NeuronSpec(label(12), (0, 1), 2), NeuronSpec(label(10), (3, 4), 5)))
    out = LayerSpec((NeuronSpec(BinaryVector((1, -1)), (6,), None),))
    with pytest.raises(ValueError):
        NetworkSpec((hidden, out), (((0,),),))


def test_nodes_sharing_qubits_within_a_layer_run_only_through_hybrid_exact():
    # the two hidden nodes share qubit 1: the forward pass never reads qubits,
    # the combined circuit and so coherent mode need a register per node
    hidden = LayerSpec((NeuronSpec(label(12), (0, 1), 2), NeuronSpec(label(10), (1, 3), 4)))
    net = NetworkSpec((hidden, LayerSpec((NeuronSpec(BinaryVector((1, -1)), (6,), None),))), (((0, 1),),))
    p1, p2 = activation_probability(label(13), label(12)), activation_probability(label(13), label(10))
    p_out = hybrid_exact(net, label(13)).p_out
    assert abs(p_out - (p1 * (1 - p2) + p2 * (1 - p1))) < ATOL and abs(p_out - 0.375) < ATOL
    with pytest.raises(UnsupportedTopology, match="share qubits"):
        build_hybrid_circuit(net, label(13))
    with pytest.raises(UnsupportedTopology, match="share qubits"):
        coherent_exact(net, label(13))
    with pytest.raises(UnsupportedTopology, match="share qubits"):
        sampled_counts(net, label(13), "coherent", 100, np.random.default_rng(0))


def test_mode_circuit_maps_each_mode_to_its_circuit():
    vec = label(13)
    assert mode_circuit(NET, vec, "hybrid") == build_hybrid_circuit(NET, vec)
    assert mode_circuit(NET, vec, "coherent") == coherent_measured_circuit(NET, vec)
    with pytest.raises(ValueError, match="unknown mode 'both'"):
        mode_circuit(NET, vec, "both")
    with pytest.raises(ValueError, match="unknown mode 'both'"):
        sampled_counts(NET, vec, "both", 100, np.random.default_rng(0))


def test_forward_pass_width_cap_is_checked_before_allocating():
    # a 40-node layer's law would hold 2**40 floats, 8 TiB; the width is checked first
    def wide_network(width: int) -> NetworkSpec:
        first = LayerSpec(tuple(NeuronSpec(label(12), (0, 1), 2) for _ in range(width)))
        out = LayerSpec((NeuronSpec(label(1), (0, 1), 2),))
        return NetworkSpec((first, out), ((tuple(range(4)),),))

    assert 1 << 13 == MAX_BRANCHES
    tracemalloc.start()
    try:
        for width in (14, 40):
            with pytest.raises(ValueError, match=f"layer of {width} nodes"):
                hybrid_exact(wide_network(width), label(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert 0.0 <= hybrid_exact(wide_network(13), label(13)).p_out <= 1.0


def test_input_length_mismatch_is_rejected():
    with pytest.raises(ValueError):
        hybrid_exact(NET, BinaryVector.from_label(0, 8))


@pytest.mark.parametrize("m", [2, 8])
def test_every_circuit_builder_refuses_an_input_of_another_length(m):
    # the register check of the sign synthesis and the weight transform is the
    # only length check on these paths
    with pytest.raises(ValueError, match="qubit count does not match vector length"):
        build_hybrid_circuit(NET, label(0, m))
    with pytest.raises(ValueError, match="qubit count does not match vector length"):
        neuron_circuit(label(0, m), label(12))


# ---------------------------------------------------------------------------
# results and classification


def test_verdict_uses_strict_threshold():
    # the verdict is p_out > threshold: a threshold equal to p_out rejects,
    # the next float below it accepts; label 0 has p_out 0, and a negative
    # threshold is refused, so the labels tested have 0 < p_out
    base, _ = run_network_experiment(ExperimentConfig(mode="hybrid"))
    for n in (12, 13):
        p_out = base["rows"][n]["p_out"]["hybrid"]
        for threshold, verdict in ((p_out, False), (math.nextafter(p_out, -1.0), True)):
            doc, _ = run_network_experiment(ExperimentConfig(mode="hybrid", threshold=threshold))
            assert doc["rows"][n]["verdict"] is verdict


@pytest.mark.parametrize("p,clamped", [(-LAW_ATOL / 2, 0.0), (1 + LAW_ATOL / 2, 1.0), (0.375, 0.375)])
def test_probability_clamp_absorbs_rounding_within_law_atol(p, clamped):
    assert clamp_probability(p) == clamped


@pytest.mark.parametrize("p", [1 + 2 * LAW_ATOL, -2 * LAW_ATOL, math.nan])
def test_probability_clamp_rejects_values_past_law_atol(p):
    with pytest.raises(ValueError, match="outside"):
        clamp_probability(p)


def test_run_result_consistency():
    result = hybrid_exact(NET, label(12))
    assert result.classified_positive is (result.p_out > 0.5)
    assert result.input_label == 12
    assert result.shots is None and result.mode == "hybrid"
