"""Layered feed-forward networks of quantum perceptron nodes.

Two execution modes are provided.

Hybrid mode: each node runs on its own small register; measuring its ancilla
yields a classical bit, and the bits of one layer program the input
preparation of the next (bit 0 -> entry +1, bit 1 -> entry -1).  One forward
pass carries the law of each layer's measured bit pattern to the next layer,
simulating every node once per distinct fed-forward input while its caller's
activation table lives (one ``hybrid_exact`` call, or one line experiment).
Each layer costs up to 2**(width of the layer before) times 2**(its own
width), added across layers.  ``hybrid_exact`` reads the output law of a
network of any depth from this pass.  Sampling needs the combined circuit,
one circuit with mid-circuit measurement: it covers two-layer networks whose
single-qubit output node is fed once by every hidden node and that fit in
``MAX_QUBITS`` qubits, and ``sampled_counts`` draws from it.

Coherent mode: the same network as one circuit without mid-circuit
measurement.  It is derived from the combined hybrid circuit by the
deferred-measurement principle (``defer_measurements``): each classically
conditioned phase flip of the output stage becomes a CZ from the hidden
ancilla to the output qubit, and the output probability is read from the
reduced density matrix of the qubit measured into classical bit 0.  Coherent
mode therefore covers exactly the networks the combined circuit covers;
other topologies run through ``hybrid_exact`` only.

Classical bit layout of sampled circuits: bit 0 carries the network output,
bits 1..l hold the hidden-node outcomes in layer order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .neuron import (
    BinaryVector,
    NeuronSpec,
    node_ops,
    simulated_activation_probability,
    weight_transform_ops,
)
from .simulator import (
    LAW_ATOL,
    MAX_QUBITS,
    Circuit,
    Counts,
    MeasureOp,
    defer_measurements,
    h,
    mcx,
    reduced_density_matrix,
    run_circuit,
    simulate_state,
    z,
)

DEFAULT_THRESHOLD = 0.5
# the line-recognition fixture's weights: hidden labels 12 and 10, output (+1, -1)
LINE_WEIGHTS = (BinaryVector.from_label(12, 4), BinaryVector.from_label(10, 4), BinaryVector((1, -1)))
Activations = dict[tuple[BinaryVector, BinaryVector], float]


class UnsupportedTopology(ValueError):
    """Raised when an executor does not cover the requested network shape."""


@dataclass(frozen=True, slots=True)
class LayerSpec:
    neurons: tuple[NeuronSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "neurons", tuple(self.neurons))
        used: set[int] = set()
        for spec in self.neurons:
            overlap = used.intersection(spec.all_qubits)
            if overlap:
                raise ValueError(f"qubits {sorted(overlap)} assigned twice within a layer")
            used.update(spec.all_qubits)


@dataclass(frozen=True, slots=True)
class NetworkSpec:
    """Layer stack plus synapse wiring.

    ``synapses[i][j]`` lists, in order, the indices of layer-i neurons feeding
    neuron j of layer i+1; a node on N qubits must be fed by exactly 2**N
    nodes.  First-layer neurons all receive the raw input vector.
    """

    layers: tuple[LayerSpec, ...]
    synapses: tuple[tuple[tuple[int, ...], ...], ...] = ()

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        synapses = tuple(tuple(tuple(f) for f in layer_map) for layer_map in self.synapses)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "synapses", synapses)
        if not layers:
            raise ValueError("network needs at least one layer")
        if len(synapses) != len(layers) - 1:
            raise ValueError("need one synapse map per non-input layer")
        for i, layer_map in enumerate(synapses):
            prev, cur = layers[i], layers[i + 1]
            if len(layer_map) != len(cur.neurons):
                raise ValueError(f"synapse map {i} must cover every neuron of layer {i + 1}")
            for j, feeders in enumerate(layer_map):
                spec = cur.neurons[j]
                if len(feeders) != spec.weight.m:
                    raise ValueError(
                        f"neuron {j} of layer {i + 1} encodes {spec.weight.m} inputs "
                        f"but is fed by {len(feeders)} nodes"
                    )
                if any(not 0 <= f < len(prev.neurons) for f in feeders):
                    raise ValueError("synapse references a missing neuron")

    @property
    def output_neuron(self) -> NeuronSpec:
        if len(self.layers[-1].neurons) != 1:
            raise UnsupportedTopology("executors require a single output neuron")
        return self.layers[-1].neurons[0]


@dataclass(frozen=True, slots=True)
class RunResult:
    input_label: int
    p_out: float
    mode: str
    shots: int | None
    classified_positive: bool


def line_recognition_network(
    w1: BinaryVector | None = None,
    w2: BinaryVector | None = None,
    w_out: BinaryVector | None = None,
) -> NetworkSpec:
    """The built-in 3-node network for 2x2 line recognition: one hidden node
    tuned to horizontal lines (label 12), one to vertical lines (label 10),
    and a single-qubit output node with weight (+1, -1) flagging dissimilar
    hidden outcomes.  Seven qubits in total; a weight left ``None`` is taken
    from ``LINE_WEIGHTS``."""
    w1, w2, w_out = (w if w is not None else d for w, d in zip((w1, w2, w_out), LINE_WEIGHTS))
    hidden = LayerSpec(
        (
            NeuronSpec(w1, (0, 1), 2),
            NeuronSpec(w2, (3, 4), 5),
        )
    )
    out = LayerSpec((NeuronSpec(w_out, (6,), None),))
    return NetworkSpec((hidden, out), (((0, 1),),))


def feedforward_input(bits: Sequence[int]) -> BinaryVector:
    """Classical input built from a layer's measured bits: entry k is +1 when
    bits[k] is 0 and -1 when it is 1."""
    return BinaryVector(tuple(1 if b == 0 else -1 for b in bits))


def _first_layer_inputs(net: NetworkSpec, input_vec: BinaryVector) -> list[BinaryVector]:
    for spec in net.layers[0].neurons:
        if spec.weight.m != input_vec.m:
            raise ValueError("input length does not match first-layer node size")
    return [input_vec] * len(net.layers[0].neurons)


def activation(activations: Activations, vec: BinaryVector, weight: BinaryVector) -> float:
    """The activation of ``vec`` under ``weight``, simulated on its first lookup in ``activations``."""
    p = activations.get((vec, weight))
    if p is None:
        p = activations[vec, weight] = simulated_activation_probability(vec, weight)
    return p


def _layer_laws(net: NetworkSpec, input_vec: BinaryVector, activations: Activations) -> Iterator[np.ndarray]:
    """Forward pass of the hybrid network: yield, layer by layer, the law of
    that layer's measured bit pattern as a vector of length 2**width whose
    index bit k is node k's outcome.  The caller owns the activation table and
    decides how long it lives; patterns of zero weight feed nothing forward."""

    def pattern_law(inputs: Sequence[BinaryVector], specs: Sequence[NeuronSpec]) -> np.ndarray:
        law = np.ones(1)
        for vec, spec in zip(inputs, specs):
            p = activation(activations, vec, spec.weight)
            law = np.concatenate((law * (1.0 - p), law * p))
        return law

    law = pattern_law(_first_layer_inputs(net, input_vec), net.layers[0].neurons)
    yield law
    for layer, layer_map in zip(net.layers[1:], net.synapses):
        next_law = np.zeros(1 << len(layer.neurons))
        for pattern in np.flatnonzero(law).tolist():
            inputs = [feedforward_input([(pattern >> f) & 1 for f in feeders]) for feeders in layer_map]
            next_law += law[pattern] * pattern_law(inputs, layer.neurons)
        law = next_law
        yield law


def _clamp_probability(p: float) -> float:
    # LAW_ATOL (run_circuit's slack on a law's sum), not ATOL (the bound two
    # exact results agree to): this only has to catch non-probabilities
    if not -LAW_ATOL <= p <= 1.0 + LAW_ATOL:
        raise ValueError(f"probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def _result(input_vec: BinaryVector, p: float, mode: str) -> RunResult:
    p = _clamp_probability(p)
    return RunResult(input_vec.label(), p, mode, None, p > DEFAULT_THRESHOLD)


def hybrid_exact(
    net: NetworkSpec, input_vec: BinaryVector, *, activations: Activations | None = None
) -> RunResult:
    """Exact output law of the hybrid network, read from the last law of the
    forward pass of any depth, through a fresh activation table per call
    unless the caller shares one in ``activations``."""
    if len(net.layers) < 2:
        raise UnsupportedTopology("feed-forward execution needs at least two layers")
    net.output_neuron  # validates single output node
    *_, law = _layer_laws(net, input_vec, {} if activations is None else activations)
    return _result(input_vec, float(law[1]), "hybrid")


def build_hybrid_circuit(net: NetworkSpec, input_vec: BinaryVector) -> Circuit:
    """One circuit for the whole hybrid run of a two-layer network whose
    single-qubit output node is fed once by every hidden node: every hidden
    node prepared, activated and measured mid-circuit, then the output qubit
    prepared with a Hadamard plus one conditioned Z per hidden bit,
    weight-transformed, and measured.  Classical bit 0 is the output, bit k
    the k-th hidden node.  Raises ``UnsupportedTopology`` for other shapes
    and for circuits wider than ``MAX_QUBITS``."""
    if len(net.layers) != 2:
        raise UnsupportedTopology("combined circuit construction covers two-layer networks")
    out = net.output_neuron
    if len(out.encoding_qubits) != 1:
        raise UnsupportedTopology("output node must sit on a single qubit")
    hidden = net.layers[0].neurons
    feeders = net.synapses[0][0]
    if len(feeders) != len(hidden) or sorted(feeders) != list(range(len(hidden))):
        raise UnsupportedTopology("output node must be fed by every hidden node exactly once")
    if any(spec.ancilla_qubit is None for spec in hidden):
        raise UnsupportedTopology("hidden nodes need an ancilla")
    qubits = [q for spec in hidden for q in spec.all_qubits] + list(out.all_qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubit assignments overlap across layers")
    if max(qubits) + 1 > MAX_QUBITS:
        raise UnsupportedTopology(
            f"combined circuit needs {max(qubits) + 1} qubits, more than MAX_QUBITS={MAX_QUBITS}"
        )
    _first_layer_inputs(net, input_vec)
    fed = [hidden[f] for f in feeders]
    out_qubit = out.encoding_qubits[0]
    circuit = Circuit(max(qubits) + 1, len(fed) + 1)
    for spec in fed:
        circuit.extend(node_ops(input_vec, spec))
    for k, spec in enumerate(fed, start=1):
        circuit.measure(spec.ancilla_qubit, k)
    circuit.append(h(out_qubit))
    for k in range(1, len(fed) + 1):
        circuit.append(z(out_qubit).conditioned_on(k, 1))
    circuit.extend(weight_transform_ops(out.weight, out.encoding_qubits))
    if out.ancilla_qubit is not None:
        circuit.append(mcx(out.encoding_qubits, out.ancilla_qubit))
        circuit.measure(out.ancilla_qubit, 0)
    else:
        circuit.measure(out_qubit, 0)
    return circuit


def coherent_measured_circuit(net: NetworkSpec, input_vec: BinaryVector) -> Circuit:
    """Coherent form of the hybrid circuit: ``defer_measurements`` turns each
    conditioned Z into a CZ from the hidden ancilla to the output qubit, and
    only the end measurement of the output into classical bit 0 is kept;
    hidden registers are left unmeasured."""
    circuit = defer_measurements(build_hybrid_circuit(net, input_vec))
    circuit.ops = [op for op in circuit.ops if not (isinstance(op, MeasureOp) and op.clbit)]
    circuit.num_clbits = 1
    return circuit


def coherent_exact(net: NetworkSpec, input_vec: BinaryVector) -> RunResult:
    """Exact coherent run: simulate the gates of the coherent circuit, trace
    out everything but the qubit it measures into bit 0, and read the
    excited population."""
    circuit = coherent_measured_circuit(net, input_vec)
    *gates, readout = circuit.ops
    rho = reduced_density_matrix(simulate_state(Circuit(circuit.num_qubits, 0, gates)), readout.qubit)
    return _result(input_vec, float(rho[1, 1].real), "coherent")


def sampled_counts(
    net: NetworkSpec,
    input_vec: BinaryVector,
    mode: str,
    shots: int,
    rng: np.random.Generator,
) -> Counts:
    """Raw shot counts of the combined circuit for either mode; the noise and
    mitigation pipeline operates on these before estimating the output."""
    if mode == "hybrid":
        return run_circuit(build_hybrid_circuit(net, input_vec), shots, rng)
    if mode == "coherent":
        return run_circuit(coherent_measured_circuit(net, input_vec), shots, rng)
    raise ValueError(f"unknown mode {mode!r}")


def output_probability_from_vector(probabilities: np.ndarray) -> float:
    """Output-bit marginal of a distribution over classical bit patterns
    (classical bit 0, the output, is the least significant index bit)."""
    idx = np.arange(probabilities.size)
    return float(probabilities[idx & 1 == 1].sum())
