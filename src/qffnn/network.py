"""Layered feed-forward networks of quantum perceptron nodes.

Two execution modes are provided.

Hybrid mode: each node runs on its own small register; measuring its ancilla
yields a classical bit, and the bits of one layer program the input
preparation of the next (bit 0 -> entry +1, bit 1 -> entry -1).  One forward
pass carries the law of each layer's measured bit pattern to the next layer,
simulating every node once per distinct fed-forward input while its caller's
activation table lives (one ``hybrid_exact`` call, or one line experiment).
Each layer costs up to 2**(width of the layer before) times 2**(its own
width), added across layers; a layer of over 13 nodes (``MAX_BRANCHES``
patterns) is refused first.  ``hybrid_exact`` reads the output law from this
pass.  Sampling needs the combined circuit, one circuit with mid-circuit
measurement, which ``sampled_counts`` draws from: it covers every network
whose nodes sit on disjoint qubits within ``MAX_QUBITS``.

Coherent mode: the same network as one circuit without mid-circuit
measurement.  It is derived from the combined hybrid circuit by the
deferred-measurement principle (``defer_measurements``): each classically
conditioned phase flip becomes a (multi-)controlled Z with the feeder's
measured qubit as an extra control, and the output probability is read from
the reduced density matrix of the qubit measured into classical bit 0.
Coherent mode therefore covers exactly the networks the combined circuit
covers.

Classical bit layout of the combined circuit: bit 0 carries the network
output, bits 1 and up the other nodes in layer order; ``output_probability``
reads bit 0 from a law or a count vector indexed by bit pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .neuron import BinaryVector, NeuronSpec, hypergraph_sign_synthesis, node_ops, simulated_activation_probability
from .simulator import (
    MAX_BRANCHES,
    MAX_QUBITS,
    Circuit,
    MeasureOp,
    clamp_probability,
    defer_measurements,
    reduced_density_matrix,
    run_circuit,
    simulate_state,
)

DEFAULT_THRESHOLD = 0.5
# the line-recognition fixture's weights: hidden labels 12 and 10, output (+1, -1)
LINE_WEIGHTS = (BinaryVector.from_label(12, 4), BinaryVector.from_label(10, 4), BinaryVector((1, -1)))
Activations = dict[tuple[BinaryVector, BinaryVector], float]


class UnsupportedTopology(ValueError):
    """Raised when a network does not fit the combined circuit: shared or too many qubits."""


@dataclass(frozen=True, slots=True)
class LayerSpec:
    neurons: tuple[NeuronSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "neurons", tuple(self.neurons))


@dataclass(frozen=True, slots=True)
class NetworkSpec:
    """Layer stack plus synapse wiring.

    ``synapses[i][j]`` lists, in order, the indices of layer-i neurons feeding
    neuron j of layer i+1; a node on N qubits must be fed by exactly 2**N
    nodes.  First-layer neurons all receive the raw input vector.  A network
    has at least two layers, and its last layer holds the one output node.
    """

    layers: tuple[LayerSpec, ...]
    synapses: tuple[tuple[tuple[int, ...], ...], ...] = ()

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        synapses = tuple(tuple(tuple(f) for f in layer_map) for layer_map in self.synapses)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "synapses", synapses)
        if len(layers) < 2:
            raise ValueError("a feed-forward network needs at least two layers")
        if len(layers[-1].neurons) != 1:
            raise ValueError("the last layer must hold exactly one output node")
        if len(synapses) != len(layers) - 1:
            raise ValueError("need one synapse map per non-input layer")
        for i, layer_map in enumerate(synapses):
            cur = layers[i + 1]
            if len(layer_map) != len(cur.neurons):
                raise ValueError(f"synapse map {i} must cover every neuron of layer {i + 1}")
            for j, feeders in enumerate(layer_map):
                spec = cur.neurons[j]
                if len(feeders) != spec.weight.m:
                    raise ValueError(
                        f"neuron {j} of layer {i + 1} encodes {spec.weight.m} inputs "
                        f"but is fed by {len(feeders)} nodes"
                    )
                if any(not 0 <= f < len(layers[i].neurons) for f in feeders):
                    raise ValueError("synapse references a missing neuron")


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

    first = net.layers[0].neurons
    if any(spec.weight.m != input_vec.m for spec in first):
        raise ValueError("input length does not match first-layer node size")
    width = max(len(layer.neurons) for layer in net.layers)
    if 1 << width > MAX_BRANCHES:
        raise ValueError(f"a layer of {width} nodes has more than MAX_BRANCHES={MAX_BRANCHES} bit patterns")
    law = pattern_law([input_vec] * len(first), first)
    yield law
    for layer, layer_map in zip(net.layers[1:], net.synapses):
        next_law = np.zeros(1 << len(layer.neurons))
        for pattern in np.flatnonzero(law).tolist():
            inputs = [feedforward_input([(pattern >> f) & 1 for f in feeders]) for feeders in layer_map]
            next_law += law[pattern] * pattern_law(inputs, layer.neurons)
        law = next_law
        yield law


def _result(input_vec: BinaryVector, p: float, mode: str) -> RunResult:
    p = clamp_probability(p)
    return RunResult(input_vec.label(), p, mode, None, p > DEFAULT_THRESHOLD)


def hybrid_exact(
    net: NetworkSpec, input_vec: BinaryVector, *, activations: Activations | None = None
) -> RunResult:
    """Exact output law of the hybrid network, read from the last law of the
    forward pass of any depth, through a fresh activation table per call
    unless the caller shares one in ``activations``."""
    *_, law = _layer_laws(net, input_vec, {} if activations is None else activations)
    return _result(input_vec, output_probability(law), "hybrid")


def build_hybrid_circuit(net: NetworkSpec, input_vec: BinaryVector) -> Circuit:
    """One circuit for the whole hybrid run, every node built by ``node_ops``.
    A first-layer node's sign flips prepare ``input_vec``; a fed-forward node
    gets, for its k-th feeder, the sign flip of basis index k conditioned on
    that feeder's bit.  Each layer is measured after its nodes, on the ancilla
    or else the one encoding qubit; bit 0 is the output, bits 1 and up the
    other nodes in layer order.  Raises ``UnsupportedTopology`` when nodes
    share a qubit or need more than ``MAX_QUBITS``."""
    qubits = [q for layer in net.layers for spec in layer.neurons for q in spec.all_qubits]
    if len(set(qubits)) != len(qubits):
        raise UnsupportedTopology("nodes share qubits; the combined circuit needs a register per node")
    width = max(qubits) + 1
    if width > MAX_QUBITS:
        raise UnsupportedTopology(f"combined circuit needs {width} qubits, more than MAX_QUBITS={MAX_QUBITS}")
    nodes = sum(len(layer.neurons) for layer in net.layers)
    # the output, the last node, is bit 0; the others count up from bit 1
    numbers = iter(range(1, nodes + 1))
    bits = [[next(numbers) % nodes for _ in layer.neurons] for layer in net.layers]
    circuit = Circuit(width, nodes)
    for i, layer in enumerate(net.layers):
        for j, spec in enumerate(layer.neurons):
            enc = spec.encoding_qubits
            if i == 0:
                flips, _ = hypergraph_sign_synthesis(input_vec, enc)
            else:
                # index 0's flip drops a global sign -1: a phase on one classical branch, after
                # deferral a Z on the feeder's measured qubit, which is only a control from
                # then on; so it commutes with every later gate and changes no outcome law
                flips = [
                    gate.conditioned_on(bits[i - 1][f])
                    for k, f in enumerate(net.synapses[i - 1][j])
                    for gate in hypergraph_sign_synthesis(BinaryVector.from_label(1 << k, spec.weight.m), enc)[0]
                ]
            circuit.append(*node_ops(spec.weight, enc, flips, spec.ancilla_qubit))
        for spec, clbit in zip(layer.neurons, bits[i]):
            circuit.measure(spec.encoding_qubits[0] if spec.ancilla_qubit is None else spec.ancilla_qubit, clbit)
    return circuit


def coherent_measured_circuit(net: NetworkSpec, input_vec: BinaryVector) -> Circuit:
    """Coherent form of the hybrid circuit: ``defer_measurements`` turns each
    conditioned sign flip into a (multi-)controlled Z with the feeder's
    measured qubit as an extra control, and only the end measurement of the
    output into classical bit 0 is kept; the other registers are left
    unmeasured."""
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


def mode_circuit(net: NetworkSpec, input_vec: BinaryVector, mode: str) -> Circuit:
    """The circuit a mode runs: the combined hybrid circuit, or its coherent form."""
    if mode == "hybrid":
        return build_hybrid_circuit(net, input_vec)
    if mode == "coherent":
        return coherent_measured_circuit(net, input_vec)
    raise ValueError(f"unknown mode {mode!r}")


def sampled_counts(
    net: NetworkSpec,
    input_vec: BinaryVector,
    mode: str,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Raw shot counts of the mode's circuit, indexed by bit pattern; the
    noise and mitigation pipeline reads out and estimates these."""
    return run_circuit(mode_circuit(net, input_vec, mode), shots, rng)


def output_probability(vector: np.ndarray) -> float:
    """Probability that classical bit 0, the output, reads 1: the float sum of
    a law's odd entries, or a count vector's odd entries over its total, exact."""
    if vector.dtype.kind == "f":
        return float(vector[1::2].sum())
    return int(vector[1::2].sum()) / int(vector.sum())
