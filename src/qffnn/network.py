"""Layered feed-forward networks of quantum perceptron nodes.

Two execution modes are provided.

Hybrid mode: each node runs on its own small register; measuring its ancilla
yields a classical bit, and the bits of one layer program the input
preparation of the next (bit 0 -> entry +1, bit 1 -> entry -1).  One forward
pass carries the law of each layer's measured bit pattern to the next layer,
simulating every node once per distinct fed-forward input.  Each layer costs
up to 2**(width of the layer before) times 2**(its own width), and the costs
add across layers instead of multiplying.  ``hybrid_exact`` reads the output
law of a network of any depth from this pass.  Sampling needs the combined
circuit, one circuit with mid-circuit measurement: it covers two-layer
networks whose single-qubit output node is fed once by every hidden node and
that fit in ``MAX_QUBITS`` qubits, and ``sampled_counts`` draws from it.

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

import json
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


_JSON_TYPES = {list: "a list", int: "an integer"}


def _field(doc: object, key: str, kind: type, where: str, of_ints: bool = False):
    """``doc[key]`` checked to be a ``kind`` (a list of integers if
    ``of_ints``); ``where`` names ``doc`` in the ``ValueError`` raised
    otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{where} has no field {key!r}")
    value = doc[key]
    # exact types: JSON true/false load as bool, a subclass of int
    if type(value) is not kind or (of_ints and not all(type(v) is int for v in value)):
        of = " of integers" if of_ints else ""
        raise ValueError(f"field {key!r} of {where} must be {_JSON_TYPES[kind]}{of}")
    return value


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

    def to_json_dict(self) -> dict:
        doc: dict = {"layers": [], "synapses": []}
        for layer in self.layers:
            doc["layers"].append(
                {
                    "neurons": [
                        {
                            "weight_label": spec.weight.label(),
                            "qubits": list(spec.encoding_qubits),
                            "ancilla": spec.ancilla_qubit,
                        }
                        for spec in layer.neurons
                    ]
                }
            )
        for layer_map in self.synapses:
            doc["synapses"].append({str(j): list(feeders) for j, feeders in enumerate(layer_map)})
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NetworkSpec":
        """Inverse of ``to_json_dict``; a missing or ill-typed field raises
        ``ValueError`` naming it.  A neuron gives its weight as
        ``weight_entries`` or as ``weight_label`` over 2**len(qubits) entries;
        more than ``MAX_QUBITS`` qubits raise before that weight is built."""
        layers = []
        for i, layer_doc in enumerate(_field(doc, "layers", list, "network")):
            neurons = []
            for j, nd in enumerate(_field(layer_doc, "neurons", list, f"layer {i}")):
                where = f"neuron {j} of layer {i}"
                qubits = tuple(_field(nd, "qubits", list, where, of_ints=True))
                if len(qubits) > MAX_QUBITS:
                    raise ValueError(f"{where} lists {len(qubits)} qubits, more than MAX_QUBITS={MAX_QUBITS}")
                if "weight_entries" in nd:
                    weight = BinaryVector(tuple(_field(nd, "weight_entries", list, where, of_ints=True)))
                else:
                    weight = BinaryVector.from_label(_field(nd, "weight_label", int, where), 1 << len(qubits))
                ancilla = nd.get("ancilla")
                if ancilla is not None:
                    _field(nd, "ancilla", int, where)
                neurons.append(NeuronSpec(weight, qubits, ancilla))
            layers.append(LayerSpec(tuple(neurons)))
        synapses = []
        for i, layer_map in enumerate(_field(doc, "synapses", list, "network") if "synapses" in doc else []):
            where = f"synapse map {i}"
            if not isinstance(layer_map, dict):
                raise ValueError(f"{where} must be a JSON object")
            feeders = (_field(layer_map, str(j), list, where, of_ints=True) for j in range(len(layer_map)))
            synapses.append(tuple(tuple(f) for f in feeders))
        return cls(tuple(layers), tuple(synapses))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        return cls.from_json_dict(json.loads(text))


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
    hidden outcomes.  Seven qubits in total."""
    w1 = w1 if w1 is not None else BinaryVector.from_label(12, 4)
    w2 = w2 if w2 is not None else BinaryVector.from_label(10, 4)
    w_out = w_out if w_out is not None else BinaryVector((1, -1))
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


def _layer_laws(net: NetworkSpec, input_vec: BinaryVector) -> Iterator[np.ndarray]:
    """Forward pass of the hybrid network: yield, layer by layer, the law of
    that layer's measured bit pattern as a vector of length 2**width whose
    index bit k is node k's outcome.  Each node is simulated once per distinct
    fed-forward input, and patterns of zero weight feed nothing forward."""
    activations: dict[tuple[BinaryVector, BinaryVector], float] = {}

    def pattern_law(inputs: Sequence[BinaryVector], specs: Sequence[NeuronSpec]) -> np.ndarray:
        law = np.ones(1)
        for vec, spec in zip(inputs, specs):
            key = (vec, spec.weight)
            if key not in activations:
                activations[key] = simulated_activation_probability(vec, spec.weight)
            p = activations[key]
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


def _result(input_vec: BinaryVector, p: float, mode: str, threshold: float) -> RunResult:
    p = _clamp_probability(p)
    return RunResult(input_vec.label(), p, mode, None, p > threshold)


def hybrid_exact(
    net: NetworkSpec,
    input_vec: BinaryVector,
    threshold: float = DEFAULT_THRESHOLD,
) -> RunResult:
    """Exact output law of the hybrid network, read from the last law of the
    forward pass.  Handles any depth; each layer costs up to 2**(width of the
    layer before) times 2**(its own width), added across layers."""
    if len(net.layers) < 2:
        raise UnsupportedTopology("feed-forward execution needs at least two layers")
    net.output_neuron  # validates single output node
    *_, law = _layer_laws(net, input_vec)
    return _result(input_vec, float(law[1]), "hybrid", threshold)


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


def coherent_exact(
    net: NetworkSpec,
    input_vec: BinaryVector,
    threshold: float = DEFAULT_THRESHOLD,
) -> RunResult:
    """Exact coherent run: simulate the gates of the coherent circuit, trace
    out everything but the qubit it measures into bit 0, and read the
    excited population."""
    circuit = coherent_measured_circuit(net, input_vec)
    *gates, readout = circuit.ops
    rho = reduced_density_matrix(simulate_state(Circuit(circuit.num_qubits, 0, gates)), readout.qubit)
    return _result(input_vec, float(rho[1, 1].real), "coherent", threshold)


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
