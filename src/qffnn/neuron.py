"""Quantum perceptron nodes over sign vectors.

A node processes a classical input vector i and weight vector w, both with
entries in {-1, +1} and length m = 2**N.  The input is stored on N qubits as
a real equally-weighted (REW) state whose amplitude at basis index j is
i[j]/sqrt(m).  Every REW state is a hypergraph state: it is reachable from
the uniform superposition by Z, CZ and multi-controlled-Z sign flips alone.
A Z-type gate on the qubit set S flips the sign of every basis index that
contains S, so the gates a vector needs are the algebraic normal form of its
sign pattern j -> [i_j != i_0]; the synthesis routine below computes it with
``simulator.subset_xor_transform`` on the label bitmask and emits at most m-1
gates.  The simulator runs the same transform the other way to fold those
gates back into one sign multiply.

The weight stage reuses the same sign-flip synthesis followed by Hadamard and
X on every encoding qubit; it maps the weight's own REW state onto |1...1>,
so after input preparation and weight transform the amplitude on |1...1>
equals the normalized overlap i.w/m.  A multi-controlled NOT copies that
component onto an ancilla, whose excitation probability (i.w/m)**2 is the
node's activation.

Pattern labels: a length-m sign vector is identified with the integer whose
bit k is 0 for entry +1 and 1 for entry -1; ``BinaryVector`` stores just m
and that bitmask.  For m = 4 the entries are read as 2x2 pixels in row-major
order (entry 0 top-left, entry 3 bottom-right), +1 drawn filled and -1 empty;
the full-row images get labels 12 and 3, the full-column images 10 and 5.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .simulator import Circuit, GateOp, h, mcx, simulate_state, subset_xor_transform, x


@dataclass(frozen=True, slots=True, init=False)
class BinaryVector:
    """Sign vector with entries in {-1, +1} and power-of-two length ``m``,
    stored as ``m`` and its label bitmask (bit k set iff entry k is -1)."""

    m: int
    mask: int

    def __init__(self, entries: Iterable[int]) -> None:
        try:
            signs = list(map(operator.index, entries))
        except TypeError:
            signs = [0]  # not a sign, so refused below
        if not set(signs) <= {-1, 1}:
            raise ValueError("entries must be the integers -1 or +1")
        self._set(len(signs), int("0" + "".join(["1" if e < 0 else "0" for e in reversed(signs)]), 2))

    def _set(self, m: int, mask: int) -> None:
        if m < 2 or m & (m - 1):
            raise ValueError("length must be a power of two >= 2")
        if not 0 <= mask < (1 << m):
            raise ValueError(f"label {mask} out of range for m={m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_label(cls, label: int, m: int) -> "BinaryVector":
        vec = object.__new__(cls)
        vec._set(m, label)
        return vec

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple([-1 if c == "1" else 1 for c in reversed(f"{self.mask:0{self.m}b}")])

    @property
    def num_qubits(self) -> int:
        return self.m.bit_length() - 1

    def label(self) -> int:
        return self.mask

    def negated(self) -> "BinaryVector":
        return BinaryVector.from_label(self.mask ^ ((1 << self.m) - 1), self.m)

    def dot(self, other: "BinaryVector") -> int:
        if other.m != self.m:
            raise ValueError("length mismatch")
        return self.m - 2 * (self.mask ^ other.mask).bit_count()


@dataclass(frozen=True, slots=True)
class NeuronSpec:
    """One node: weight vector plus its qubit assignment.

    ``ancilla_qubit`` is None for nodes read out directly on their encoding
    qubit (only meaningful for single-qubit nodes, e.g. an output node).
    """

    weight: BinaryVector
    encoding_qubits: tuple[int, ...]
    ancilla_qubit: int | None = None

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.encoding_qubits)
        object.__setattr__(self, "encoding_qubits", qubits)
        if len(qubits) != self.weight.num_qubits:
            raise ValueError("encoding register size does not match weight length")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate encoding qubit")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative encoding qubit in {qubits}")
        if self.ancilla_qubit is not None and self.ancilla_qubit < 0:
            raise ValueError(f"negative ancilla qubit {self.ancilla_qubit}")
        if self.ancilla_qubit is not None and self.ancilla_qubit in qubits:
            raise ValueError("ancilla must be distinct from encoding qubits")

    @property
    def all_qubits(self) -> tuple[int, ...]:
        if self.ancilla_qubit is None:
            return self.encoding_qubits
        return self.encoding_qubits + (self.ancilla_qubit,)


def _register(vec: BinaryVector, qubits: Sequence[int] | None) -> tuple[int, ...]:
    qubits = tuple(qubits) if qubits is not None else tuple(range(vec.num_qubits))
    if len(qubits) != vec.num_qubits:
        raise ValueError("qubit count does not match vector length")
    return qubits


def hypergraph_sign_synthesis(vec: BinaryVector, qubits: Sequence[int] | None = None) -> tuple[list[GateOp], int]:
    """Sign-flip gate cascade (HSGS) preparing ``vec`` from the uniform state.

    Returns (gates, global_sign) with gates on ``qubits`` (default 0..N-1;
    qubits[k] encodes bit k of the basis index) such that applying them to
    |+>^N gives global_sign times the REW state of ``vec`` exactly.  If the
    first entry is -1 the vector is negated up front and the -1 is reported
    as the (unobservable) global sign instead of being synthesized.

    Bit j of the (possibly complemented) label f says whether entry j must be
    flipped.  The gate on the qubits set in j flips every index containing j,
    so f[j] is the XOR of the gate bits g[s] over all subsets s of j, and g is
    recovered by the subset-XOR transform of f.  Index 0 is a subset only of
    itself, so g[0] = f[0] = 0 and at most m-1 gates come out.  They are
    emitted in order of increasing Hamming weight, ties by index.
    """
    qubits = _register(vec, qubits)
    global_sign = -1 if vec.mask & 1 else 1
    f = vec.mask ^ ((1 << vec.m) - 1) if global_sign == -1 else vec.mask
    f = subset_xor_transform(f, vec.num_qubits)
    gates: list[GateOp] = []
    flips = [j for j, bit in enumerate(bin(f)[:1:-1]) if bit == "1"]
    # flips is in index order and the sort is stable: (Hamming weight, index)
    for j in sorted(flips, key=int.bit_count):
        on = tuple(q for k, q in enumerate(qubits) if (j >> k) & 1)
        gates.append(GateOp(("Z", "CZ", "MCZ")[min(len(on), 3) - 1], on))
    return gates, global_sign


def input_preparation_ops(vec: BinaryVector, qubits: Sequence[int] | None = None) -> list[GateOp]:
    """Gates taking |0...0> to the REW state of ``vec`` (up to global sign):
    Hadamard on every encoding qubit, then the sign-flip cascade."""
    qubits = _register(vec, qubits)
    return [h(q) for q in qubits] + hypergraph_sign_synthesis(vec, qubits)[0]


def weight_transform_ops(vec: BinaryVector, qubits: Sequence[int] | None = None) -> list[GateOp]:
    """Gates mapping the REW state of ``vec`` onto |1...1> (up to global sign).

    The diagonal sign cascade is self-inverse, so running it first rotates the
    weight state back to the uniform superposition; Hadamards then X gates
    finish the job.  For a single-qubit node this collapses to one or two
    gates because X.H.Z == H exactly.
    """
    qubits = _register(vec, qubits)
    gates, _ = hypergraph_sign_synthesis(vec, qubits)
    if vec.num_qubits == 1:
        return [h(qubits[0])] if gates else [h(qubits[0]), x(qubits[0])]
    return gates + [h(q) for q in qubits] + [x(q) for q in qubits]


def node_ops(input_vec: BinaryVector, spec: NeuronSpec) -> list[GateOp]:
    """Full gate sequence of one node: input preparation, weight transform,
    and (when an ancilla is assigned) the activation MCX."""
    if input_vec.m != spec.weight.m:
        raise ValueError("input length does not match weight length")
    ops = input_preparation_ops(input_vec, spec.encoding_qubits)
    ops += weight_transform_ops(spec.weight, spec.encoding_qubits)
    if spec.ancilla_qubit is not None:
        ops.append(mcx(spec.encoding_qubits, spec.ancilla_qubit))
    return ops


def neuron_circuit(input_vec: BinaryVector, weight_vec: BinaryVector) -> Circuit:
    """Standalone (N+1)-qubit node circuit with the ancilla measured into
    classical bit 0."""
    n = input_vec.num_qubits
    spec = NeuronSpec(weight_vec, tuple(range(n)), n)
    circuit = Circuit(n + 1, 1)
    circuit.extend(node_ops(input_vec, spec))
    circuit.measure(n, 0)
    return circuit


def activation_probability(input_vec: BinaryVector, weight_vec: BinaryVector) -> float:
    """Closed-form activation (i.w)**2 / m**2, the oracle the circuits must match."""
    if input_vec.m != weight_vec.m:
        raise ValueError("length mismatch")
    d = input_vec.dot(weight_vec)
    return (d * d) / (input_vec.m * input_vec.m)


def simulated_activation_probability(input_vec: BinaryVector, weight_vec: BinaryVector) -> float:
    """Activation computed by statevector simulation of the node's unitary part:
    the Born weight of |1...1> after input preparation and weight transform."""
    if input_vec.m != weight_vec.m:
        raise ValueError("length mismatch")
    n = input_vec.num_qubits
    circuit = Circuit(n)
    circuit.extend(input_preparation_ops(input_vec))
    circuit.extend(weight_transform_ops(weight_vec))
    amps = simulate_state(circuit)
    return float(abs(amps[input_vec.m - 1]) ** 2)
