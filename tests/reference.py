"""Test references that use only the package's data types, none of its
computations: the closed-form node activation, a reader of circuit listings,
and a dense simulator and per-shot sampler.

A 2x2 matrix acts on qubit q through the amplitudes viewed with shape
(2**(n-1-q), 2, 2**q).  A gate with target t and controls C is the operator
1 + P1(C) (U - 1)(t), with P1 = |1><1| and U = H, X or Z (Z, CZ and MCZ take
their first qubit as t).  Outcome b of a measurement applies diag(1 - b, b).
"""

import numpy as np

from qffnn.neuron import BinaryVector
from qffnn.simulator import Circuit, GateOp, MeasureOp

_X, _Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
_MATRICES = {"H": (_X + _Z) / np.sqrt(2.0), "X": _X, "MCX": _X, "Z": _Z, "CZ": _Z, "MCZ": _Z}
# U - 1 per gate kind, complex so that no product casts
U_MINUS_1 = {kind: (u - np.eye(2)).astype(complex) for kind, u in _MATRICES.items()}
P1 = np.diag([0.0, 1.0]).astype(complex)


def dot(a: BinaryVector, b: BinaryVector) -> int:
    """Dot product of two sign vectors of the same length, from their entries."""
    return sum(x * y for x, y in zip(a.entries, b.entries, strict=True))


def activation_probability(input_vec: BinaryVector, weight_vec: BinaryVector) -> float:
    """Closed-form activation (i.w)**2 / m**2, the oracle the circuits must match."""
    d = dot(input_vec, weight_vec)
    return (d * d) / (input_vec.m * input_vec.m)


def negated(vec: BinaryVector) -> BinaryVector:
    return BinaryVector(tuple(-e for e in vec.entries))


def z(qubit: int) -> GateOp:
    return GateOp("Z", (qubit,))


def read_listing(text: str) -> Circuit:
    """Circuit from a listing that ``circuit_text.format_circuit`` wrote; it
    reads only well-formed listings and checks nothing."""
    (_, qubits), (_, clbits), *lines = (line.split() for line in text.splitlines())
    ops: list = []
    for kind, *tokens in lines:
        if kind == "MEASURE":
            ops.append(MeasureOp(int(tokens[0]), int(tokens[2][1:])))
            continue
        condition = None
        if "if" in tokens:
            *tokens, _, clause = tokens
            condition = int(clause[1:].split("=")[0])
        listed = tuple(map(int, tokens))
        split = 1 if kind == "MCX" else len(listed)  # MCX lists its target first
        ops.append(GateOp(kind, listed[:split], listed[split:], condition))
    return Circuit(int(qubits), int(clbits), ops)


def _on_qubit(mat: np.ndarray, amps: np.ndarray, qubit: int) -> np.ndarray:
    return (mat @ amps.reshape(-1, 2, 1 << qubit)).reshape(-1)


def apply_gate(amps: np.ndarray, gate: GateOp) -> np.ndarray:
    """Amplitudes after ``gate``; a classical condition is not looked at."""
    target, *controls = gate.participants
    term = _on_qubit(U_MINUS_1[gate.kind], amps, target)
    for control in controls:
        term = _on_qubit(P1, term, control)
    return amps + term


def run_gates(gates, amps: np.ndarray) -> np.ndarray:
    for gate in gates:
        amps = apply_gate(amps, gate)
    return amps


def zero_state(num_qubits: int) -> np.ndarray:
    return np.eye(1, 1 << num_qubits, dtype=complex)[0]


def rew_amplitudes(entries) -> np.ndarray:
    """REW state of a sign vector: amplitude entries[j]/sqrt(m) at index j."""
    return np.asarray(entries, dtype=complex) / np.sqrt(len(entries))


def marginal_probabilities(amps: np.ndarray, qubits) -> np.ndarray:
    """Born probabilities of ``qubits``; outcome index bit k is qubits[k]."""
    n = amps.size.bit_length() - 1
    probs = np.abs(amps.reshape([2] * n)) ** 2  # qubit q is axis n-1-q
    return np.einsum(probs, list(range(n)), [n - 1 - q for q in reversed(qubits)]).reshape(-1)


def outcome_law(circuit: Circuit) -> dict[str, float]:
    """Exact law of the classical register by branch enumeration: a branch is
    an unnormalised state and its classical bits, outcome b of a measurement
    keeps diag(1 - b, b) of the state, and the probability of an outcome is
    the squared norm of its branches."""
    branches = [(zero_state(circuit.num_qubits), (0,) * circuit.num_clbits)]
    for op in circuit.ops:
        if isinstance(op, MeasureOp):
            split = []
            for amps, bits in branches:
                for bit in (0, 1):
                    kept = _on_qubit(np.diag([1.0 - bit, bit]), amps, op.qubit)
                    if kept.any():
                        split.append((kept, bits[: op.clbit] + (bit,) + bits[op.clbit + 1 :]))
            branches = split
        else:
            cond = op.classical_condition
            branches = [
                (apply_gate(amps, op) if cond is None or bits[cond] else amps, bits)
                for amps, bits in branches
            ]
    law: dict[str, float] = {}
    for amps, bits in branches:
        key = "".join(str(b) for b in reversed(bits))
        law[key] = law.get(key, 0.0) + float(np.vdot(amps, amps).real)
    return law


def sample_counts(circuit: Circuit, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Per-shot sampler: each shot runs the circuit on its own state and
    classical register, with one ``rng.random()`` draw per measurement."""
    counts: dict[str, int] = {}
    for _ in range(shots):
        amps, bits = zero_state(circuit.num_qubits), [0] * circuit.num_clbits
        for op in circuit.ops:
            if isinstance(op, MeasureOp):
                p1 = marginal_probabilities(amps, [op.qubit])[1]
                bits[op.clbit] = bit = int(rng.random() < p1)
                amps = _on_qubit(np.diag([1.0 - bit, bit]), amps, op.qubit) / np.sqrt(p1 if bit else 1.0 - p1)
            elif op.classical_condition is None or bits[op.classical_condition]:
                amps = apply_gate(amps, op)
        key = "".join(str(b) for b in reversed(bits))
        counts[key] = counts.get(key, 0) + 1
    return counts
