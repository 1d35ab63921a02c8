"""Plain-text circuit listings.

Grammar (one op per line, ops in execution order):

    qubits <n>
    clbits <n>
    H <q> | X <q> | Z <q>            single-qubit gates
    CZ <q> <q>                       two-qubit phase flip (symmetric)
    MCZ <q> <q> <q> [...]            phase flip where all listed qubits are 1
    MCX <target> <control> [...]     NOT on target where all controls are 1
    MEASURE <q> -> c<k>              measure qubit q into classical bit k

Only a Z, CZ or MCZ line may end with ``if c<k>=1``: it fires when classical
bit k reads 1.  Qubit and classical-bit indices are the circuit's own, and ops
are listed in the circuit's order, so the same circuit gives the same text.
"""

from __future__ import annotations

from .simulator import Circuit, GateOp, MeasureOp


def format_op(op: GateOp | MeasureOp) -> str:
    if isinstance(op, MeasureOp):
        return f"MEASURE {op.qubit} -> c{op.clbit}"
    line = " ".join([op.kind, *map(str, op.targets + op.controls)])
    if op.classical_condition is not None:
        line += f" if c{op.classical_condition}=1"
    return line


def format_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.num_qubits}", f"clbits {circuit.num_clbits}"]
    lines.extend(format_op(op) for op in circuit.ops)
    return "\n".join(lines) + "\n"
