"""Plain-text circuit listings.

Grammar (one op per line, ops in execution order):

    qubits <n>
    clbits <n>
    H <q> | X <q> | Z <q>            single-qubit gates
    CZ <q> <q>                       two-qubit phase flip (symmetric)
    MCZ <q> <q> <q> [...]            phase flip where all listed qubits are 1
    MCX <target> <control> [...]     NOT on target where all controls are 1
    MEASURE <q> -> c<k>              measure qubit q into classical bit k

Any gate line may end with ``if c<k>=<v>`` to condition it on classical bit k
holding v.  Blank lines and lines starting with ``#`` are ignored.  Qubit and
classical-bit indices are the circuit's own; ordering is stable, so a dump
parsed back yields an equivalent circuit.
"""

from __future__ import annotations

from .simulator import Circuit, GateOp, MeasureOp


def format_op(op: GateOp | MeasureOp) -> str:
    if isinstance(op, MeasureOp):
        return f"MEASURE {op.qubit} -> c{op.clbit}"
    line = " ".join([op.kind, *map(str, op.targets + op.controls)])
    if op.classical_condition is not None:
        clbit, value = op.classical_condition
        line += f" if c{clbit}={value}"
    return line


def format_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.num_qubits}", f"clbits {circuit.num_clbits}"]
    lines.extend(format_op(op) for op in circuit.ops)
    return "\n".join(lines) + "\n"


def _parse_condition(tokens: list[str]) -> tuple[list[str], tuple[int, int] | None]:
    if len(tokens) >= 2 and tokens[-2] == "if":
        clause = tokens[-1]
        if not clause.startswith("c") or "=" not in clause:
            raise ValueError(f"malformed condition {clause!r}")
        clbit, value = clause[1:].split("=")
        return tokens[:-2], (int(clbit), int(value))
    return tokens, None


def parse_circuit(text: str) -> Circuit:
    num_qubits: int | None = None
    num_clbits = 0
    ops: list[GateOp | MeasureOp] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "qubits":
            num_qubits = int(tokens[1])
        elif head == "clbits":
            num_clbits = int(tokens[1])
        elif head == "MEASURE":
            if len(tokens) != 4 or tokens[2] != "->" or not tokens[3].startswith("c"):
                raise ValueError(f"malformed measure line {line!r}")
            ops.append(MeasureOp(int(tokens[1]), int(tokens[3][1:])))
        elif head in ("H", "X", "Z", "CZ", "MCZ", "MCX"):
            tokens, condition = _parse_condition(tokens)
            qubits = [int(t) for t in tokens[1:]]
            if head == "MCX":
                op = GateOp(head, (qubits[0],), tuple(qubits[1:]), condition)
            else:
                op = GateOp(head, tuple(qubits), (), condition)
            ops.append(op)
        else:
            raise ValueError(f"unknown line {line!r}")
    if num_qubits is None:
        raise ValueError("missing 'qubits' header")
    circuit = Circuit(num_qubits, num_clbits, ops)
    circuit.validate()
    return circuit
