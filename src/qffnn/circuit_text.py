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

from .simulator import GATE_KINDS, Circuit, GateOp, MeasureOp


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


def _number(token: str, what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{what} {token!r} is not a non-negative integer")
    return int(token)


def _parse_condition(tokens: list[str]) -> tuple[list[str], tuple[int, int] | None]:
    if len(tokens) >= 2 and tokens[-2] == "if":
        clause = tokens[-1]
        clbit, sep, value = clause[1:].partition("=")
        if not clause.startswith("c") or not sep:
            raise ValueError(f"malformed condition {clause!r}")
        return tokens[:-2], (_number(clbit, "classical bit"), _number(value, "condition value"))
    return tokens, None


def _parse_op(tokens: list[str]) -> GateOp | MeasureOp:
    head = tokens[0]
    if head == "MEASURE":
        if len(tokens) != 4 or tokens[2] != "->" or not tokens[3].startswith("c"):
            raise ValueError("malformed measure line")
        return MeasureOp(_number(tokens[1], "qubit"), _number(tokens[3][1:], "classical bit"))
    if head not in GATE_KINDS:
        raise ValueError(f"unknown op {head!r}")
    tokens, condition = _parse_condition(tokens)
    qubits = tuple(_number(t, "qubit") for t in tokens[1:])
    if head == "MCX":
        return GateOp(head, qubits[:1], qubits[1:], condition)
    return GateOp(head, qubits, (), condition)


def parse_circuit(text: str) -> Circuit:
    """Circuit from a listing; a malformed line raises ``ValueError`` naming
    its line number and text."""
    header: dict[str, int | None] = {"qubits": None, "clbits": 0}
    ops: list[GateOp | MeasureOp] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] in header:
                if len(tokens) != 2:
                    raise ValueError(f"{tokens[0]} takes one count")
                header[tokens[0]] = _number(tokens[1], f"{tokens[0]} count")
            else:
                ops.append(_parse_op(tokens))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}: {line!r}") from None
    if header["qubits"] is None:
        raise ValueError("missing 'qubits' header")
    circuit = Circuit(header["qubits"], header["clbits"], ops)
    circuit.validate()
    return circuit
