"""Circuit listing format: rendering, parsing, round-trip fidelity."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qffnn.circuit_text import format_circuit, format_op, parse_circuit
from qffnn.network import build_hybrid_circuit, coherent_measured_circuit, line_recognition_network
from qffnn.neuron import BinaryVector
from qffnn.simulator import MAX_QUBITS, Circuit, GateOp, MeasureOp, h, mcx, run_circuit_exact, z

NET = line_recognition_network()


def test_format_single_ops():
    assert format_op(h(3)) == "H 3"
    assert format_op(GateOp("CZ", (2, 6))) == "CZ 2 6"
    assert format_op(GateOp("MCZ", (2, 0, 1))) == "MCZ 0 1 2"
    assert format_op(mcx((0, 1), 5)) == "MCX 5 0 1"
    assert format_op(z(6).conditioned_on(1, 1)) == "Z 6 if c1=1"
    assert format_op(MeasureOp(2, 1)) == "MEASURE 2 -> c1"


def test_hybrid_listing_contains_conditioned_z_gates():
    text = format_circuit(build_hybrid_circuit(NET, BinaryVector.from_label(7, 4)))
    assert "Z 6 if c1=1" in text
    assert "Z 6 if c2=1" in text
    assert "MEASURE 6 -> c0" in text


def test_coherent_listing_structure_for_label_0():
    lines = format_circuit(coherent_measured_circuit(NET, BinaryVector.from_label(0, 4))).splitlines()
    assert lines[0] == "qubits 7"
    assert sum(1 for line in lines if line.startswith("MCX")) == 2
    assert [line for line in lines if line.startswith("CZ")] == ["CZ 2 6", "CZ 5 6"]
    assert not any("if c" in line for line in lines)


def test_round_trip_preserves_structure_and_statistics():
    for label in (0, 7, 13):
        circuit = build_hybrid_circuit(NET, BinaryVector.from_label(label, 4))
        parsed = parse_circuit(format_circuit(circuit))
        assert parsed.num_qubits == circuit.num_qubits
        assert parsed.num_clbits == circuit.num_clbits
        assert parsed.ops == circuit.ops
        assert run_circuit_exact(parsed) == run_circuit_exact(circuit)


def test_parse_ignores_comments_and_blank_lines():
    text = "qubits 2\nclbits 1\n# prep\nH 0\n\nMEASURE 0 -> c0\n"
    circuit = parse_circuit(text)
    assert len(circuit.ops) == 2


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_circuit("qubits 2\nFROB 0\n")
    with pytest.raises(ValueError):
        parse_circuit("H 0\n")  # missing header
    with pytest.raises(ValueError):
        parse_circuit("qubits 2\nclbits 1\nMEASURE 0 c0\n")


def test_parse_rejects_a_register_past_the_qubit_cap():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"num_qubits must be in 1..{MAX_QUBITS}, got 40"):
            parse_circuit("qubits 40\nclbits 1\nH 0\nMEASURE 0 -> c0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "text, number, line",
    [
        ("qubits\n", 1, "qubits"),
        ("qubits x\n", 1, "qubits x"),
        ("qubits 2\nclbits 1\nMCX\n", 3, "MCX"),
        ("qubits 2\nclbits 1\nMEASURE 1 -> cx\n", 3, "MEASURE 1 -> cx"),
        ("qubits 2\nclbits 1\nMEASURE 0 -> c0\n\nH 0 if c0=1=2\n", 5, "H 0 if c0=1=2"),
    ],
)
def test_parse_names_the_malformed_line(text, number, line):
    with pytest.raises(ValueError) as excinfo:
        parse_circuit(text)
    message = str(excinfo.value)
    assert message.startswith(f"line {number}: ") and message.endswith(repr(line))
    assert "invalid literal" not in message and "unpack" not in message


def test_parse_condition_round_trip():
    circuit = Circuit(2, 1)
    circuit.measure(0, 0)
    circuit.append(z(1).conditioned_on(0, 0))
    parsed = parse_circuit(format_circuit(circuit))
    assert parsed.ops == circuit.ops


TOKENS = ["qubits", "clbits", "H", "X", "Z", "CZ", "MCZ", "MCX", "MEASURE", "->", "if", "#"]
TOKENS += ["c0", "c1", "c0=1", "c1=0", "c=1", "c0=", "cx", "0", "1", "2", "3", "13", "-1", "x", "\u0661"]
LISTINGS = st.lists(
    st.lists(st.sampled_from(TOKENS) | st.text(max_size=4), max_size=6).map(" ".join), max_size=8
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(LISTINGS | LISTINGS.map(lambda text: "qubits 3\nclbits 2\n" + text))
def test_parse_accepts_or_raises_value_error_on_token_soup(text):
    try:
        parse_circuit(text)
    except ValueError:
        pass
