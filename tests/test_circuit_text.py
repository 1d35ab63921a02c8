"""Circuit listing format: rendering, and round trips through the test reader."""

import numpy as np

from qffnn.circuit_text import format_circuit, format_op
from qffnn.network import build_hybrid_circuit, coherent_measured_circuit, line_recognition_network, mode_circuit
from qffnn.neuron import BinaryVector
from qffnn.simulator import Circuit, GateOp, MeasureOp, defer_measurements, h, mcx, run_circuit_exact
from reference import read_listing, z

NET = line_recognition_network()


def test_format_single_ops():
    assert format_op(h(3)) == "H 3"
    assert format_op(GateOp("CZ", (2, 6))) == "CZ 2 6"
    assert format_op(GateOp("MCZ", (2, 0, 1))) == "MCZ 0 1 2"
    assert format_op(mcx((0, 1), 5)) == "MCX 5 0 1"
    assert format_op(z(6).conditioned_on(1)) == "Z 6 if c1=1"
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
    # the coherent listings carry each deferred condition as a CZ onto the output qubit
    for mode in ("hybrid", "coherent"):
        for label in (0, 7, 13):
            circuit = mode_circuit(NET, BinaryVector.from_label(label, 4), mode)
            parsed = read_listing(format_circuit(circuit))
            assert parsed.num_qubits == circuit.num_qubits
            assert parsed.num_clbits == circuit.num_clbits
            assert parsed.ops == circuit.ops
            assert np.array_equal(run_circuit_exact(parsed), run_circuit_exact(circuit))


def test_parse_condition_round_trip():
    # deferred, a conditioned Z or CZ becomes a CZ or MCZ on the measured qubit as well
    circuit = Circuit(3, 1).measure(0, 0)
    circuit.append(z(1).conditioned_on(0), GateOp("CZ", (1, 2)).conditioned_on(0))
    for form in (circuit, defer_measurements(circuit)):
        assert read_listing(format_circuit(form)).ops == form.ops
