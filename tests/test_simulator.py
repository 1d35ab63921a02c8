"""Statevector engine tests: gate action against hand values and against the
dense reference (tests/reference.py), measurement, sampling vs exact branch
enumeration vs the per-shot reference sampler, deferred measurement, partial
trace."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qffnn.circuit_text import parse_circuit
from qffnn.simulator import (
    MAX_BRANCHES,
    MAX_QUBITS,
    Circuit,
    Counts,
    GateOp,
    MeasureOp,
    defer_measurements,
    h,
    mcx,
    reduced_density_matrix,
    run_circuit,
    run_circuit_exact,
    simulate_state,
    x,
    z,
)
from reference import marginal_probabilities, outcome_law, run_gates, sample_counts, zero_state

ATOL = 1e-12


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def random_gate(num_qubits: int, rng: np.random.Generator) -> GateOp:
    kind = rng.choice(["H", "X", "Z", "CZ", "MCZ", "MCX"])
    if kind == "CZ" and num_qubits >= 2:
        a, b = rng.choice(num_qubits, size=2, replace=False)
        return GateOp("CZ", (int(a), int(b)))
    if kind == "MCZ" and num_qubits >= 3:
        qs = rng.choice(num_qubits, size=3, replace=False)
        return GateOp("MCZ", tuple(map(int, qs)))
    if kind == "MCX" and num_qubits >= 2:
        k = int(rng.integers(1, num_qubits))
        qs = rng.choice(num_qubits, size=k + 1, replace=False)
        return mcx(tuple(map(int, qs[1:])), int(qs[0]))
    if kind in ("X", "Z"):
        return GateOp(kind, (int(rng.integers(num_qubits)),))
    return h(int(rng.integers(num_qubits)))


def random_unitary_circuit(num_qubits: int, rng: np.random.Generator) -> Circuit:
    """Hadamard on every qubit, then six random gates."""
    circuit = Circuit(num_qubits).extend([h(q) for q in range(num_qubits)])
    return circuit.extend([random_gate(num_qubits, rng) for _ in range(6)])


# ---------------------------------------------------------------------------
# gate application


def test_h_on_zero_gives_plus():
    amps = simulate_state(Circuit(1).append(h(0)))
    assert np.allclose(amps, [np.sqrt(0.5), np.sqrt(0.5)], atol=ATOL)


def test_cz_flips_only_the_all_ones_component():
    amps = simulate_state(Circuit(2).append(h(0), h(1), GateOp("CZ", (0, 1))))
    assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=ATOL)


def test_mcx_swaps_paired_components():
    # basis index 3 = qubits 0,1 set, ancilla qubit 2 clear -> index 7
    amps = simulate_state(Circuit(3).append(x(0), x(1), mcx((0, 1), 2)))
    assert abs(amps[7] - 1.0) < ATOL
    assert abs(amps[3]) < ATOL


def test_mcx_leaves_unselected_components_alone():
    amps = simulate_state(Circuit(3).append(x(0), mcx((0, 1), 2)))  # control qubit 1 is clear
    assert abs(amps[1] - 1.0) < ATOL


def test_apply_gate_rejects_out_of_range_and_duplicates():
    with pytest.raises(ValueError, match="qubit 5 out of range"):
        simulate_state(Circuit(2).append(h(5)))
    with pytest.raises(ValueError):
        GateOp("CZ", (1, 1))
    with pytest.raises(ValueError):
        mcx((0, 0), 1)


def test_apply_gate_rejects_conditioned_gates():
    with pytest.raises(ValueError, match="before any measurement"):
        simulate_state(Circuit(1, 1).append(z(0).conditioned_on(0)))
    with pytest.raises(ValueError, match="only supports unitary circuits"):
        simulate_state(Circuit(1, 1).measure(0, 0).append(z(0).conditioned_on(0)))


def test_qubit_cap_is_checked_before_allocating():
    # 2**40 amplitudes would take 16 TiB; the register size is checked first
    tracemalloc.start()
    try:
        for too_wide in (Circuit(40, 1).append(h(0)).measure(0, 0), Circuit(MAX_QUBITS + 1)):
            with pytest.raises(ValueError, match=f"num_qubits must be in 1..{MAX_QUBITS}"):
                run_circuit_exact(too_wide)
            with pytest.raises(ValueError, match=f"num_qubits must be in 1..{MAX_QUBITS}"):
                simulate_state(Circuit(too_wide.num_qubits))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="num_qubits"):
        run_circuit_exact(Circuit(0))


def test_clbit_cap_is_checked_before_allocating():
    # a million classical bits would put a million-entry list in every branch
    # and a million-character key on every outcome
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"num_clbits must be in 0..{MAX_QUBITS}"):
            parse_circuit("qubits 1\nclbits 1000000\nH 0\nMEASURE 0 -> c0")
        with pytest.raises(ValueError, match=f"num_clbits must be in 0..{MAX_QUBITS}"):
            run_circuit_exact(Circuit(1, 10**6).append(h(0)).measure(0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="num_clbits"):
        simulate_state(Circuit(1, -1))
    widest = Circuit(1, MAX_QUBITS).append(x(0)).measure(0, MAX_QUBITS - 1)
    assert run_circuit_exact(widest) == {"1" + "0" * (MAX_QUBITS - 1): 1.0}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 5))
def test_norm_preserved_by_every_gate(seed, num_qubits):
    circuit = random_unitary_circuit(num_qubits, np.random.default_rng(seed))
    for k in range(num_qubits, len(circuit.ops) + 1):
        amps = simulate_state(Circuit(num_qubits, 0, circuit.ops[:k]))
        assert abs(np.linalg.norm(amps) - 1.0) < ATOL


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_involution_gates_square_to_identity(seed):
    prefix = random_unitary_circuit(4, np.random.default_rng(seed))
    amps = simulate_state(prefix)
    for gate in (x(2), z(1), GateOp("CZ", (0, 3)), GateOp("MCZ", (0, 1, 2)), h(3), mcx((1, 3), 0)):
        twice = simulate_state(Circuit(4, 0, prefix.ops + [gate, gate]))
        assert np.allclose(twice, amps, atol=ATOL)


def unitary_circuits(max_qubits: int) -> st.SearchStrategy:
    """Random measurement-free circuits over every gate kind."""

    def gates(n: int) -> st.SearchStrategy:
        qubits = st.permutations(range(n))
        gate = qubits.flatmap(
            lambda qs: st.sampled_from(
                [h(qs[0]), x(qs[0]), z(qs[0])]
                + ([GateOp("CZ", qs[:2]), mcx(qs[1:2], qs[0]), mcx(qs[1:], qs[0])] if n >= 2 else [])
                + ([GateOp("MCZ", qs[:3]), GateOp("MCZ", qs)] if n >= 3 else [])
            )
        )
        return st.lists(gate, max_size=24).map(lambda ops: Circuit(n, 0, ops))

    return st.integers(1, max_qubits).flatmap(gates)


@settings(max_examples=150, deadline=None)
@given(circuit=unitary_circuits(7))
def test_simulate_state_matches_the_dense_reference(circuit):
    expected = run_gates(circuit.ops, zero_state(circuit.num_qubits))
    assert np.abs(simulate_state(circuit) - expected).max() <= 1e-12


# ---------------------------------------------------------------------------
# probabilities and measurement


def test_exact_probabilities_single_qubit_plus():
    amps = simulate_state(Circuit(1).append(h(0)))
    assert np.allclose(marginal_probabilities(amps, [0]), [0.5, 0.5], atol=ATOL)
    assert run_circuit_exact(Circuit(1, 1).append(h(0)).measure(0, 0)) == pytest.approx({"0": 0.5, "1": 0.5})


def test_exact_probabilities_two_qubit_ones():
    amps = simulate_state(Circuit(2).append(x(0), x(1)))
    assert np.allclose(marginal_probabilities(amps, [0, 1]), [0, 0, 0, 1.0], atol=ATOL)
    # the first listed qubit is the least significant outcome bit
    amps = simulate_state(Circuit(3).append(x(2)))
    assert np.allclose(marginal_probabilities(amps, [2, 0]), [0, 1.0, 0, 0], atol=ATOL)


def test_exact_probabilities_on_a_neuron_state():
    # input label 8 against weight label 12: overlap 2/4, so p(1) = 0.25
    from qffnn.neuron import BinaryVector, NeuronSpec, node_ops

    circuit = Circuit(3)
    spec = NeuronSpec(BinaryVector.from_label(12, 4), (0, 1), 2)
    circuit.extend(node_ops(BinaryVector.from_label(8, 4), spec))
    table = marginal_probabilities(simulate_state(circuit), [2])
    assert abs(table[1] - 0.25) < ATOL


def test_measure_excited_state_is_deterministic():
    circuit = Circuit(1, 1).append(x(0)).measure(0, 0)
    assert run_circuit_exact(circuit) == {"1": 1.0}
    assert run_circuit(circuit, 100, np.random.default_rng(0)).counts == {"1": 100}


def test_measure_plus_state_statistics_and_reproducibility():
    plus = Circuit(1, 1).append(h(0)).measure(0, 0)

    def counts(seed, shots=100_000):
        return run_circuit(plus, shots, np.random.default_rng(seed))

    first = counts(123)
    assert first == counts(123)
    freq = first.marginal_probability(0)
    sigma = np.sqrt(0.25 / first.total_shots)
    assert abs(freq - 0.5) <= 5 * sigma


def test_measure_collapses_entangled_partner():
    bell = Circuit(2, 2).append(h(0), mcx((0,), 1)).measure(0, 0).measure(1, 1)
    assert run_circuit_exact(bell) == pytest.approx({"00": 0.5, "11": 0.5}, abs=ATOL)
    assert set(run_circuit(bell, 20, np.random.default_rng(5)).counts) == {"00", "11"}


# ---------------------------------------------------------------------------
# circuit execution


def test_run_circuit_classical_control_correlates_bits():
    circuit = Circuit(2, 2)
    circuit.append(h(0))
    circuit.measure(0, 0)
    circuit.append(x(1).conditioned_on(0, 1))
    circuit.measure(1, 1)
    counts = run_circuit(circuit, 4000, np.random.default_rng(11))
    assert set(counts.counts) <= {"00", "11"}
    assert counts.total_shots == 4000
    assert 0.4 < counts.counts["11"] / counts.total_shots < 0.6


def test_run_circuit_takes_shots_in_the_int64_range():
    circuit = Circuit(1, 1)
    circuit.append(h(0))
    circuit.measure(0, 0)
    top = 2**63 - 1
    assert run_circuit(circuit, top, np.random.default_rng(0)).total_shots == top
    for shots in (0, top + 1):
        with pytest.raises(ValueError, match="shots must lie in"):
            run_circuit(circuit, shots, np.random.default_rng(0))


def test_run_circuit_empty_circuit():
    counts = run_circuit(Circuit(1, 0), 100, np.random.default_rng(0))
    assert counts.counts == {"": 100}


def test_marginal_probability_rejects_out_of_range_bits():
    counts = Counts({"01": 3, "11": 1}, 4)
    assert (counts.marginal_probability(0), counts.marginal_probability(1, value=0)) == (1.0, 0.75)
    for clbit in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            counts.marginal_probability(clbit)
    # a circuit without measurements gives zero-width keys: no bit to read
    no_bits = run_circuit(Circuit(1, 0), 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="out of range"):
        no_bits.marginal_probability(0)


def test_run_circuit_rejects_condition_before_measurement():
    circuit = Circuit(1, 1)
    circuit.append(z(0).conditioned_on(0, 1))
    circuit.measure(0, 0)
    with pytest.raises(ValueError):
        run_circuit(circuit, 10, np.random.default_rng(0))


def test_run_circuit_matched_node_activates_every_shot():
    from qffnn.neuron import BinaryVector, neuron_circuit

    vec = BinaryVector.from_label(12, 4)
    counts = run_circuit(neuron_circuit(vec, vec), 10_000, np.random.default_rng(3))
    assert counts.counts == {"1": 10_000}


def test_run_circuit_exact_single_hadamard():
    circuit = Circuit(1, 1)
    circuit.append(h(0))
    circuit.measure(0, 0)
    dist = run_circuit_exact(circuit)
    assert abs(dist["0"] - 0.5) < ATOL and abs(dist["1"] - 0.5) < ATOL


@pytest.mark.parametrize("label,expected", [(8, 0.375), (12, 1.0)])
def test_run_circuit_exact_full_hybrid_network(label, expected):
    from qffnn.network import build_hybrid_circuit, line_recognition_network
    from qffnn.neuron import BinaryVector

    circuit = build_hybrid_circuit(line_recognition_network(), BinaryVector.from_label(label, 4))
    dist = run_circuit_exact(circuit)
    p_out = sum(p for key, p in dist.items() if key[-1] == "1")  # classical bit 0 is output
    assert abs(p_out - expected) < ATOL
    assert abs(sum(dist.values()) - 1.0) < ATOL


def _random_circuit(
    rng: np.random.Generator, num_qubits: int, num_gates: int, num_clbits: int
) -> Circuit:
    circuit = Circuit(num_qubits, num_clbits)
    written: list[int] = []
    for _ in range(num_gates):
        if len(written) < num_clbits and rng.random() < 0.2:
            circuit.measure(int(rng.integers(num_qubits)), len(written))
            written.append(len(written))
            continue
        gate = random_gate(num_qubits, rng)
        if written and rng.random() < 0.3:
            gate = gate.conditioned_on(int(rng.choice(written)), int(rng.integers(2)))
        circuit.append(gate)
    for clbit in range(len(written), num_clbits):
        circuit.measure(int(rng.integers(num_qubits)), clbit)
    return circuit


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampled_counts_match_exact_distribution(seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, num_qubits=7, num_gates=30, num_clbits=3)
    exact = run_circuit_exact(circuit)
    shots = 100_000
    counts = run_circuit(circuit, shots, np.random.default_rng(seed + 1000))
    assert set(counts.counts) <= set(exact)
    for key, p in exact.items():
        p = min(max(p, 0.0), 1.0)
        sigma = np.sqrt(p * (1.0 - p) / shots)
        assert abs(counts.counts.get(key, 0) / shots - p) <= 5 * sigma + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reference_sampler_matches_exact_distribution(seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, num_qubits=7, num_gates=30, num_clbits=3)
    exact = run_circuit_exact(circuit)
    shots = 1500
    counts = sample_counts(circuit, shots, np.random.default_rng(seed + 2000))
    assert set(counts) <= set(exact)
    for key, p in exact.items():
        p = min(max(p, 0.0), 1.0)
        sigma = np.sqrt(p * (1.0 - p) / shots)
        assert abs(counts.get(key, 0) / shots - p) <= 5 * sigma + 1e-9


def _alternating_h_measure(num_measurements: int) -> Circuit:
    circuit = Circuit(1, 1)
    for _ in range(num_measurements):
        circuit.append(h(0))
        circuit.measure(0, 0)
    return circuit


@st.composite
def conditioned_runs(draw) -> Circuit:
    """Random 2-7 qubit circuits of long Z, CZ and MCZ runs, with H, X and MCX
    between them, measurements inside runs and conditions that change in the
    middle of a run."""
    num_qubits, num_clbits = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    circuit = Circuit(num_qubits, num_clbits).extend([h(q) for q in range(num_qubits)])
    written: list[int] = []
    cond = None
    for _ in range(draw(st.integers(1, 40))):
        step = draw(st.integers(0, 9))
        qubits = draw(st.permutations(range(num_qubits)))
        if step == 0 and len(written) < 6:
            clbit = draw(st.sampled_from(range(num_clbits)))
            circuit.measure(qubits[0], clbit)
            written.append(clbit)
            continue
        if step == 1 and written:
            cond = draw(st.sampled_from([None] + [(c, v) for c in written for v in (0, 1)]))
            continue
        if step == 2:
            gate = draw(st.sampled_from([h(qubits[0]), x(qubits[0]), mcx(qubits[1 : 1 + draw(st.integers(1, 2))], qubits[0])]))
        else:
            on = qubits[: draw(st.integers(1, num_qubits))]
            gate = GateOp(("Z", "CZ", "MCZ")[min(len(on), 3) - 1], on)
        circuit.append(gate if cond is None else gate.conditioned_on(*cond))
    for clbit in range(num_clbits):
        circuit.measure(draw(st.sampled_from(range(num_qubits))), clbit)
    return circuit


@settings(max_examples=200, deadline=None)
@given(circuit=conditioned_runs())
def test_run_circuit_exact_matches_the_branch_reference(circuit):
    law, expected = run_circuit_exact(circuit), outcome_law(circuit)
    for key in set(law) | set(expected):
        assert abs(law.get(key, 0.0) - expected.get(key, 0.0)) <= 1e-12


def test_run_circuit_exact_caps_branches():
    # every H-then-measure doubles the branches: 14 rounds would make 2**14
    assert MAX_BRANCHES == 2**13
    with pytest.raises(ValueError, match="16384 branches.*8192"):
        run_circuit_exact(_alternating_h_measure(14))


def test_branch_cap_raises_before_allocating_branch_states(monkeypatch):
    import qffnn.simulator

    monkeypatch.setattr(qffnn.simulator, "MAX_BRANCHES", 2**9)
    tracemalloc.start()
    try:
        dist = run_circuit_exact(_alternating_h_measure(9))
        _, peak_at_cap = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match="1024 branches.*512"):
            run_circuit_exact(_alternating_h_measure(10))
        _, peak_past_cap = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(sum(dist.values()) - 1.0) < ATOL
    # allocating the 1024 branch states would about double the peak
    assert peak_past_cap < 1.5 * peak_at_cap


@pytest.mark.parametrize("seed", range(12))
def test_deferred_measurement_identity(seed):
    """Measure-then-classically-control equals quantum-control-then-measure."""
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    measured = int(rng.integers(num_qubits))
    target = int(rng.choice([q for q in range(num_qubits) if q != measured]))
    prefix = [random_gate(num_qubits, rng) for _ in range(8)]
    suffix = []
    others = [q for q in range(num_qubits) if q != measured]
    for _ in range(4):
        gate = random_gate(num_qubits, rng)
        if measured not in gate.participants:
            suffix.append(gate)
    conditioned_kind = rng.choice(["Z", "X"])

    hybrid = Circuit(num_qubits, num_qubits)
    hybrid.extend(prefix)
    hybrid.measure(measured, 0)
    hybrid.append(GateOp(conditioned_kind, (target,)).conditioned_on(0, 1))
    hybrid.extend(suffix)
    for clbit, q in enumerate(others, start=1):
        hybrid.measure(q, clbit)

    deferred = Circuit(num_qubits, num_qubits)
    deferred.extend(prefix)
    if conditioned_kind == "Z":
        deferred.append(GateOp("CZ", (measured, target)))
    else:
        deferred.append(mcx((measured,), target))
    deferred.extend(suffix)
    deferred.measure(measured, 0)
    for clbit, q in enumerate(others, start=1):
        deferred.measure(q, clbit)

    dist_a, dist_b = run_circuit_exact(hybrid), run_circuit_exact(deferred)
    for key in set(dist_a) | set(dist_b):
        assert abs(dist_a.get(key, 0.0) - dist_b.get(key, 0.0)) < ATOL


@st.composite
def deferrable_circuits(draw) -> Circuit:
    """Random circuits with mid-circuit measurements and gates conditioned on
    either bit value; no gate acts on a qubit once it is measured, and H is
    never conditioned, so ``defer_measurements`` accepts every one."""
    num_qubits, num_clbits = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    circuit = Circuit(num_qubits, num_clbits)
    live = list(range(num_qubits))
    written: list[int] = []
    for _ in range(draw(st.integers(1, 16))):
        if draw(st.integers(0, 4)) == 0:
            qubit = draw(st.sampled_from(range(num_qubits)))
            clbit = draw(st.sampled_from(range(num_clbits)))
            circuit.measure(qubit, clbit)
            written.append(clbit)
            if qubit in live:
                live.remove(qubit)
            continue
        if not live:
            break
        kinds = ["H", "X", "Z"] + (["CZ", "MCX"] if len(live) >= 2 else [])
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(live))
        if kind == "CZ":
            gate = GateOp("CZ", (qubits[0], qubits[1]))
        elif kind == "MCX":
            gate = mcx(qubits[1 : 1 + draw(st.integers(1, len(live) - 1))], qubits[0])
        else:
            gate = GateOp(kind, (qubits[0],))
        if kind != "H" and written and draw(st.booleans()):
            gate = gate.conditioned_on(draw(st.sampled_from(written)), draw(st.integers(0, 1)))
        circuit.append(gate)
    for clbit in range(num_clbits):
        circuit.measure(draw(st.sampled_from(range(num_qubits))), clbit)
    return circuit


def _bit_controlled_x(value: int) -> Circuit:
    circuit = Circuit(2, 2).append(h(0)).measure(0, 0)
    return circuit.append(x(1).conditioned_on(0, value)).measure(1, 1)


@settings(max_examples=300, deadline=None)
@given(circuit=deferrable_circuits())
@example(circuit=_bit_controlled_x(0))
@example(circuit=_bit_controlled_x(1))
def test_deferring_measurements_keeps_the_outcome_law(circuit):
    deferred = defer_measurements(circuit)
    measures = [op for op in circuit.ops if isinstance(op, MeasureOp)]
    assert (deferred.num_qubits, deferred.num_clbits) == (circuit.num_qubits, circuit.num_clbits)
    assert deferred.ops[len(deferred.ops) - len(measures) :] == measures
    assert all(op.classical_condition is None for op in deferred.ops if isinstance(op, GateOp))
    law, deferred_law = run_circuit_exact(circuit), run_circuit_exact(deferred)
    for key in set(law) | set(deferred_law):
        assert abs(law.get(key, 0.0) - deferred_law.get(key, 0.0)) < ATOL


def test_defer_measurements_controls_on_the_measured_qubit():
    circuit = Circuit(3, 1).append(h(0)).measure(0, 0)
    circuit.append(z(1).conditioned_on(0, 1), GateOp("CZ", (1, 2)).conditioned_on(0, 0), x(2).conditioned_on(0, 1))
    deferred = defer_measurements(circuit)
    assert deferred.ops == [h(0), GateOp("CZ", (0, 1)), x(0), GateOp("MCZ", (0, 1, 2)), x(0), mcx((0,), 2), MeasureOp(0, 0)]


def test_defer_measurements_rejects_conditioned_hadamard():
    circuit = Circuit(2, 1).append(h(0)).measure(0, 0).append(h(1).conditioned_on(0, 1))
    with pytest.raises(ValueError, match="conditioned H"):
        defer_measurements(circuit)


def test_defer_measurements_rejects_gates_on_measured_qubits():
    circuit = Circuit(2, 1).append(h(0)).measure(0, 0).append(GateOp("CZ", (0, 1)))
    with pytest.raises(ValueError, match="qubit 0 after it is measured"):
        defer_measurements(circuit)


# ---------------------------------------------------------------------------
# reduced density matrix


def test_reduced_density_matrix_of_product_state():
    rho = reduced_density_matrix(simulate_state(Circuit(3).append(h(0), h(1))), 2)
    assert np.allclose(rho, [[1.0, 0.0], [0.0, 0.0]], atol=ATOL)


def test_reduced_density_matrix_of_bell_pair_is_maximally_mixed():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = np.sqrt(0.5)
    rho = reduced_density_matrix(amps, 0)
    assert np.allclose(rho, np.eye(2) / 2, atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(2, 5))
def test_reduced_density_matrix_diagonal_matches_marginals(seed, num_qubits):
    rng = np.random.default_rng(seed)
    state = random_state(num_qubits, rng)
    keep = int(rng.integers(num_qubits))
    rho = reduced_density_matrix(state, keep)
    table = marginal_probabilities(state, [keep])
    assert abs(rho[0, 0].real - table[0]) < ATOL
    assert abs(rho[1, 1].real - table[1]) < ATOL


def test_reduced_density_matrix_rejects_unnormalized_states():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 0.5
    with pytest.raises(ValueError, match="trace"):
        reduced_density_matrix(amps, 0)
