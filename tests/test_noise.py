"""Readout-error channel and calibration-inversion mitigation."""

import math
from functools import reduce

import numpy as np
import pytest

from qffnn.experiments import ExperimentConfig, run_network_experiment
from qffnn.network import line_recognition_network, output_probability, sampled_counts
from qffnn.neuron import BinaryVector, neuron_circuit, simulated_activation_probability
from qffnn.noise import MAX_CALIBRATION_BITS, ReadoutErrorModel, build_calibration, mitigate, noisy_counts
from qffnn.simulator import run_circuit


def apply_readout_noise(
    bits: tuple[int, ...], model: ReadoutErrorModel, rng: np.random.Generator
) -> tuple[int, ...]:
    """Per-shot reference for the readout channel: flip each bit of one shot's
    outcome with its asymmetric error rate."""
    flips = rng.random(len(bits))
    return tuple(int(b ^ (u < (model.p01 if b == 0 else model.p10))) for b, u in zip(bits, flips))


def test_model_validates_rates():
    ReadoutErrorModel(0.0, 0.49)
    with pytest.raises(ValueError):
        ReadoutErrorModel(0.5, 0.1)
    with pytest.raises(ValueError):
        ReadoutErrorModel(-0.01, 0.1)


def test_single_bit_confusion_matrix():
    model = ReadoutErrorModel(0.05, 0.03)
    assert np.allclose(model.confusion_matrix(), [[0.95, 0.03], [0.05, 0.97]])


def test_noiseless_calibration_is_identity():
    cal = build_calibration(ReadoutErrorModel(0.0, 0.0), 3)
    assert np.allclose(cal, np.eye(8))


def test_two_bit_calibration_is_tensor_product():
    model = ReadoutErrorModel(0.05, 0.03)
    cal = build_calibration(model, 2)
    single = model.confusion_matrix()
    assert np.allclose(cal, np.kron(single, single))
    assert np.allclose(cal.sum(axis=0), 1.0)


def test_calibration_size_bound():
    with pytest.raises(ValueError):
        build_calibration(ReadoutErrorModel(0.01, 0.01), 9)


def test_zero_noise_is_identity_on_bits():
    model = ReadoutErrorModel(0.0, 0.0)
    rng = np.random.default_rng(0)
    for bits in ((0, 0), (1, 0), (1, 1, 1)):
        assert apply_readout_noise(bits, model, rng) == bits


def test_flip_frequency_matches_rate():
    model = ReadoutErrorModel(0.05, 0.03)
    rng = np.random.default_rng(8)
    shots = 100_000
    flips = sum(apply_readout_noise((0,), model, rng)[0] for _ in range(shots))
    sigma = np.sqrt(0.05 * 0.95 / shots)
    assert abs(flips / shots - 0.05) <= 5 * sigma


def test_symmetric_noise_commutes_with_global_flip():
    model = ReadoutErrorModel(0.08, 0.08)
    shots = 50_000
    rng = np.random.default_rng(9)
    flips_from_zero = sum(apply_readout_noise((0,), model, rng)[0] for _ in range(shots))
    flips_from_one = sum(1 - apply_readout_noise((1,), model, rng)[0] for _ in range(shots))
    sigma = np.sqrt(0.08 * 0.92 / shots)
    assert abs(flips_from_zero / shots - 0.08) <= 5 * sigma
    assert abs(flips_from_one / shots - 0.08) <= 5 * sigma


def test_noisy_counts_preserves_total_and_matches_channel():
    counts = np.array([60_000, 0, 0, 0, 0, 0, 0, 40_000])
    model = ReadoutErrorModel(0.05, 0.03)
    noisy = noisy_counts(counts, model, np.random.default_rng(4))
    assert noisy.sum() == counts.sum()
    # every true-0 bit reads 1 with p01 = 0.05
    p_read_one_bit0 = output_probability(noisy)
    expected = 0.6 * 0.05 + 0.4 * 0.97
    sigma = np.sqrt(expected * (1 - expected) / counts.sum())
    assert abs(p_read_one_bit0 - expected) <= 5 * sigma


def test_mitigate_with_identity_calibration_returns_frequencies():
    counts = np.array([25, 25, 25, 25])
    assert np.allclose(mitigate(counts, ReadoutErrorModel(0.0, 0.0)), [0.25, 0.25, 0.25, 0.25])


def test_mitigation_inverts_the_channel_exactly_at_distribution_level():
    model = ReadoutErrorModel(0.05, 0.03)
    cal = build_calibration(model, 3)
    p = np.array([0.1, 0.0, 0.25, 0.05, 0.3, 0.0, 0.2, 0.1])
    recovered = np.linalg.solve(cal, cal @ p)
    assert np.max(np.abs(recovered - p)) < 1e-10


def test_mitigated_vector_is_a_distribution():
    counts = np.array([90, 4, 4, 2])
    vec = mitigate(counts, ReadoutErrorModel(0.1, 0.08))
    assert vec.min() >= 0.0
    assert abs(vec.sum() - 1.0) < 1e-12


def test_mitigate_checks_the_condition_number_not_the_determinant():
    # at 7 bits the determinant 0.1**(7 * 64) underflows to 0.0, while the
    # condition number is only 10**7
    model = ReadoutErrorModel(0.45, 0.45)
    assert np.linalg.det(build_calibration(model, 7)) == 0.0
    counts = np.zeros(1 << 7, dtype=np.int64)
    counts[0], counts[-1] = 60, 40
    vec = mitigate(counts, model)
    assert vec.min() >= 0.0 and abs(vec.sum() - 1.0) < 1e-12
    # the largest valid rate: the confusion matrix's condition number is
    # about 3e16, past 1 / eps
    p = math.nextafter(0.5, 0.0)
    with pytest.raises(ValueError, match="singular.*condition number"):
        mitigate(np.array([3, 1]), ReadoutErrorModel(p, p))


def dense_mitigation(counts: np.ndarray, model: ReadoutErrorModel) -> np.ndarray:
    """The mitigated vector rebuilt step by step: left-folded Kronecker power
    of the confusion matrix, dense solve on the frequencies (float counts over
    the integer total), clip, renormalize."""
    num_bits = counts.size.bit_length() - 1
    cal = reduce(np.kron, [model.confusion_matrix()] * num_bits)
    freq = np.zeros(1 << num_bits)
    for pattern, cnt in enumerate(counts.tolist()):
        freq[pattern] += cnt
    solved = np.clip(np.linalg.solve(cal, freq / sum(counts.tolist())), 0.0, None)
    return solved / solved.sum()


@pytest.mark.parametrize(
    "model", [ReadoutErrorModel(0.05, 0.03), ReadoutErrorModel(0.2, 0.0), ReadoutErrorModel(0.1, 0.45)]
)
@pytest.mark.parametrize("num_bits", [1, 2, 3])
def test_mitigate_keeps_the_bytes_of_the_dense_solve(model, num_bits):
    # results files carry these floats, so equality is bitwise, not approximate
    rng = np.random.default_rng([17, num_bits])
    for _ in range(25):
        drawn = rng.multinomial(1000, rng.dirichlet(np.ones(1 << num_bits)))
        assert mitigate(drawn, model).tobytes() == dense_mitigation(drawn, model).tobytes()


@pytest.mark.parametrize("num_bits", [0, MAX_CALIBRATION_BITS + 1])
def test_mitigate_refuses_counts_outside_the_calibration_widths(num_bits):
    counts = np.zeros(1 << num_bits, dtype=np.int64)
    counts[-1] = 5
    with pytest.raises(ValueError, match="num_bits must be in"):
        mitigate(counts, ReadoutErrorModel(0.05, 0.03))


def test_single_neuron_noise_mitigation_round_trip():
    input_vec = BinaryVector.from_label(8, 4)
    weight = BinaryVector.from_label(12, 4)
    ideal = simulated_activation_probability(input_vec, weight)
    model = ReadoutErrorModel(0.05, 0.03)
    rng = np.random.default_rng(21)
    counts = run_circuit(neuron_circuit(input_vec, weight), 100_000, rng)
    noisy = noisy_counts(counts, model, rng)
    corrected = mitigate(noisy, model)
    assert abs(corrected[1] - ideal) < 0.01


def test_network_counts_noise_shifts_unmitigated_estimate():
    net = line_recognition_network()
    vec = BinaryVector.from_label(0, 4)  # exact output probability 0
    model = ReadoutErrorModel(0.1, 0.03)
    rng = np.random.default_rng(31)
    counts = sampled_counts(net, vec, "hybrid", 50_000, rng)
    noisy = noisy_counts(counts, model, rng)
    assert output_probability(noisy) > 0.05  # raw estimate dragged off zero
    assert output_probability(mitigate(noisy, model)) < 0.02


def test_zero_width_counts_pass_through_the_channel_unchanged():
    # a circuit without measurements gives one-entry counts: no bit to flip
    rng = np.random.default_rng(0)
    assert noisy_counts(np.array([5]), ReadoutErrorModel(0.05, 0.03), rng).tolist() == [5]


def test_noisy_counts_in_the_results_document_come_in_pattern_order():
    # at two shots the channel can read a higher pattern from the first true
    # pattern than from the second (label 1 reads 111 first, then 100); the
    # results document still lists the read patterns in increasing order
    config = ExperimentConfig(mode="hybrid", evaluation="sampled", shots=2, seed=0, noise=(0.3, 0.2))
    doc, _ = run_network_experiment(config)
    assert doc["rows"][1]["counts"]["hybrid"] == {"100": 1, "111": 1}
    for row in doc["rows"]:
        keys = list(row["counts"]["hybrid"])
        assert keys == sorted(keys), row["label"]
