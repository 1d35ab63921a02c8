"""Synthetic readout errors and their mitigation by calibration inversion.

The error channel flips each recorded classical bit independently: a true 0
is read as 1 with probability p01, a true 1 as 0 with probability p10.  The
flips corrupt only what is recorded; classically controlled gates keep acting
on the true measurement outcomes, so over b bits the observed distribution is
the b-fold tensor power of the single-bit confusion matrix applied to the
ideal one.  ``mitigate(counts, model)`` takes b from the length of the count
vector, builds that matrix and solves for the ideal distribution, which
linear inversion recovers in the many-shot limit.  Negative entries of the
solution (pure sampling noise) are clipped and the vector renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CALIBRATION_BITS = 8


@dataclass(frozen=True)
class ReadoutErrorModel:
    p01: float
    p10: float

    def __post_init__(self) -> None:
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p < 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5)")

    def confusion_matrix(self) -> np.ndarray:
        """2x2 column-stochastic matrix: entry (read, true)."""
        return np.array([[1.0 - self.p01, self.p10], [self.p01, 1.0 - self.p10]])


def build_calibration(model: ReadoutErrorModel, num_bits: int) -> np.ndarray:
    """Column-stochastic 2**b x 2**b matrix of the channel on b = ``num_bits``
    bits, entry (read, true): the tensor power of the single-bit confusion
    matrix.  Dense, so b is capped before allocation; the experiments here
    need at most 3."""
    if not 1 <= num_bits <= MAX_CALIBRATION_BITS:
        raise ValueError(f"num_bits must be in 1..{MAX_CALIBRATION_BITS}")
    single = model.confusion_matrix()
    matrix = single
    for _ in range(num_bits - 1):
        matrix = np.kron(matrix, single)
    return matrix


def noisy_counts(counts: np.ndarray, model: ReadoutErrorModel, rng: np.random.Generator) -> np.ndarray:
    """Pass a count vector through the readout channel: the shots of each true
    pattern, in increasing order, are multinomially redistributed over the read
    patterns, which is distribution-identical to flipping bits shot by shot."""
    num_bits = counts.size.bit_length() - 1
    if num_bits == 0:
        return counts
    cal = build_calibration(model, num_bits)
    noisy = np.zeros_like(counts)
    for pattern in np.flatnonzero(counts):
        noisy += rng.multinomial(counts[pattern], cal[:, pattern])
    return noisy


def mitigate(counts: np.ndarray, model: ReadoutErrorModel) -> np.ndarray:
    """Invert the readout channel on the empirical frequencies of ``counts``;
    returns a probability vector indexed the same way."""
    num_bits = counts.size.bit_length() - 1
    # exact for a tensor power, and unlike the determinant of a
    # well-conditioned 2**b matrix it does not underflow to 0
    cond = np.linalg.cond(model.confusion_matrix()) ** num_bits
    if not cond < 1.0 / np.finfo(float).eps:
        raise ValueError(f"calibration matrix is singular to working precision (condition number {cond:.3g})")
    solved = np.linalg.solve(build_calibration(model, num_bits), counts / counts.sum())
    clipped = np.clip(solved, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("mitigated distribution vanished")
    return clipped / total
