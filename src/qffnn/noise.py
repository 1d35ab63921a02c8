"""Synthetic readout errors and their mitigation by calibration inversion.

The error channel flips each recorded classical bit independently: a true 0
is read as 1 with probability p01, a true 1 as 0 with probability p10.  The
flips corrupt only what is recorded; classically controlled gates keep acting
on the true measurement outcomes, so over b bits the observed distribution is
the b-fold tensor power of the single-bit confusion matrix applied to the
ideal one.  ``mitigate(counts, model)`` takes b from the counts, builds that
matrix and solves for the ideal distribution, which linear inversion recovers
in the many-shot limit.  Negative entries of the solution (pure sampling
noise) are clipped and the vector renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import Counts

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


def noisy_counts(counts: Counts, model: ReadoutErrorModel, rng: np.random.Generator) -> Counts:
    """Pass aggregated counts through the readout channel.  Shots sharing a
    true bit pattern are multinomially redistributed over the read patterns,
    which is distribution-identical to flipping each shot's bits one by one."""
    num_bits = counts.num_clbits()
    if num_bits == 0:
        return counts
    cal = build_calibration(model, num_bits)
    noisy: dict[str, int] = {}
    for key, cnt in sorted(counts.counts.items()):
        drawn = rng.multinomial(cnt, cal[:, int(key, 2)])
        for value, c in enumerate(drawn):
            if c:
                read = format(value, f"0{num_bits}b")
                noisy[read] = noisy.get(read, 0) + int(c)
    return Counts(noisy, counts.total_shots)


def mitigate(counts: Counts, model: ReadoutErrorModel) -> np.ndarray:
    """Invert the readout channel on the empirical frequencies of ``counts``.

    Returns a probability vector over all 2**b bit patterns of the counts'
    width b, indexed by the integer value of the pattern (classical bit 0
    least significant).
    """
    num_bits = counts.num_clbits()
    # exact for a tensor power, and unlike the determinant of a
    # well-conditioned 2**b matrix it does not underflow to 0
    cond = np.linalg.cond(model.confusion_matrix()) ** num_bits
    if not cond < 1.0 / np.finfo(float).eps:
        raise ValueError(f"calibration matrix is singular to working precision (condition number {cond:.3g})")
    solved = np.linalg.solve(build_calibration(model, num_bits), counts.probability_vector())
    clipped = np.clip(solved, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("mitigated distribution vanished")
    return clipped / total
