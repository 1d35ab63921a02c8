"""Exact statevector simulation for small qubit registers.

Conventions used throughout the package:

- Basis index ``j`` encodes qubit ``k`` as bit ``k`` of ``j``; qubit 0 is the
  least significant bit.  An ``n``-qubit state is a complex array of length
  ``2**n`` indexed by ``j``.
- Outcome laws and shot counts are vectors of length ``2**num_clbits``
  indexed the same way: index bit ``k`` is classical bit ``k``.
- Gates are unitary and never renormalize; measurements collapse and
  renormalize.  Multi-controlled gates act natively on the statevector, no
  decomposition into elementary gates is performed.

Supported gates: H, X, Z, CZ, MCZ (phase flip where every participating qubit
is 1) and MCX (NOT on the target where every control is 1).

One branch loop is the engine.  It checks the circuit (``Circuit.validate``
caps both registers at ``MAX_QUBITS``) before it allocates a state, applies
H, X and MCX with ``_apply_gate_kernel``, folds each run of Z, CZ and MCZ
gates under one classical condition into a multiply by its +-1 diagonal
(``subset_xor_transform``), and splits on each measurement into a branch per
outcome, at most ``MAX_BRANCHES``.  ``simulate_state`` returns the one branch
of a unitary circuit; ``run_circuit_exact`` sums the branches into the law.
``run_circuit`` samples shots as one multinomial draw from that exact law;
shots are i.i.d., so the counts follow the same distribution as running each
shot on its own.

``defer_measurements`` rewrites a circuit with mid-circuit measurement and
classical control into one whose measurements all come last, turning each
classically conditioned gate into a quantum-controlled one; the outcome law
is unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

SQRT_HALF = float(np.sqrt(0.5))
ATOL = 1e-12
MAX_QUBITS = 12
MAX_BRANCHES = 8192
# how far the exact outcome law may sum from 1 before sampling from it
LAW_ATOL = 1e-9
# run_circuit's multinomial draw counts shots in an int64
MAX_SHOTS = int(np.iinfo(np.int64).max)

GATE_KINDS = ("H", "X", "Z", "CZ", "MCZ", "MCX")
DIAGONAL_KINDS = frozenset({"Z", "CZ", "MCZ"})


@dataclass(frozen=True)
class GateOp:
    """A single gate.

    For the diagonal gates (Z, CZ, MCZ) the target/control split is purely
    cosmetic; participants are canonicalized into ``targets`` in sorted order.
    ``classical_condition`` is ``(clbit, value)``: the gate fires only on
    shots where that classical bit currently holds ``value``.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    classical_condition: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(q) for q in self.targets)
        controls = tuple(int(q) for q in self.controls)
        participants = targets + controls
        if len(set(participants)) != len(participants):
            raise ValueError(f"duplicate qubit in {self.kind} on {participants}")
        if any(q < 0 for q in participants):
            raise ValueError("negative qubit index")
        if self.kind in ("H", "X", "Z"):
            if len(targets) != 1 or controls:
                raise ValueError(f"{self.kind} takes exactly one target and no controls")
        elif self.kind == "CZ":
            if len(participants) != 2:
                raise ValueError("CZ takes exactly two qubits")
            targets, controls = tuple(sorted(participants)), ()
        elif self.kind == "MCZ":
            if len(participants) < 3:
                raise ValueError("MCZ takes at least three qubits (use Z or CZ below that)")
            targets, controls = tuple(sorted(participants)), ()
        else:  # MCX
            if len(targets) != 1 or not controls:
                raise ValueError("MCX takes one target and at least one control")
            controls = tuple(sorted(controls))
        if self.classical_condition is not None:
            clbit, value = self.classical_condition
            if value not in (0, 1):
                raise ValueError("classical condition value must be 0 or 1")
            object.__setattr__(self, "classical_condition", (int(clbit), int(value)))
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)

    @property
    def participants(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def conditioned_on(self, clbit: int, value: int = 1) -> "GateOp":
        return replace(self, classical_condition=(clbit, value))


def h(qubit: int) -> GateOp:
    return GateOp("H", (qubit,))


def x(qubit: int) -> GateOp:
    return GateOp("X", (qubit,))


def z(qubit: int) -> GateOp:
    return GateOp("Z", (qubit,))


def mcx(controls: Sequence[int], target: int) -> GateOp:
    return GateOp("MCX", (target,), tuple(controls))


@dataclass(frozen=True)
class MeasureOp:
    """Computational-basis measurement of ``qubit``, recorded in ``clbit``."""

    qubit: int
    clbit: int


CircuitOp = Union[GateOp, MeasureOp]


@dataclass
class Circuit:
    num_qubits: int
    num_clbits: int = 0
    ops: list[CircuitOp] = field(default_factory=list)

    def append(self, *ops: CircuitOp) -> "Circuit":
        self.ops.extend(ops)
        return self

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        self.ops.append(MeasureOp(qubit, clbit))
        return self

    def validate(self) -> None:
        """Check both register sizes against ``MAX_QUBITS``, index bounds, and
        that every classical condition reads a bit written by an earlier
        measurement.  Both engines call this before they allocate a state."""
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {self.num_qubits}")
        if not 0 <= self.num_clbits <= MAX_QUBITS:
            raise ValueError(f"num_clbits must be in 0..{MAX_QUBITS}, got {self.num_clbits}")
        written: set[int] = set()
        for op in self.ops:
            if isinstance(op, MeasureOp):
                if not 0 <= op.qubit < self.num_qubits:
                    raise ValueError(f"measured qubit {op.qubit} out of range")
                if not 0 <= op.clbit < self.num_clbits:
                    raise ValueError(f"classical bit {op.clbit} out of range")
                written.add(op.clbit)
                continue
            for q in op.participants:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} out of range for {self.num_qubits}-qubit circuit")
            if op.classical_condition is not None:
                clbit, _ = op.classical_condition
                if not 0 <= clbit < self.num_clbits:
                    raise ValueError(f"condition bit {clbit} out of range")
                if clbit not in written:
                    raise ValueError(f"condition reads classical bit {clbit} before any measurement writes it")


def defer_measurements(circuit: Circuit) -> Circuit:
    """Equivalent circuit with every measurement moved to the end, in order.

    A gate conditioned on classical bit c holding v becomes the same gate with
    the qubit last measured into c as an extra control (Z, CZ -> CZ, MCZ;
    X, MCX -> MCX), wrapped in X on that qubit when v is 0.  Since no gate
    touches a qubit after its measurement, the joint outcome law over the
    classical bits is unchanged.  Raises ``ValueError`` for a conditioned gate
    without a controlled form (H) and for a gate on an already measured qubit.
    """
    circuit.validate()
    source: dict[int, int] = {}  # clbit -> qubit last measured into it
    measured: set[int] = set()
    gates: list[CircuitOp] = []
    measures: list[CircuitOp] = []
    for op in circuit.ops:
        if isinstance(op, MeasureOp):
            source[op.clbit] = op.qubit
            measured.add(op.qubit)
            measures.append(op)
            continue
        touched = measured.intersection(op.participants)
        if touched:
            raise ValueError(f"{op.kind} acts on qubit {min(touched)} after it is measured")
        if op.classical_condition is None:
            gates.append(op)
            continue
        clbit, value = op.classical_condition
        control = source[clbit]
        if op.kind in DIAGONAL_KINDS:
            gate = GateOp("CZ" if op.kind == "Z" else "MCZ", op.participants + (control,))
        elif op.kind in ("X", "MCX"):
            gate = mcx(op.controls + (control,), op.targets[0])
        else:
            raise ValueError(f"conditioned {op.kind} has no controlled form")
        flip = [] if value else [x(control)]
        gates += flip + [gate] + flip
    return Circuit(circuit.num_qubits, circuit.num_clbits, gates + measures)


# ---------------------------------------------------------------------------
# gate kernel

def _indices_bit_clear(num_qubits: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    return idx[(idx >> qubit) & 1 == 0]


def _indices_all_ones(num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    for q in qubits:
        idx = idx[(idx >> q) & 1 == 1]
    return idx


def _apply_gate_kernel(amps: np.ndarray, gate: GateOp, num_qubits: int) -> None:
    """Apply an H, X or MCX ``gate`` in place to ``amps`` of shape (rows, 2**n)."""
    t = gate.targets[0]
    if gate.kind == "H":
        i0 = _indices_bit_clear(num_qubits, t)
        i1 = i0 + (1 << t)
        a = amps[:, i0].copy()
        b = amps[:, i1]
        amps[:, i0] = (a + b) * SQRT_HALF
        amps[:, i1] = (a - b) * SQRT_HALF
    else:
        sel = _indices_all_ones(num_qubits, gate.controls)
        i0 = sel[(sel >> t) & 1 == 0]
        i1 = i0 + (1 << t)
        tmp = amps[:, i0].copy()
        amps[:, i0] = amps[:, i1]
        amps[:, i1] = tmp


def subset_xor_transform(bits: int, num_qubits: int) -> int:
    """Subset-XOR (Moebius) transform of a 2**num_qubits-bit mask, its own
    inverse: bit j of the result is the XOR of the input bits at the subsets
    of j.  One shift, AND and XOR per qubit."""
    full = (1 << (1 << num_qubits)) - 1
    for k in range(num_qubits):
        step = 1 << k
        # bit j of low is set iff bit k of j is 0: runs of step ones, step zeros
        low = ((1 << step) - 1) * (full // ((1 << 2 * step) - 1))
        bits ^= (bits & low) << step
    return bits


def _diagonal_signs(gates: Iterable[GateOp], num_qubits: int) -> np.ndarray:
    """+-1 diagonal of a run of Z, CZ and MCZ gates: the gate on qubit set S
    flips every index containing S, so the flips are the subset-XOR transform
    of the sets the run acts on an odd number of times."""
    sets = 0
    for gate in gates:
        sets ^= 1 << sum(1 << q for q in gate.participants)
    flips = subset_xor_transform(sets, num_qubits).to_bytes(1 << max(num_qubits - 3, 0), "little")
    return 1.0 - 2.0 * np.unpackbits(np.frombuffer(flips, np.uint8), count=1 << num_qubits, bitorder="little")


def _fused(ops: Sequence[CircuitOp], num_qubits: int) -> Iterator[tuple[CircuitOp | np.ndarray, tuple[int, int] | None]]:
    """(op, classical condition) pairs, with each run of diagonal gates under
    one condition folded into its +-1 diagonal; measurements end a run."""
    key = lambda op: (getattr(op, "kind", "") in DIAGONAL_KINDS, getattr(op, "classical_condition", None))
    for (diagonal, cond), run in itertools.groupby(ops, key):
        if diagonal:
            yield _diagonal_signs(run, num_qubits), cond
        else:
            yield from ((op, cond) for op in run)


def _branches(circuit: Circuit) -> list[tuple[np.ndarray, int, float]]:
    """The engine behind ``simulate_state`` and ``run_circuit_exact``: check
    ``circuit``, then run it from |0...0>, splitting on every measurement into
    branches of (state, classical bits as a mask with bit k = clbit k,
    probability), at most ``MAX_BRANCHES`` of them."""
    circuit.validate()
    n = circuit.num_qubits
    init = np.zeros(1 << n, dtype=complex)
    init[0] = 1.0
    branches: list[tuple[np.ndarray, int, float]] = [(init, 0, 1.0)]
    for op, cond in _fused(circuit.ops, n):
        if isinstance(op, MeasureOp):
            mask1 = (np.arange(1 << n) >> op.qubit) & 1 == 1
            outcomes = []
            for branch in branches:
                p1 = float(np.sum(np.abs(branch[0][mask1]) ** 2))
                outcomes += [(branch, o, p) for o, p in ((0, 1.0 - p1), (1, p1)) if p > 0.0]
            if len(outcomes) > MAX_BRANCHES:
                raise ValueError(
                    f"measuring qubit {op.qubit} would make {len(outcomes)} branches, "
                    f"more than MAX_BRANCHES={MAX_BRANCHES}"
                )
            split: list[tuple[np.ndarray, int, float]] = []
            for (amps, bits, prob), outcome, p_sel in outcomes:
                camps = amps.copy()
                camps[mask1 != bool(outcome)] = 0.0
                camps /= np.sqrt(p_sel)
                split.append((camps, (bits & ~(1 << op.clbit)) | (outcome << op.clbit), prob * p_sel))
            branches = split
            continue
        for amps, bits, _ in branches:
            if cond is None or (bits >> cond[0]) & 1 == cond[1]:
                if isinstance(op, np.ndarray):
                    amps *= op
                else:
                    _apply_gate_kernel(amps.reshape(1, -1), op, n)
    return branches


def simulate_state(circuit: Circuit) -> np.ndarray:
    """Amplitudes (length 2**n) of the final state of a purely unitary circuit
    (no measurements, so no conditions) started in |0...0>."""
    if any(isinstance(op, MeasureOp) for op in circuit.ops):
        raise ValueError("simulate_state only supports unitary circuits")
    ((amps, _, _),) = _branches(circuit)
    return amps


# ---------------------------------------------------------------------------
# measurement and sampling

def reduced_density_matrix(amps: np.ndarray, keep: int) -> np.ndarray:
    """Partial trace of the state with amplitudes ``amps`` (length 2**n) over
    every qubit except ``keep``: the 2x2 density matrix of that qubit, whose
    (1, 1) entry is the probability of reading 1."""
    n = amps.size.bit_length() - 1
    if not 0 <= keep < n:
        raise ValueError(f"qubit {keep} out of range")
    # axis for qubit q in the C-ordered reshape is n-1-q
    psi = amps.reshape([2] * n)
    psi = np.moveaxis(psi, n - 1 - keep, 0).reshape(2, -1)
    rho = psi @ psi.conj().T
    if abs(np.trace(rho) - 1.0) > ATOL:
        raise ValueError(f"state has trace {np.trace(rho).real!r}, not 1")
    return rho


def run_circuit(circuit: Circuit, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``shots`` independent executions of ``circuit``.

    Each shot starts in |0...0> with all classical bits 0; ops run in order,
    measurements collapse the shot's state and write its classical bits, and a
    conditioned gate fires only on shots whose referenced bit matches.  Shots
    are i.i.d., so the counts are one multinomial draw over the exact outcome
    law of ``run_circuit_exact`` (which raises ``ValueError`` past
    ``MAX_BRANCHES`` branches) in index order, returned as an int64 vector
    indexed like that law; a seeded ``rng`` gives the same counts on every
    run.  ``shots`` must lie in 1..2**63 - 1.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in 1..{MAX_SHOTS}, not {shots}")
    law = run_circuit_exact(circuit)
    support = np.flatnonzero(law)
    probs = law[support]
    total = float(probs.sum())
    if not abs(total - 1.0) <= LAW_ATOL:
        raise ValueError(f"outcome law sums to {total!r}, not 1 within {LAW_ATOL}")
    counts = np.zeros(law.size, dtype=np.int64)
    counts[support] = rng.multinomial(shots, probs / total)
    return counts


def run_circuit_exact(circuit: Circuit) -> np.ndarray:
    """Exact law of the classical outcomes, the shots->infinity limit of
    ``run_circuit``, as a vector of length 2**num_clbits.  Measurements are
    enumerated as branches, so mid-circuit measurement feeding a classical
    condition is handled without Monte-Carlo error.  A measurement that would
    leave more than ``MAX_BRANCHES`` branches raises ``ValueError`` before
    their states are allocated."""
    branches = _branches(circuit)
    law = np.zeros(1 << circuit.num_clbits)  # num_clbits is validated by now
    for _, bits, prob in branches:
        law[bits] += prob
    return law
