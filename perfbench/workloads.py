"""The benchmark workloads: seeded input generators, the operation each one
runs, and the oracle that checks its result.

Every operation calls the program through module attributes
(``experiments.run_network_experiment``, ``network.hybrid_exact``), which are
the bindings the traced run wraps.  Inputs are a pure function of
(workload seed, op index), so a run never repeats an input the program could
have cached from an earlier op, and the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qffnn import experiments, network, neuron

import oracles

SHOTS = 8192
NOISE = (0.05, 0.03)
WIDE_M = 4096
# weights of the built-in line-recognition fixture: hidden labels 12 and 10,
# output (+1, -1)
FIXTURE_WEIGHTS = (oracles.vector_from_label(12, 4), oracles.vector_from_label(10, 4), (1, -1))


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int, int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    # layer boundaries the traced run must see called at least once per op
    exercises: tuple[str, ...]
    # whether op times are scaled by the host-speed probe (see run.py); only
    # where interpreter work, which the probe measures, dominates the op
    host_scaled: bool = True


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def _signs(rng: np.random.Generator, m: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.choice((-1, 1), size=m))


# line-exact: the CLI's default path, run_network_experiment(mode="both",
# evaluation="exact") on the built-in fixture; one op is one 16-label
# experiment.  Hundreds of 2-7-qubit simulations per op expose per-call
# overhead in neuron/simulator and the experiment driver's 8-thread pool.
# With no shots and no noise it is the no-change control for sampling and
# noise work.  The fixture takes no random input, so the seed is unused.
def _line_exact_input(seed: int, op: int) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(mode="both", evaluation="exact")


def _run_line(config: experiments.ExperimentConfig) -> tuple[dict, int]:
    return experiments.run_network_experiment(config)


def _check_line_exact(config: experiments.ExperimentConfig, out: tuple[dict, int]) -> list[str]:
    return oracles.check_line_exact(FIXTURE_WEIGHTS, *out)


# line-sampled: the same call with evaluation="sampled", the CLI's default
# 8192 shots, readout noise (0.05, 0.03) and mitigation; the op's seed comes
# from the workload seed and the op index.  simulator.run_circuit does most
# of the work, in two ways: the hybrid circuit uses per-shot batches after a
# mid-circuit measurement, and the coherent circuit has one end measurement
# after a shared prefix.  It is the only workload that uses noise.
def _line_sampled_input(seed: int, op: int) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        mode="both",
        evaluation="sampled",
        shots=SHOTS,
        seed=int(_rng(seed, op).integers(2**31)),
        noise=NOISE,
        mitigate=True,
    )


def _check_line_sampled(config: experiments.ExperimentConfig, out: tuple[dict, int]) -> list[str]:
    return oracles.check_line_sampled(FIXTURE_WEIGHTS, NOISE, SHOTS, *out)


# wide-node: run_neuron_experiment(evaluation="exact") on a random +-1 input
# and weight of length 4096 (12 qubits).  It is the only workload where HSGS
# sign synthesis (two calls per op, about 2050 gates each) and the gate
# kernel at 12 qubits dominate; the line workloads run both at m = 4, where
# they are negligible.
def _wide_input(seed: int, op: int) -> tuple[neuron.BinaryVector, neuron.BinaryVector]:
    rng = _rng(seed, op)
    return neuron.BinaryVector(_signs(rng, WIDE_M)), neuron.BinaryVector(_signs(rng, WIDE_M))


def _run_wide(inp: tuple[neuron.BinaryVector, neuron.BinaryVector]) -> dict:
    return experiments.run_neuron_experiment(*inp, evaluation="exact")


def _check_wide(inp: tuple[neuron.BinaryVector, neuron.BinaryVector], report: dict) -> list[str]:
    i, w = inp
    return oracles.check_wide_node(i.entries, w.entries, report)


@dataclass(frozen=True)
class DeepInput:
    """A generated network twice: as plain tuples for the oracle and as the
    program's NetworkSpec."""

    inp: tuple[int, ...]
    layers: list[list[tuple[int, ...]]]
    synapses: list[list[tuple[int, ...]]]
    net: network.NetworkSpec
    vec: neuron.BinaryVector


def _layer_spec(weights: list[tuple[int, ...]]) -> network.LayerSpec:
    specs = []
    for k, w in enumerate(weights):
        vec = neuron.BinaryVector(w)
        base = k * (vec.num_qubits + 1)
        specs.append(neuron.NeuronSpec(vec, tuple(range(base, base + vec.num_qubits)), base + vec.num_qubits))
    return network.LayerSpec(tuple(specs))


# deep-exact: hybrid_exact on a 4-layer 8-4-2-1 network; hidden nodes have
# m = 4 and the output node m = 2.  Every first-layer weight differs from the
# input in exactly one or three entries, so i.w = +-2 and every first-layer
# activation is 0.25: all 2**8 first-layer patterns have non-zero weight and
# the recursion visits every one of them.  An op runs thousands of node
# simulations over fewer than a hundred distinct (input, weight) pairs, so it
# is the only workload dominated by the recursion in the network executor.
def _deep_input(seed: int, op: int) -> DeepInput:
    rng = _rng(seed, op)
    inp = _signs(rng, 4)
    first = []
    for _ in range(8):
        w = list(inp)
        for pos in rng.choice(4, size=int(rng.choice((1, 3))), replace=False):
            w[pos] = -w[pos]
        first.append(tuple(w))
    layers = [first, [_signs(rng, 4) for _ in range(4)], [_signs(rng, 4) for _ in range(2)], [_signs(rng, 2)]]
    synapses = [
        [tuple(int(f) for f in rng.choice(8, size=4, replace=False)) for _ in range(4)],
        [tuple(int(f) for f in rng.permutation(4)) for _ in range(2)],
        [tuple(int(f) for f in rng.permutation(2))],
    ]
    net = network.NetworkSpec(
        tuple(_layer_spec(weights) for weights in layers),
        tuple(tuple(layer_map) for layer_map in synapses),
    )
    return DeepInput(inp, layers, synapses, net, neuron.BinaryVector(inp))


def _run_deep(inp: DeepInput) -> network.RunResult:
    return network.hybrid_exact(inp.net, inp.vec)


def _check_deep(inp: DeepInput, result: network.RunResult) -> list[str]:
    return oracles.check_deep(inp.inp, inp.layers, inp.synapses, result.p_out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "line-exact",
            _line_exact_input,
            _run_line,
            _check_line_exact,
            (
                "experiments.run_network_experiment",
                "network.hybrid_exact",
                "network.coherent_exact",
                "neuron.simulated_activation_probability",
                "neuron.hypergraph_sign_synthesis",
                "simulator.simulate_state",
                "simulator.reduced_density_matrix",
            ),
        ),
        Workload(
            "line-sampled",
            _line_sampled_input,
            _run_line,
            _check_line_sampled,
            (
                "experiments.run_network_experiment",
                "network.sampled_counts",
                "network.build_hybrid_circuit",
                "network.coherent_measured_circuit",
                "neuron.hypergraph_sign_synthesis",
                "simulator.run_circuit",
                # simulator.run_circuit_exact belongs here too once sampling
                # is drawn from the exact law; nothing calls it yet
                "noise.noisy_counts",
                "noise.build_calibration",
                "noise.mitigate",
            ),
            # numpy kernels over multi-megabyte shot batches on every core:
            # the single-threaded probe does not track them
            host_scaled=False,
        ),
        Workload(
            "wide-node",
            _wide_input,
            _run_wide,
            _check_wide,
            (
                "experiments.run_neuron_experiment",
                "neuron.simulated_activation_probability",
                "neuron.hypergraph_sign_synthesis",
                "simulator.simulate_state",
            ),
        ),
        Workload(
            "deep-exact",
            _deep_input,
            _run_deep,
            _check_deep,
            (
                "network.hybrid_exact",
                "neuron.simulated_activation_probability",
                "neuron.hypergraph_sign_synthesis",
                "simulator.simulate_state",
            ),
        ),
    )
}
