"""Quantum feed-forward neural network simulator.

Sign-vector perceptron nodes on log2(m) qubits, assembled into layered
networks that run either hybrid (mid-circuit measurement plus classical
control) or fully coherent (the deferred-measurement form of the hybrid
circuit, read out by partial trace), with an optional readout-noise and
mitigation layer and a CLI reproducing the 2x2 line-recognition experiment.
Import the modules (``from qffnn import network, neuron``) for the API.
"""

__version__ = "0.1.0"
