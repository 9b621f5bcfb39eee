"""Non-Markovianity of a dephasing qubit coupled to quantized torus maps.

The package simulates kicked maps on a quantized torus, records fidelity
amplitudes of perturbed map pairs, and turns them into the information
backflow measure of the induced qubit dephasing channel, together with the
classical diagnostics used to locate the chaos border.
"""

__version__ = "0.1.0"
