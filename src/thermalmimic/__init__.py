"""Engineer coherent-state mixtures that mimic thermal light, verify them with
simulated homodyne tomography, and score the mimicry with quantum-information
metrics."""

__version__ = "0.1.0"
