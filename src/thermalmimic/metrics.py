"""Quantum-information figures of merit between Fock-basis density matrices.

Fidelity, trace distance, Helstrom error bound (equal priors), and von Neumann
entropy in bits. Every input is a ``FockDensityMatrix``, so it is already
validated as positive semidefinite; eigenvalues are still clipped at zero
where square roots and logarithms are taken, to drop rounding below zero.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import FockDensityMatrix, mean_photon

#: Eigenvalues below this contribute nothing to the entropy (0 log 0 = 0).
ENTROPY_EIGVAL_FLOOR = 1e-14


def _require_same_cutoff(a: FockDensityMatrix, b: FockDensityMatrix) -> None:
    if a.cutoff != b.cutoff:
        raise ValueError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")


def fidelity(a: FockDensityMatrix, b: FockDensityMatrix) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(b) a sqrt(b)))^2``.

    Symmetric in its arguments and equal to 1 iff the states are identical.
    For a pure state it reduces to the overlap with the other state. At a
    rank-deficient argument, an eigenvalue ``e`` moving off zero moves F by
    about ``sqrt(e)`` (1e-18 shows as 1e-10 to 1e-9, and F is clipped at 1), so
    a byte-identity check should expect F to shift whenever the entries move.
    """
    _require_same_cutoff(a, b)
    inner = b.sqrt @ a.entries @ b.sqrt
    inner = 0.5 * (inner + inner.conj().T)
    vals = np.maximum(np.linalg.eigvalsh(inner), 0.0)
    return min(float(np.sqrt(vals).sum() ** 2), 1.0)


def trace_distance(a: FockDensityMatrix, b: FockDensityMatrix) -> float:
    """``(1/2) ||a - b||_1``: half the sum of |eigenvalues| of the difference."""
    _require_same_cutoff(a, b)
    vals = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.sum(np.abs(vals)))


def helstrom_error(a: FockDensityMatrix, b: FockDensityMatrix) -> float:
    """Minimum error probability for discriminating ``a`` from ``b``.

    Equal priors: ``1/2 - (1/4) ||a - b||_1``. 0.5 for identical states
    (indistinguishable), 0 for orthogonal ones.
    """
    return 0.5 - 0.5 * trace_distance(a, b)


def von_neumann_entropy(rho: FockDensityMatrix) -> float:
    """Entropy ``-sum_i lambda_i log2(lambda_i)`` in bits; 0 for pure states."""
    vals = np.clip(np.linalg.eigh(rho.entries)[0], 0.0, None)
    vals = vals[vals > ENTROPY_EIGVAL_FLOOR]
    return float(-np.sum(vals * np.log2(vals)))


def thermal_entropy(nbar: float) -> float:
    """Closed-form entropy of a thermal state in bits.

    ``(nbar+1) log2(nbar+1) - nbar log2(nbar)``; the maximum entropy of any
    state with the given mean photon number.
    """
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    if nbar == 0.0:
        return 0.0
    return (nbar + 1.0) * math.log2(nbar + 1.0) - nbar * math.log2(nbar)


def compare(a: FockDensityMatrix, b: FockDensityMatrix) -> dict:
    """Full metric report between two states, ready for JSON export."""
    return {
        "fidelity": fidelity(a, b),
        "trace_distance": trace_distance(a, b),
        "helstrom_error": helstrom_error(a, b),
        "entropy_a": von_neumann_entropy(a),
        "entropy_b": von_neumann_entropy(b),
        "mean_photon_a": mean_photon(a),
        "mean_photon_b": mean_photon(b),
    }
