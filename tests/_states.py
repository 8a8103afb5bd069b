"""Density matrices shared by the test modules."""

import numpy as np

from thermalmimic.fock import FockDensityMatrix


def random_density(rng, cutoff=9):
    """A full-rank random state: ``G G^H / Tr`` for a complex Gaussian ``G`` drawn from ``rng``."""
    raw = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    rho = raw @ raw.conj().T
    rho /= rho.trace().real
    return FockDensityMatrix(cutoff, 0.5 * (rho + rho.conj().T), trace_tol=1e-9)


def fock_projector(n, cutoff):
    """The number state ``|n><n|`` at ``cutoff``."""
    entries = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    entries[n, n] = 1.0
    return FockDensityMatrix(cutoff, entries)
