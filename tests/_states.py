"""Density matrices and hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

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


def _gaussian(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def states(draw, cutoff):
    """Hypothesis strategy: ``G G^H / Tr`` for a seeded complex Gaussian ``G`` of
    dim x rank, rank 1 to dim, so pure and rank-deficient states come up too."""
    rank = draw(st.integers(1, cutoff + 1), label="rank")
    g = _gaussian(draw(st.integers(0, 2**32 - 1), label="state seed"), (cutoff + 1, rank))
    rho = g @ g.conj().T
    return FockDensityMatrix(cutoff, rho / rho.trace().real, trace_tol=1e-9)


@st.composite
def unitaries(draw, cutoff):
    """Hypothesis strategy: a phase rotation ``diag(e^{i n phi})`` or a Haar-random
    unitary (QR of a seeded complex Gaussian, phases of R's diagonal fixed)."""
    if draw(st.booleans(), label="rotation"):
        phi = draw(st.floats(0.0, 2.0 * np.pi), label="phi")
        return np.diag(np.exp(1j * phi * np.arange(cutoff + 1)))
    q, r = np.linalg.qr(_gaussian(draw(st.integers(0, 2**32 - 1), label="unitary seed"),
                                  (cutoff + 1, cutoff + 1)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated(u, rho):
    """``U rho U^H`` as a state, Hermitian part taken against rounding."""
    entries = u @ rho.entries @ u.conj().T
    return FockDensityMatrix(rho.cutoff, 0.5 * (entries + entries.conj().T), trace_tol=1e-9)
