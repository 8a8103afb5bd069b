"""Fock-basis representations of coherent, thermal, and mixed optical states.

Coherent states are rows of Fock coefficients, one per amplitude, as
:func:`coherent_states` returns them; :func:`mix` turns weighted rows into a
``FockDensityMatrix``, the value type everything downstream (constellation
shaping, homodyne simulation, tomography, metrics) works on. A density matrix
is immutable after construction and validates its own invariants, so a state
that reaches the rest of the toolkit is guaranteed finite, Hermitian, positive
semidefinite, and normalized up to a declared truncation budget. The
module computes on values only; a matrix's file layout is the CLI's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

#: Fock cutoff used for state engineering (thermal tail mass < 1e-5 at nbar = 2).
DEFAULT_CUTOFF = 30

#: Default truncation-mass budget for constructed states. Sized so the default
#: engineering cutoff holds every thermal state up to nbar = 2 (tail 3.5e-6).
DEFAULT_TAIL_TOL = 1e-5

# Hard validation tolerances for constructed density matrices.
HERMITICITY_TOL = 1e-12
PSD_EIGVAL_FLOOR = -1e-10
TRACE_EXCESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Complex matrix of number-basis elements ``<m|rho|n>`` up to ``cutoff``.

    ``trace_tol`` is the truncation-mass budget the matrix was built under, and
    this is the one truncation check: a trace outside [1 - trace_tol, 1 + 1e-12]
    raises ``ValueError``. Construction also validates finiteness, Hermiticity
    and positive semidefiniteness; traces are never silently renormalized.
    Positive semidefinite means ``rho - PSD_EIGVAL_FLOOR * I`` has a Cholesky
    factor: it has one when the least eigenvalue lies above the floor and none
    when it lies below. Only a rejected matrix has its eigenvalues computed, to
    name the least one in the error.
    """

    cutoff: int
    entries: np.ndarray = field(repr=False)
    trace_tol: float = 0.05

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        rho = np.array(self.entries, dtype=np.complex128)  # a copy: the caller's stays writeable
        dim = self.cutoff + 1
        if rho.shape != (dim, dim):
            raise ValueError(f"entries must have shape ({dim}, {dim}), got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("entries must be finite")
        asym = float(abs(rho - rho.conj().T).max())
        if asym > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |rho - rho^dag| = {asym:.3e}")
        # both LAPACK calls read only the lower triangle, as the Hermiticity check allows
        try:
            np.linalg.cholesky(rho - PSD_EIGVAL_FLOOR * np.eye(dim))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(rho)[0])
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {min_eig:.3e}"
                             ) from None
        tr = float(rho.trace().real)
        if tr > 1.0 + TRACE_EXCESS_TOL:
            raise ValueError(f"trace {tr} exceeds 1 + {TRACE_EXCESS_TOL}")
        if not tr >= 1.0 - self.trace_tol:  # false for a nan budget
            raise ValueError(f"state loses mass {1.0 - tr:.3e} beyond cutoff {self.cutoff} "
                             f"(trace {tr}, budget {self.trace_tol:.1e})")
        rho.setflags(write=False)
        object.__setattr__(self, "entries", rho)

    @property
    def trace(self) -> float:
        return float(self.entries.trace().real)

    @cached_property
    def sqrt(self) -> np.ndarray:
        """The positive semidefinite square root, eigenvalues clipped at zero to
        drop rounding below it; computed on first read, then kept."""
        vals, vecs = np.linalg.eigh(self.entries)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        root.setflags(write=False)
        return root


def coherent_states(magnitudes, phases, cutoff: int):
    """Truncated coherent states ``|alpha>``, ``alpha = magnitude e^{i phase}``,
    as an array of one row of ``cutoff + 1`` Fock coefficients per amplitude.
    Any cutoff is allowed: :func:`mix` weighs the mass the rows lose beyond it
    against the mixture's truncation budget.

    Coefficient ``n`` is ``|alpha|^n e^{i n theta} e^{-|alpha|^2 / 2} / sqrt(n!)``,
    evaluated in log space so no factorial is ever formed directly: ``log n!``
    is the running sum of ``log k`` for k = 1..n, and ``n log |alpha|`` is
    taken as 0 at n = 0, so |alpha| = 0 gives exactly the vacuum row.

    The coefficient factors into a magnitude part and a phase part ``e^{i n theta}``;
    each is evaluated once per distinct magnitude or phase and gathered back to the
    points, so an L x Q grid costs L + Q factor rows. Every row is bit for bit the
    row a one-point call gives: a repeated value takes the same operations on the
    same operands, and -0.0 and 0.0, which count as one value, have the same factors.

    Raises:
        ValueError: if ``magnitudes`` and ``phases`` are not 1-D arrays of one
            length, or a magnitude is negative.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    r = np.asarray(magnitudes, dtype=float)
    theta = np.asarray(phases, dtype=float)
    if r.ndim != 1 or r.shape != theta.shape:
        raise ValueError(f"magnitudes and phases must be 1-D arrays of one length, got shapes "
                         f"{r.shape} and {theta.shape}")
    if not np.all(r >= 0.0):
        raise ValueError("magnitudes must be >= 0")
    r, r_index = np.unique(r, return_inverse=True)
    theta, theta_index = np.unique(theta, return_inverse=True)
    r, theta = r[:, None], theta[:, None]
    n = np.arange(cutoff + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))))
    with np.errstate(divide="ignore", invalid="ignore"):  # |alpha| = 0: log 0, then 0 * -inf
        n_log_r = np.where(n == 0, 0.0, n * np.log(r))
    magnitude = np.exp(n_log_r - 0.5 * r**2 - 0.5 * log_factorial)
    return magnitude[r_index] * np.exp(1j * theta * n)[theta_index]


def thermal(nbar: float, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockDensityMatrix:
    """Thermal state with mean photon number ``nbar``: Bose-Einstein diagonal.

    Diagonal entry ``n`` is ``nbar^n / (nbar + 1)^(n + 1)``; all off-diagonal
    entries are exactly zero.

    Raises:
        ValueError: if the geometric tail ``(nbar/(nbar+1))^(cutoff+1)`` exceeds
            ``tail_tol``, the matrix's ``trace_tol`` ("state loses mass ...").
    """
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    diag = np.zeros(cutoff + 1)
    if nbar == 0.0:
        diag[0] = 1.0
    else:
        n = np.arange(cutoff + 1)
        diag = np.exp(n * math.log(nbar) - (n + 1) * math.log(nbar + 1.0))
    return FockDensityMatrix(cutoff, np.diag(diag).astype(np.complex128), trace_tol=tail_tol)


def mix(weights, states, tail_tol: float = DEFAULT_TAIL_TOL) -> FockDensityMatrix:
    """Statistical mixture ``sum_i p_i |psi_i><psi_i|`` of pure states.

    ``states`` holds one Fock coefficient row ``psi_i`` per weight ``p_i``, as
    :func:`coherent_states` returns them: a 2-D (M, dim) array or M rows of one
    length (one cutoff). Weights must be nonnegative and sum to 1 within 1e-12,
    and no row's squared norm may exceed 1. The result is Hermitian and PSD by
    construction, and its trace equals the weighted sum of the row norms.

    Raises:
        ValueError: if the weighted tail ``1 - sum_i p_i |psi_i|^2`` exceeds
            ``tail_tol``, the matrix's ``trace_tol`` ("state loses mass ..."). A
            rare row may lose more, if its weight keeps the sum in budget.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.all(weights >= 0.0):  # false for nan
        raise ValueError(f"mixture weights must be >= 0, got {weights[~(weights >= 0.0)]}")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1 within 1e-12, got {total!r}")
    try:
        stacked = np.asarray(states, dtype=np.complex128)
    except ValueError:
        lengths = {len(row) for row in states}
        if len(lengths) > 1:
            raise ValueError(f"all states must share one cutoff, got row lengths {lengths}"
                             ) from None
        raise
    if stacked.ndim != 2:
        raise ValueError(f"states must be a 2-D (M, dim) array of Fock rows, got shape "
                         f"{stacked.shape}")
    if stacked.shape[:1] != weights.shape:
        raise ValueError(f"{weights.size} weights for {len(stacked)} states")
    norms = np.einsum("ij,ij->i", stacked.conj(), stacked).real
    if np.any(norms > 1.0 + TRACE_EXCESS_TOL):
        raise ValueError(f"state squared norm {norms.max()} exceeds 1")
    # rho = A^T conj(A) with rows sqrt(p_i) psi_i, PSD by construction
    scaled = np.sqrt(weights)[:, None] * stacked
    rho = scaled.T @ scaled.conj()
    rho = 0.5 * (rho + rho.conj().T)
    return FockDensityMatrix(stacked.shape[1] - 1, rho, trace_tol=tail_tol)


def mean_photon(rho: FockDensityMatrix) -> float:
    """Expected photon number ``sum_n n rho_nn``."""
    n = np.arange(rho.cutoff + 1)
    return float(np.sum(n * np.diag(rho.entries).real))

