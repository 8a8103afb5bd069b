"""Maximum-likelihood density-matrix reconstruction from quadrature data.

Implements the iterative expectation-maximization fixed point
``rho <- N[R(rho) rho R(rho)]`` with ``R(rho) = (1/K) sum_k Pi_k / p_k(rho)``,
where ``Pi_k`` is the rank-1 projector onto the quadrature eigenstate of
record k and ``N`` renormalizes the trace.

The record probability ``p_k = Tr(rho Pi_k)`` is real-linear in rho, so the
records make one real (K, dim^2) map ``A`` with ``p = A @ packed(rho)``. A
Hermitian matrix is packed as its real upper triangle, diagonal included, and
its imaginary strict lower triangle, row-major in one dim x dim block:
``packed(h) = where(triu, h.real, h.imag).ravel()``. ``R`` is the adjoint of
the same map applied to ``1/(K p)``, so each iteration is two real
matrix-vector products over ``A``. The update is damped as
``R' = (1 - d) I + d R`` (dilution ``d``), which keeps the log-likelihood
non-decreasing in practice on small datasets where the undamped iteration can
oscillate. Each step preserves Hermiticity, positivity, and unit trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .fock import CutoffMismatchError, FockDensityMatrix, mean_photon
from .homodyne import (
    Convention,
    ConventionError,
    QuadratureDataset,
    fock_wavefunctions,
)

#: Density floor guarding log(0) in the likelihood.
LIKELIHOOD_FLOOR = 1e-300


@dataclass(frozen=True)
class MleConfig:
    """Reconstruction knobs: cutoff, iteration cap, stop rule, damping."""

    cutoff: int = 12
    max_iterations: int = 2000
    stop_tol: float = 1e-7
    dilution: float = 0.5

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.stop_tol <= 0.0:
            raise ValueError(f"stop_tol must be > 0, got {self.stop_tol}")
        if not 0.0 < self.dilution <= 1.0:
            raise ValueError(f"dilution must lie in (0, 1], got {self.dilution}")


@dataclass(frozen=True, eq=False)
class MleResult:
    """Reconstructed state plus convergence record."""

    rho: FockDensityMatrix
    converged: bool
    iterations: int
    log_likelihoods: np.ndarray = field(repr=False)

    @property
    def final_log_likelihood(self) -> float:
        return float(self.log_likelihoods[-1])


@dataclass(frozen=True, eq=False)
class ReconstructionEnsemble:
    """Elementwise mean and spread of repeated reconstructions."""

    mean: FockDensityMatrix
    elementwise_std: np.ndarray
    n_runs: int


def _require_half(data: QuadratureDataset) -> None:
    if data.convention != Convention.HALF:
        raise ConventionError(
            f"tomography runs on the 'half' convention; got {data.convention.value!r} "
            "(use homodyne.convert first)"
        )


def measurement_matrix(data: QuadratureDataset, cutoff: int) -> np.ndarray:
    """The real (K, dim^2) map ``A`` with ``p_k = A[k] @ packed(rho)``.

    With ``f_m = f_m(x_k)`` and ``theta = theta_k``, row k holds ``f_m^2`` in
    slot (m, m), ``2 cos((n - m) theta) f_m f_n`` in slot (m, n) for m < n,
    and ``2 sin((m - n) theta) f_m f_n`` in slot (m, n) for m > n: the phase
    harmonics of :func:`homodyne._pdf_harmonics`, filled one diagonal at a
    time. From the left, ``w @ A`` is ``packed(sum_k w_k Pi_k)`` with its
    off-diagonal slots doubled.
    """
    dim = cutoff + 1
    f = fock_wavefunctions(data.x, cutoff)
    out = np.empty((data.count, dim, dim))
    for k in range(dim):
        m = np.arange(dim - k)
        products = f[:dim - k] * f[k:]
        if k == 0:
            out[:, m, m] = products.T
        else:
            out[:, m, m + k] = (2.0 * np.cos(k * data.theta) * products).T
            out[:, m + k, m] = (2.0 * np.sin(k * data.theta) * products).T
    return out.reshape(data.count, dim * dim)


@cache
def _upper_triangle(dim: int) -> np.ndarray:
    """Read-only mask of the packed slots holding real parts (m <= n)."""
    mask = np.tri(dim, dtype=bool).T
    mask.setflags(write=False)
    return mask


def _pack(h: np.ndarray) -> np.ndarray:
    """``packed(h)``: real upper triangle and imaginary strict lower triangle of ``h``."""
    return np.where(_upper_triangle(h.shape[0]), h.real, h.imag).ravel()


def _unpack(g: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian ``R = sum_k w_k Pi_k`` from ``g = w @ A``: ``R_mm = g_mm``,
    ``Re R_mn = g_mn / 2`` for m < n and ``Im R_mn = g_mn / 2`` for m > n."""
    half = 0.5 * g.reshape(dim, dim)
    r = np.where(_upper_triangle(dim), half, 1j * half)
    return r + r.conj().T


def _record_probabilities(rho_entries: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.clip(a @ _pack(rho_entries), LIKELIHOOD_FLOOR, None)


def log_likelihood(rho: FockDensityMatrix, data: QuadratureDataset) -> float:
    """``sum_k ln p(x_k | theta_k)`` under the quadrature kernel of ``rho``."""
    _require_half(data)
    a = measurement_matrix(data, rho.cutoff)
    return float(np.sum(np.log(_record_probabilities(rho.entries, a))))


def mle_reconstruct(data: QuadratureDataset, config: MleConfig = MleConfig()) -> MleResult:
    """Iterate the damped R-rho-R fixed point from the maximally mixed state.

    Stops when the max-abs elementwise change falls below ``config.stop_tol``
    or the iteration cap is hit (the result is then flagged non-converged).
    The log-likelihood history of the accepted iterates is recorded so
    monotonicity is checkable per step.
    """
    _require_half(data)
    dim = config.cutoff + 1
    a = measurement_matrix(data, config.cutoff)
    n_records = a.shape[0]
    identity = np.eye(dim)

    rho = np.eye(dim, dtype=np.complex128) / dim
    # p belongs to the current iterate: it gives that iterate's history entry
    # and the next iteration's R, so the map runs once each way per iteration.
    p = _record_probabilities(rho, a)
    history = [float(np.sum(np.log(p)))]
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        r = _unpack((1.0 / p) @ a / n_records, dim)
        r_damped = (1.0 - config.dilution) * identity + config.dilution * r
        updated = r_damped @ rho @ r_damped
        updated = 0.5 * (updated + updated.conj().T)
        updated /= updated.trace().real
        delta = float(np.max(np.abs(updated - rho)))
        rho = updated
        p = _record_probabilities(rho, a)
        history.append(float(np.sum(np.log(p))))
        if delta < config.stop_tol:
            converged = True
            break

    return MleResult(
        rho=FockDensityMatrix(config.cutoff, rho, trace_tol=1e-9),
        converged=converged,
        iterations=iterations,
        log_likelihoods=np.asarray(history),
    )


def average(runs: list[FockDensityMatrix]) -> ReconstructionEnsemble:
    """Elementwise mean (renormalized to unit trace) and spread of runs.

    The spread of a complex entry combines the standard deviations of its real
    and imaginary parts in quadrature.
    """
    if not runs:
        raise ValueError("need at least one reconstruction to average")
    cutoff = runs[0].cutoff
    for run in runs[1:]:
        if run.cutoff != cutoff:
            raise CutoffMismatchError(f"cutoff mismatch: {run.cutoff} vs {cutoff}")
    stack = np.stack([run.entries for run in runs])
    mean = stack.mean(axis=0)
    mean = 0.5 * (mean + mean.conj().T)
    mean /= mean.trace().real
    std = np.sqrt(stack.real.std(axis=0) ** 2 + stack.imag.std(axis=0) ** 2)
    return ReconstructionEnsemble(
        mean=FockDensityMatrix(cutoff, mean, trace_tol=1e-9),
        elementwise_std=std,
        n_runs=len(runs),
    )


def reconstruction_report(result: MleResult) -> dict:
    from .fock import density_to_json

    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_log_likelihood": result.final_log_likelihood,
        "cutoff": result.rho.cutoff,
        "matrix": density_to_json(result.rho),
        "mean_photon": mean_photon(result.rho),
    }


def ensemble_report(ensemble: ReconstructionEnsemble) -> dict:
    from .fock import density_to_json

    return {
        "cutoff": ensemble.mean.cutoff,
        "matrix": density_to_json(ensemble.mean),
        "elementwise_std": ensemble.elementwise_std.tolist(),
        "n_runs": ensemble.n_runs,
        "mean_photon": mean_photon(ensemble.mean),
    }
