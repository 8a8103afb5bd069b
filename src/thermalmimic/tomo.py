"""Maximum-likelihood density-matrix reconstruction from quadrature data.

Implements the iterative expectation-maximization fixed point
``rho <- N[R(rho) rho R(rho)]`` with ``R(rho) = (1/K) sum_k Pi_k / p_k(rho)``,
where ``Pi_k`` is the rank-1 projector onto the quadrature eigenstate of
record k and ``N`` renormalizes the trace.

The record probability ``p_k = Tr(rho Pi_k)`` is real-linear in rho: the
records make one real (dim^2, K) map ``A`` of packed projectors
(:func:`fock.projector_map`) with ``p = packed(rho) @ A``, and ``R`` is
unpacked from ``A @ (1/(K p))``, so each iteration is two real
matrix-vector products. The update is damped as ``R' = (1 - d) I + d R``
(dilution ``d``), which keeps the log-likelihood non-decreasing in practice
on small datasets where the undamped iteration can oscillate. Each step
preserves Hermiticity, positivity, and unit trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import CutoffMismatchError, FockDensityMatrix, density_to_json, mean_photon
from .fock import _pack, _unpack, projector_map
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
    """The real (dim^2, K) map ``A`` with ``p_k = packed(rho) @ A[:, k]``: the
    :func:`fock.projector_map` of the records' quadrature eigenstates
    ``d_kn = f_n(x_k) e^{i n theta_k}``, so ``_unpack(A @ w, dim)`` is
    ``sum_k w_k Pi_k``."""
    return projector_map(fock_wavefunctions(data.x, cutoff), data.theta)


def _record_probabilities(rho_entries: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.clip(_pack(rho_entries) @ a, LIKELIHOOD_FLOOR, None)


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
    n_records = a.shape[1]
    identity = np.eye(dim)

    rho = np.eye(dim, dtype=np.complex128) / dim
    # p belongs to the current iterate: it gives that iterate's history entry
    # and the next iteration's R, so the map runs once each way per iteration.
    p = _record_probabilities(rho, a)
    history = [float(np.sum(np.log(p)))]
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        r = _unpack(a @ (1.0 / p) / n_records, dim)
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
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_log_likelihood": result.final_log_likelihood,
        "cutoff": result.rho.cutoff,
        "matrix": density_to_json(result.rho),
        "mean_photon": mean_photon(result.rho),
    }


def ensemble_report(ensemble: ReconstructionEnsemble) -> dict:
    return {
        "cutoff": ensemble.mean.cutoff,
        "matrix": density_to_json(ensemble.mean),
        "elementwise_std": ensemble.elementwise_std.tolist(),
        "n_runs": ensemble.n_runs,
        "mean_photon": mean_photon(ensemble.mean),
    }
