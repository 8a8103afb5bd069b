"""Discrete coherent-state constellations that mimic thermal light.

A thermal state is a phase-randomized mixture of coherent states whose
amplitudes follow a Rayleigh law. This module discretizes that picture into a
finite codebook of L amplitudes x Q phases with mixing weights, builds the
resulting density matrix, and measures how faithfully it reproduces the target
thermal state. Weights default to uniform over a stratified (quantile-midpoint)
grid, which already mimics well; :func:`optimize_weights` refits that grid's
weights to the thermal state by nonnegative least squares over the mixtures
of its L amplitude rings, one weight per ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import fock
from .fock import FockDensityMatrix, coherent_states
from .metrics import fidelity


class Scheme(str, Enum):
    STRATIFIED = "stratified"
    RANDOM = "random"
    OPTIMIZED = "optimized"


@dataclass(frozen=True, eq=False)
class Codebook:
    """Constellation of L amplitudes x Q phases with mixing weights.

    ``weights[l, q]`` is the probability of the coherent state with amplitude
    ``amplitudes[l]`` and phase ``phases[q]``; weights are nonnegative and sum
    to 1 within 1e-12. ``seed``, the random scheme's, is None or >= 0.
    """

    nbar_target: float
    amplitudes: np.ndarray
    phases: np.ndarray
    weights: np.ndarray = field(repr=False)
    scheme: Scheme
    seed: int | None = None

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=float)  # copies: the caller's stay writeable
        phs = np.array(self.phases, dtype=float)
        wts = np.array(self.weights, dtype=float)
        for name, arr in (("amplitudes", amps), ("phases", phs)):
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a non-empty 1-D array")
        checked = (("nbar_target", self.nbar_target), ("amplitudes", amps), ("phases", phs),
                   ("weights", wts))
        for name, arr in checked:
            if not np.all(np.isfinite(arr)):  # NaN passes every range check below
                raise ValueError(f"{name} must be finite")
        if np.any(amps < 0.0):
            raise ValueError("amplitudes must be >= 0")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if np.any(phs < 0.0) or np.any(phs >= fock.TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi)")
        if wts.shape != (amps.size, phs.size):
            raise ValueError(f"weights must have shape ({amps.size}, {phs.size}), got {wts.shape}")
        if np.any(wts < 0.0):
            raise ValueError("weights must be >= 0")
        total = float(wts.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        for name, arr in (("amplitudes", amps), ("phases", phs), ("weights", wts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The M points' magnitudes and phases, in the (l, q) order of ``weights.ravel()``."""
        amps, phs = self.amplitudes, self.phases
        return np.repeat(amps, phs.size), np.tile(phs, amps.size)


def rayleigh_quantile(nbar: float, u):
    """Inverse CDF of the Rayleigh amplitude law for a thermal state.

    Returns ``|alpha| = sqrt(-nbar * ln(1 - u))`` for ``u`` in [0, 1);
    accepts scalars or arrays.
    """
    if not (math.isfinite(nbar) and nbar > 0.0):
        raise ValueError(f"nbar must be finite and > 0, got {nbar}")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("quantile argument must lie in [0, 1)")
    out = np.sqrt(-nbar * np.log1p(-u_arr))
    return float(out) if np.isscalar(u) else out


def check_codebook_args(nbar: float, n_amplitudes: int, n_phases: int, scheme, seed) -> Scheme:
    """Check :func:`build_codebook`'s arguments at O(1) cost, without building
    the L x Q codebook: raise the ``ValueError`` it would, else return the scheme."""
    if n_amplitudes < 1 or n_phases < 1:
        raise ValueError("need at least one amplitude and one phase")
    if not (math.isfinite(nbar) and nbar > 0.0):
        raise ValueError(f"nbar must be finite and > 0, got {nbar}")
    scheme = Scheme(scheme)
    if scheme == Scheme.RANDOM and seed is None:
        raise ValueError("random scheme requires a seed")
    if scheme == Scheme.OPTIMIZED:
        raise ValueError("optimized codebooks come from optimize_weights, not build_codebook")
    return scheme


def build_codebook(
    nbar: float,
    n_amplitudes: int,
    n_phases: int,
    scheme: Scheme = Scheme.STRATIFIED,
    seed: int | None = None,
) -> Codebook:
    """Construct an L x Q codebook targeting a thermal state of mean ``nbar``.

    Stratified: amplitudes at the Rayleigh quantile midpoints (2l-1)/(2L) and
    phases at the uniform midpoints pi(2q-1)/Q, uniform weights. Random:
    amplitudes drawn i.i.d. from the Rayleigh law and phases i.i.d. uniform,
    fully determined by ``seed``.
    """
    scheme = check_codebook_args(nbar, n_amplitudes, n_phases, scheme, seed)
    if scheme == Scheme.RANDOM:
        rng = np.random.default_rng(seed)
        amps = rayleigh_quantile(nbar, rng.random(n_amplitudes))
        phases = rng.uniform(0.0, fock.TWO_PI, n_phases)
    else:
        l = np.arange(1, n_amplitudes + 1)
        amps = rayleigh_quantile(nbar, (2 * l - 1) / (2 * n_amplitudes))
        q = np.arange(1, n_phases + 1)
        phases = math.pi * (2 * q - 1) / n_phases
    weights = np.full((n_amplitudes, n_phases), 1.0 / (n_amplitudes * n_phases))
    return Codebook(nbar, amps, phases, weights, scheme, seed)


def assemble(codebook: Codebook, cutoff: int = fock.DEFAULT_CUTOFF) -> FockDensityMatrix:
    """Density matrix of the codebook's coherent-state mixture."""
    return fock.mix(codebook.weights.ravel(), coherent_states(*codebook.points(), cutoff))


def optimize_weights(
    nbar: float, n_amplitudes: int, n_phases: int, cutoff: int = fock.DEFAULT_CUTOFF
) -> tuple[Codebook, float]:
    """Refit the stratified L x Q codebook's weights to ``thermal(nbar, cutoff)``
    by nonnegative least squares; return the refit codebook and the fidelity of
    its mixture to that thermal state.

    Minimizes the Frobenius distance between the mixture and the target over
    nonnegative weights, then renormalizes to sum 1. The returned codebook is
    never less faithful than the uniform one: if the refit loses fidelity
    (Frobenius distance is only a surrogate for it), the uniform weights are
    kept.

    The phase grid is uniform and thermal light is diagonal, so rotating every
    point by 2*pi/Q permutes the grid and fixes the target: averaging any
    optimum over the Q rotations gives one uniform on each amplitude ring. So
    the fit solves for L ring weights, ring weight ``u_l`` spread as ``u_l / Q``
    over the ring. A ring's mixture fills only the slots ``(m - n) % Q == 0``,
    where it equals the projector ``psi_m conj(psi_n)`` of any one of its
    points; every other slot is zero, as in thermal light. The NNLS design
    holds those entries of one point per ring, real and imaginary parts
    stacked, against the target's, so its residual 2-norm is the Frobenius
    distance.
    """
    from scipy.optimize import nnls  # the package's one scipy use; kept off the import path

    codebook = build_codebook(nbar, n_amplitudes, n_phases)
    target = fock.thermal(nbar, cutoff)
    states = coherent_states(*codebook.points(), cutoff)
    n = np.arange(target.dim)
    rows, cols = np.nonzero((n[:, None] - n) % n_phases == 0)  # the slots a ring fills
    psi = states[::n_phases].T  # one point per ring, one column each
    entries = psi[rows] * psi[cols].conj()
    goal = target.entries[rows, cols]
    rings, _ = nnls(np.vstack((entries.real, entries.imag)), np.concatenate((goal.real, goal.imag)))
    solution = np.repeat(rings / n_phases, n_phases)
    total = float(solution.sum())
    if total <= 0.0:
        raise ValueError("nonnegative least squares returned an all-zero weight vector")
    new_weights = (solution / total).reshape(codebook.weights.shape)
    refit = fidelity(fock.mix(new_weights.ravel(), states), target)
    kept = fidelity(fock.mix(codebook.weights.ravel(), states), target)
    if refit < kept:
        return replace(codebook, scheme=Scheme.OPTIMIZED), kept
    return replace(codebook, weights=new_weights, scheme=Scheme.OPTIMIZED), refit


def check_sweep_args(nbars, sample_counts, trials: int) -> list[int]:
    """Check :func:`sweep_fidelity`'s grid without computing a cell: raise the
    ``ValueError`` it would, else return the sides sqrt(M) of the sample counts."""
    if not nbars or any(not (math.isfinite(nb) and nb > 0) for nb in nbars):
        raise ValueError("nbars must be a non-empty list of finite positive values")
    if not sample_counts:
        raise ValueError("samples must be a non-empty list of perfect squares")
    sides = [math.isqrt(max(int(m), 0)) for m in sample_counts]
    for m, side in zip(sample_counts, sides):
        if m < 1 or side * side != m:
            raise ValueError(f"sample count {m} is not a perfect square")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return sides


def sweep_fidelity(
    nbars: list[float],
    sample_counts: list[int],
    scheme: Scheme = Scheme.STRATIFIED,
    cutoff: int = fock.DEFAULT_CUTOFF,
    trials: int = 1,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity of the mimicked state versus constellation size M = L * Q.

    Each M must be a perfect square (L = Q = sqrt(M)), as :func:`check_sweep_args`
    checks first. Returns the mean and standard deviation over trials, each of
    shape (len(nbars), len(sample_counts)).
    Random-scheme cells are averaged over ``trials`` independent codebooks with
    per-trial seeds ``seed + trial_index``; deterministic schemes report a
    single evaluation with zero spread.
    """
    sides = check_sweep_args(nbars, sample_counts, trials)
    scheme = Scheme(scheme)
    fids = np.empty((len(nbars), len(sides), trials if scheme == Scheme.RANDOM else 1))
    for i, nbar in enumerate(nbars):
        reference = fock.thermal(nbar, cutoff)
        for j, side in enumerate(sides):
            for trial in range(fids.shape[2]):
                if scheme == Scheme.OPTIMIZED:
                    fids[i, j, trial] = optimize_weights(nbar, side, side, cutoff)[1]
                else:
                    cb = build_codebook(nbar, side, side, scheme, seed + trial)
                    fids[i, j, trial] = fidelity(assemble(cb, cutoff), reference)
    return fids.mean(axis=2), fids.std(axis=2)

