"""Discrete coherent-state constellations that mimic thermal light.

A thermal state is a phase-randomized mixture of coherent states whose
amplitudes follow a Rayleigh law. This module discretizes that picture into a
finite codebook of L amplitudes x Q phases with mixing weights, builds the
resulting density matrix, and measures how faithfully it reproduces the target
thermal state. Weights default to uniform over a stratified (quantile-midpoint)
grid, which already mimics well; :func:`optimize_weights` refits them by
nonnegative least squares when the uniform mixture is not faithful enough, and
returns the refit codebook with its fidelity to the target.

The refit fits one weight per amplitude ring when the problem is symmetric
under rotation by 2*pi/Q: the Q phases form a uniform grid (every gap within
``PHASE_GAP_TOL`` of 2*pi/Q, as on the stratified grid) and the target has no
Fock harmonic ``rho[m, m+k]`` with ``k % Q != 0`` (thermal light is diagonal).
That rotation then permutes the design's columns and fixes the target, so the
convex fit has an optimum that is uniform over each ring, found from L
unknowns instead of L*Q. Any other codebook or target is fit point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import fock
from .fock import FockDensityMatrix, coherent_states
from .metrics import fidelity


#: How far (rad) each gap of a Q-phase grid may stray from 2*pi/Q for
#: :func:`optimize_weights` to fit one weight per amplitude ring.
PHASE_GAP_TOL = 1e-12


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
    if nbar <= 0.0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
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
    if nbar <= 0.0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
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


def _ring_size(phases: np.ndarray, packed_target: np.ndarray, harmonic: np.ndarray) -> int:
    """Q if the Q ``phases`` form a uniform grid and every target slot of a
    harmonic ``k % Q != 0`` is zero, else 1 (no symmetry: one point per ring)."""
    q = phases.size
    ordered = np.sort(phases)
    gaps = np.diff(ordered, append=ordered[0] + fock.TWO_PI)
    uniform = np.all(np.abs(gaps - fock.TWO_PI / q) <= PHASE_GAP_TOL)
    return q if uniform and np.all(packed_target[harmonic % q != 0] == 0.0) else 1


def optimize_weights(codebook: Codebook, target: FockDensityMatrix) -> tuple[Codebook, float]:
    """Refit the codebook weights to a target state by nonnegative least squares;
    return the refit codebook and the fidelity of its mixture to ``target``.

    Minimizes the Frobenius distance between the mixture and the target over
    nonnegative weights, then renormalizes to sum 1. The returned codebook is
    never less faithful than the input: if the refit loses fidelity (possible
    since Frobenius distance is only a surrogate for fidelity), the original
    weights are kept. The NNLS design is the (dim^2, M) :func:`fock.projector_map`
    of the coherent states against the packed target, off-diagonal slots
    weighted so the residual 2-norm is the Frobenius distance.

    If the Q phases are a uniform grid (each gap within ``PHASE_GAP_TOL`` of
    2*pi/Q) and the target has no harmonic ``rho[m, m+k]`` with ``k % Q != 0``,
    the fit has one unknown per amplitude ring. Rotating every point by 2*pi/Q
    then permutes the design's columns and acts on the packed space as an
    orthogonal map that fixes the target, so averaging any optimum over the Q
    rotations gives an optimum uniform on each ring; the optimal mixture itself
    is unique (the point of a convex cone nearest the target). A ring's mean
    column is its column at any one grid phase with every slot of a harmonic
    not divisible by Q zeroed, and ring weight ``u_l`` spreads as ``u_l / Q``
    over the ring. So a stratified codebook's refit weights are ring-uniform,
    which may be a different member of the optimal set than the per-point fit
    would pick. Without the symmetry each point is its own ring, and the fit is
    the per-point one.
    """
    from scipy.optimize import nnls  # the package's one scipy use; kept off the import path

    magnitudes, phases = codebook.points()
    alphas = magnitudes * np.exp(1j * phases)
    if alphas.size > 1 and np.all(np.abs(alphas - alphas[0]) < 1e-15):
        raise ValueError("all constellation points coincide; weights are unidentifiable")

    states = coherent_states(magnitudes, phases, target.cutoff)
    n = np.arange(target.dim)
    harmonic = np.abs(n[:, None] - n).ravel()  # k of slot (m, m + k) and (m + k, m)
    frobenius = np.where(harmonic == 0, 1.0, math.sqrt(2.0))
    packed = fock._pack(target.entries)
    size = _ring_size(codebook.phases, packed, harmonic)
    design = fock.projector_map(np.abs(states[::size]).T, phases[::size])  # each ring's first point
    design /= frobenius[:, None]
    design[harmonic % size != 0] = 0.0
    rings, _ = nnls(design, packed * frobenius)
    solution = np.repeat(rings / size, size)
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
    if not nbars or any(not nb > 0 for nb in nbars):
        raise ValueError("nbars must be a non-empty list of positive values")
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
    base = Scheme.STRATIFIED if scheme == Scheme.OPTIMIZED else scheme  # the grid it refits
    fids = np.empty((len(nbars), len(sides), trials if scheme == Scheme.RANDOM else 1))
    for i, nbar in enumerate(nbars):
        reference = fock.thermal(nbar, cutoff)
        for j, side in enumerate(sides):
            for trial in range(fids.shape[2]):
                cb = build_codebook(nbar, side, side, base, seed + trial)
                if scheme == Scheme.OPTIMIZED:
                    fids[i, j, trial] = optimize_weights(cb, reference)[1]
                else:
                    fids[i, j, trial] = fidelity(assemble(cb, cutoff), reference)
    return fids.mean(axis=2), fids.std(axis=2)

