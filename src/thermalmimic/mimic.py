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
from typing import Literal

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
    if not np.all((u_arr >= 0.0) & (u_arr < 1.0)):  # false for nan, unlike "u < 0 or u >= 1"
        raise ValueError("quantile argument must lie in [0, 1)")
    out = np.sqrt(-nbar * np.log1p(-u_arr))
    return float(out) if np.isscalar(u) else out


@dataclass(frozen=True)
class CodebookSpec:
    """The knobs :func:`build_codebook` builds an L x Q codebook from: target
    mean photon number, L amplitudes, Q phases, scheme and the random scheme's
    seed. Checked at O(1) cost, without building the codebook."""

    nbar: float = 1.35
    codebook_amplitudes: int = 8
    codebook_phases: int = 8
    scheme: Literal["stratified", "random"] = "stratified"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.codebook_amplitudes < 1 or self.codebook_phases < 1:
            raise ValueError("need at least one amplitude and one phase")
        if not (math.isfinite(self.nbar) and self.nbar > 0.0):
            raise ValueError(f"nbar must be finite and > 0, got {self.nbar}")
        scheme = Scheme(self.scheme)
        if scheme == Scheme.RANDOM and self.seed is None:
            raise ValueError("random scheme requires a seed")
        if scheme == Scheme.OPTIMIZED:
            raise ValueError("optimized codebooks come from optimize_weights, not build_codebook")


def build_codebook(spec: CodebookSpec) -> Codebook:
    """Construct the L x Q codebook ``spec`` names, targeting a thermal state of
    mean ``spec.nbar``.

    Stratified: amplitudes at the Rayleigh quantile midpoints (2l-1)/(2L) and
    phases at the uniform midpoints pi(2q-1)/Q, uniform weights. Random:
    amplitudes drawn i.i.d. from the Rayleigh law and phases i.i.d. uniform,
    fully determined by ``spec.seed``.
    """
    nbar, n_amplitudes, n_phases = spec.nbar, spec.codebook_amplitudes, spec.codebook_phases
    scheme = Scheme(spec.scheme)
    if scheme == Scheme.RANDOM:
        rng = np.random.default_rng(spec.seed)
        amps = rayleigh_quantile(nbar, rng.random(n_amplitudes))
        phases = rng.uniform(0.0, fock.TWO_PI, n_phases)
    else:
        l = np.arange(1, n_amplitudes + 1)
        amps = rayleigh_quantile(nbar, (2 * l - 1) / (2 * n_amplitudes))
        q = np.arange(1, n_phases + 1)
        phases = math.pi * (2 * q - 1) / n_phases
    weights = np.full((n_amplitudes, n_phases), 1.0 / (n_amplitudes * n_phases))
    return Codebook(nbar, amps, phases, weights, scheme, spec.seed)


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
    never less faithful than the uniform one, both scored on the ring mixture:
    if the refit loses fidelity (Frobenius distance is only a surrogate for
    it), the uniform weights are kept.

    The phase grid is uniform and thermal light is diagonal, so rotating every
    point by 2*pi/Q permutes the grid and fixes the target: averaging any
    optimum over the Q rotations gives one uniform on each amplitude ring. So
    the fit solves for L ring weights, ring weight ``u_l`` spread as ``u_l / Q``
    over the ring. A ring's mixture fills only the slots ``(m - n) % Q == 0``,
    where it equals the projector ``psi_m conj(psi_n)`` of any one of its
    points; every other slot is zero, as in thermal light. The NNLS design
    holds those entries of one point per ring, real and imaginary parts
    stacked, against the target's, so its residual 2-norm is the Frobenius
    distance; both weight sets are scored on the mixture these entries give.
    """
    from scipy.optimize import nnls  # the package's one scipy use; kept off the import path

    codebook = build_codebook(CodebookSpec(nbar, n_amplitudes, n_phases))
    target = fock.thermal(nbar, cutoff)
    rows, cols, entries = _ring_slots(codebook, cutoff)
    goal = target.entries[rows, cols]
    rings, _ = nnls(np.vstack((entries.real, entries.imag)), np.concatenate((goal.real, goal.imag)))
    solution = np.repeat(rings / n_phases, n_phases)
    total = float(solution.sum())
    if total <= 0.0:
        raise ValueError("nonnegative least squares returned an all-zero weight vector")
    new_weights = (solution / total).reshape(codebook.weights.shape)
    refit = fidelity(_ring_mixture(new_weights, rows, cols, entries, cutoff), target)
    kept = fidelity(_ring_mixture(codebook.weights, rows, cols, entries, cutoff), target)
    if refit < kept:
        return replace(codebook, scheme=Scheme.OPTIMIZED), kept
    return replace(codebook, weights=new_weights, scheme=Scheme.OPTIMIZED), refit


def _ring_slots(codebook: Codebook, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slots ``(rows, cols)`` with ``(m - n) % Q == 0`` that an amplitude ring
    of the uniform phase grid fills, and the projector entries there of each
    ring's first point, one column per ring. Those points' rows are bit for bit
    the grid's, as :func:`~thermalmimic.fock.coherent_states` builds them."""
    n = np.arange(cutoff + 1)
    rows, cols = np.nonzero((n[:, None] - n) % codebook.phases.size == 0)
    amps = codebook.amplitudes
    psi = coherent_states(amps, np.full(amps.size, codebook.phases[0]), cutoff).T
    return rows, cols, psi[rows] * psi[cols].conj()


def _ring_mixture(weights: np.ndarray, rows: np.ndarray, cols: np.ndarray, entries: np.ndarray,
                  cutoff: int) -> FockDensityMatrix:
    """Mixture of the uniform-grid codebook with ring-uniform (L, Q) ``weights``
    from its :func:`_ring_slots`: each ring's weight times its entries on the
    ring slots, zero elsewhere, validated as :func:`~thermalmimic.fock.mix` does."""
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    rho[rows, cols] = entries @ weights.sum(axis=1)
    return FockDensityMatrix(cutoff, rho, trace_tol=fock.DEFAULT_TAIL_TOL)


@dataclass(frozen=True)
class SweepSpec:
    """A (nbar, constellation size) grid for :func:`sweep_fidelity`.

    Each sample count M is a perfect square, the constellation sqrt(M) x sqrt(M).
    Random-scheme cells average ``trials`` codebooks seeded ``seed + trial_index``.
    """

    nbars: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    samples: tuple[int, ...] = (4, 16, 36, 64, 100)
    scheme: Literal["stratified", "random", "optimized"] = "stratified"
    cutoff: int = fock.DEFAULT_CUTOFF
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.nbars or any(not (math.isfinite(nb) and nb > 0) for nb in self.nbars):
            raise ValueError("nbars must be a non-empty list of finite positive values")
        if not self.samples:
            raise ValueError("samples must be a non-empty list of perfect squares")
        for m in self.samples:
            if m < 1 or math.isqrt(m) ** 2 != m:
                raise ValueError(f"sample count {m} is not a perfect square")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def sweep_fidelity(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity of the mimicked state versus constellation size M = L * Q,
    with L = Q = sqrt(M), over the grid ``spec`` names.

    Returns the mean and standard deviation over trials, each of shape
    (len(nbars), len(samples)). Deterministic schemes report a single
    evaluation with zero spread.
    """
    scheme = Scheme(spec.scheme)
    sides = [math.isqrt(m) for m in spec.samples]
    fids = np.empty((len(spec.nbars), len(sides), spec.trials if scheme == Scheme.RANDOM else 1))
    for i, nbar in enumerate(spec.nbars):
        if scheme == Scheme.OPTIMIZED:  # optimize_weights builds its own target
            fids[i, :, 0] = [optimize_weights(nbar, side, side, spec.cutoff)[1] for side in sides]
            continue
        reference = fock.thermal(nbar, spec.cutoff)
        for j, side in enumerate(sides):
            for trial in range(fids.shape[2]):
                cb = build_codebook(CodebookSpec(nbar, side, side, scheme, spec.seed + trial))
                fids[i, j, trial] = fidelity(assemble(cb, spec.cutoff), reference)
    return fids.mean(axis=2), fids.std(axis=2)
