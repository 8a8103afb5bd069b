"""Discrete coherent-state constellations that mimic thermal light.

A thermal state is a phase-randomized mixture of coherent states whose
amplitudes follow a Rayleigh law. This module discretizes that picture into a
finite codebook of L amplitudes x Q phases with mixing weights, builds the
resulting density matrix, and measures how faithfully it reproduces the target
thermal state. Weights default to uniform over a stratified (quantile-midpoint)
grid, which already mimics well; a nonnegative-least-squares refinement is
available when the uniform mixture is not faithful enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.optimize import nnls

from . import fock
from .fock import FockDensityMatrix, coherent_states
from .metrics import fidelity


class Scheme(str, Enum):
    STRATIFIED = "stratified"
    RANDOM = "random"
    OPTIMIZED = "optimized"


class SingularDesignError(ValueError):
    """Weight optimization over a constellation with no distinct points."""


@dataclass(frozen=True, eq=False)
class Codebook:
    """Constellation of L amplitudes x Q phases with mixing weights.

    ``weights[l, q]`` is the probability of the coherent state with amplitude
    ``amplitudes[l]`` and phase ``phases[q]``; weights are nonnegative and sum
    to 1 within 1e-12.
    """

    nbar_target: float
    amplitudes: np.ndarray
    phases: np.ndarray
    weights: np.ndarray = field(repr=False)
    scheme: Scheme
    seed: int | None = None

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=float)
        phs = np.asarray(self.phases, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-D array")
        if phs.ndim != 1 or phs.size < 1:
            raise ValueError("phases must be a non-empty 1-D array")
        if np.any(amps < 0.0):
            raise ValueError("amplitudes must be >= 0")
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

    @property
    def n_amplitudes(self) -> int:
        return self.amplitudes.size

    @property
    def n_phases(self) -> int:
        return self.phases.size

    @property
    def size(self) -> int:
        """Total number of constellation points M = L * Q."""
        return self.amplitudes.size * self.phases.size

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The M points' magnitudes and phases, in the (l, q) order of ``weights.ravel()``."""
        return np.repeat(self.amplitudes, self.n_phases), np.tile(self.phases, self.n_amplitudes)


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


def assemble(
    codebook: Codebook, cutoff: int = fock.DEFAULT_CUTOFF, tail_tol: float = fock.DEFAULT_TAIL_TOL
) -> FockDensityMatrix:
    """Density matrix of the codebook's coherent-state mixture."""
    return fock.mix(codebook.weights.ravel(), coherent_states(*codebook.points(), cutoff, tail_tol))


def optimize_weights(codebook: Codebook, target: FockDensityMatrix) -> Codebook:
    """Refit the codebook weights to a target state by nonnegative least squares.

    Minimizes the Frobenius distance between the mixture and the target over
    nonnegative weights, then renormalizes to sum 1. The returned codebook is
    never less faithful than the input: if the refit loses fidelity (possible
    since Frobenius distance is only a surrogate for fidelity), the original
    weights are kept.
    """
    return _fit_weights(codebook, target)[0]


def _fit_weights(codebook: Codebook, target: FockDensityMatrix) -> tuple[Codebook, float]:
    """:func:`optimize_weights` and the fidelity of the kept mixture to ``target``.

    The NNLS design is the packed Frobenius design: the (dim^2, M)
    :func:`fock.projector_map` of the coherent states against the packed target,
    off-diagonal slots weighted so the residual 2-norm is the Frobenius distance.
    """
    magnitudes, phases = codebook.points()
    alphas = magnitudes * np.exp(1j * phases)
    if alphas.size > 1 and np.all(np.abs(alphas - alphas[0]) < 1e-15):
        raise SingularDesignError("all constellation points coincide; weights are unidentifiable")

    states = coherent_states(magnitudes, phases, target.cutoff)
    frobenius = np.where(np.eye(target.dim, dtype=bool), 1.0, math.sqrt(2.0)).ravel()
    design = fock.projector_map(np.abs(states).T, phases)
    design /= frobenius[:, None]
    solution, _ = nnls(design, fock._pack(target.entries) * frobenius)
    total = float(solution.sum())
    if total <= 0.0:
        raise SingularDesignError("nonnegative least squares returned an all-zero weight vector")
    new_weights = (solution / total).reshape(codebook.weights.shape)
    refit = fidelity(fock.mix(new_weights.ravel(), states), target)
    kept = fidelity(fock.mix(codebook.weights.ravel(), states), target)
    if refit < kept:
        return replace(codebook, scheme=Scheme.OPTIMIZED), kept
    return replace(codebook, weights=new_weights, scheme=Scheme.OPTIMIZED), refit


@dataclass(frozen=True)
class SweepRow:
    nbar: float
    n_samples: int
    scheme: Scheme
    fidelity_mean: float
    fidelity_std: float


def sweep_fidelity(
    nbars: list[float],
    sample_counts: list[int],
    scheme: Scheme = Scheme.STRATIFIED,
    cutoff: int = fock.DEFAULT_CUTOFF,
    trials: int = 1,
    seed: int = 0,
) -> list[SweepRow]:
    """Fidelity of the mimicked state versus constellation size M = L * Q.

    Each M must be a perfect square (L = Q = sqrt(M)). Random-scheme cells are
    averaged over ``trials`` independent codebooks with per-trial seeds
    ``seed + trial_index``; deterministic schemes report a single evaluation
    with zero spread.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    scheme = Scheme(scheme)
    rows = []
    for nbar in nbars:
        reference = fock.thermal(nbar, cutoff)
        for m in sample_counts:
            side = math.isqrt(int(m))
            if side * side != m:
                raise ValueError(f"sample count {m} is not a perfect square")
            fids = []
            for trial in range(trials if scheme == Scheme.RANDOM else 1):
                if scheme == Scheme.RANDOM:
                    cb = build_codebook(nbar, side, side, scheme, seed + trial)
                else:
                    cb = build_codebook(nbar, side, side, Scheme.STRATIFIED)
                if scheme == Scheme.OPTIMIZED:
                    fids.append(_fit_weights(cb, reference)[1])
                else:
                    fids.append(fidelity(assemble(cb, cutoff), reference))
            fids_arr = np.asarray(fids)
            rows.append(
                SweepRow(nbar, m, scheme, float(fids_arr.mean()), float(fids_arr.std()))
            )
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = ["nbar,M,scheme,fidelity_mean,fidelity_std"]
    for r in rows:
        lines.append(
            f"{r.nbar:.17g},{r.n_samples},{r.scheme.value},"
            f"{r.fidelity_mean:.17g},{r.fidelity_std:.17g}"
        )
    return "\n".join(lines) + "\n"


def codebook_to_json(codebook: Codebook) -> dict:
    return {
        "nbar_target": codebook.nbar_target,
        "amplitudes": codebook.amplitudes.tolist(),
        "phases": codebook.phases.tolist(),
        "weights": codebook.weights.tolist(),
        "scheme": codebook.scheme.value,
        "seed": codebook.seed,
    }


def codebook_from_json(obj: dict) -> Codebook:
    return Codebook(
        nbar_target=float(obj["nbar_target"]),
        amplitudes=np.asarray(obj["amplitudes"], dtype=float),
        phases=np.asarray(obj["phases"], dtype=float),
        weights=np.asarray(obj["weights"], dtype=float),
        scheme=Scheme(obj["scheme"]),
        seed=obj.get("seed"),
    )
