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
from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from . import fock
from .fock import FockDensityMatrix, coherent_states
from .metrics import fidelity


#: The codebook schemes :func:`build_codebook` knows, the one list of their names.
Scheme = Literal["stratified", "random"]
#: The schemes :func:`sweep_fidelity` knows: those of :data:`Scheme` and "optimized".
SweepScheme = Literal[Scheme, "optimized"]


@dataclass(frozen=True, eq=False)
class Codebook:
    """Constellation of L amplitudes x Q phases with mixing weights.

    ``weights[l, q]`` is the probability of the coherent state with amplitude
    ``amplitudes[l]`` and phase ``phases[q]``; weights are nonnegative and sum
    to 1 within 1e-12. It is the constellation alone: the knobs it was built
    from are the :class:`CodebookSpec`'s, and no field here records them.
    """

    amplitudes: np.ndarray
    phases: np.ndarray
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=float)  # copies: the caller's stay writeable
        phs = np.array(self.phases, dtype=float)
        wts = np.array(self.weights, dtype=float)
        for name, arr in (("amplitudes", amps), ("phases", phs)):
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a non-empty 1-D array")
        for name, arr in (("amplitudes", amps), ("phases", phs), ("weights", wts)):
            if not np.isfinite(arr).all():  # NaN passes every range check below
                raise ValueError(f"{name} must be finite")
        if (amps < 0.0).any():
            raise ValueError("amplitudes must be >= 0")
        if (phs < 0.0).any() or (phs >= fock.TWO_PI).any():
            raise ValueError("phases must lie in [0, 2*pi)")
        if wts.shape != (amps.size, phs.size):
            raise ValueError(f"weights must have shape ({amps.size}, {phs.size}), got {wts.shape}")
        if (wts < 0.0).any():
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
    scheme: Scheme = "stratified"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.codebook_amplitudes < 1 or self.codebook_phases < 1:
            raise ValueError("need at least one amplitude and one phase")
        if not (math.isfinite(self.nbar) and self.nbar > 0.0):
            raise ValueError(f"nbar must be finite and > 0, got {self.nbar}")
        if self.scheme not in get_args(Scheme):
            raise ValueError(f"scheme must be one of {', '.join(get_args(Scheme))}, "
                             f"got {self.scheme!r}")
        if self.scheme == "random" and self.seed is None:
            raise ValueError("random scheme requires a seed")


def build_codebook(spec: CodebookSpec) -> Codebook:
    """Construct the L x Q codebook ``spec`` names, targeting a thermal state of
    mean ``spec.nbar``.

    Stratified: amplitudes at the Rayleigh quantile midpoints (2l-1)/(2L) and
    phases at the uniform midpoints pi(2q-1)/Q, uniform weights. Random:
    amplitudes drawn i.i.d. from the Rayleigh law and phases i.i.d. uniform,
    fully determined by ``spec.seed``.
    """
    nbar, n_amplitudes, n_phases = spec.nbar, spec.codebook_amplitudes, spec.codebook_phases
    if spec.scheme == "random":
        rng = np.random.default_rng(spec.seed)
        amps = rayleigh_quantile(nbar, rng.random(n_amplitudes))
        phases = rng.uniform(0.0, fock.TWO_PI, n_phases)
    else:
        amps, phases = _stratified_grid(nbar, n_amplitudes, n_phases)
    weights = np.full((n_amplitudes, n_phases), 1.0 / (n_amplitudes * n_phases))
    return Codebook(amps, phases, weights)


def _stratified_grid(nbar: float, n_amplitudes: int, n_phases: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The stratified scheme's amplitudes and phases, placed as :func:`build_codebook` says."""
    l = np.arange(1, n_amplitudes + 1)
    q = np.arange(1, n_phases + 1)
    amplitudes = rayleigh_quantile(nbar, (2 * l - 1) / (2 * n_amplitudes))
    return amplitudes, math.pi * (2 * q - 1) / n_phases


def assemble(codebook: Codebook, cutoff: int = fock.DEFAULT_CUTOFF) -> FockDensityMatrix:
    """Density matrix of the codebook's coherent-state mixture."""
    return fock.mix(codebook.weights.ravel(), coherent_states(*codebook.points(), cutoff))


def optimize_weights(
    nbar: float, n_amplitudes: int, n_phases: int, reference: FockDensityMatrix
) -> tuple[np.ndarray, float]:
    """Refit the stratified L x Q codebook's weights to ``reference``, the
    thermal state of mean ``nbar`` at the cutoff to fit at, by nonnegative
    least squares; return the refit (L, Q) weights and the fidelity of their
    mixture to ``reference``.

    Minimizes the Frobenius distance between the mixture and the reference over
    nonnegative weights, then renormalizes to sum 1. The returned weights are
    never less faithful than the uniform ones, both scored on the ring mixture:
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
    stacked, against the reference's, so its residual 2-norm is the Frobenius
    distance; both weight sets are scored on the mixture these entries give.
    """
    CodebookSpec(nbar, n_amplitudes, n_phases)  # checks the knobs before any work
    amplitudes, phases = _stratified_grid(nbar, n_amplitudes, n_phases)
    cutoff = reference.cutoff
    rows, cols, entries = _ring_slots(amplitudes, phases, cutoff)
    goal = reference.entries[rows, cols]
    # the real design A stacks entries' real and imaginary parts, so A^T A and
    # A^T b are the real parts of the complex Gram products
    gram = (entries.conj().T @ entries).real
    rings = _nnls(gram, (entries.conj().T @ goal).real)
    solution = np.repeat(rings / n_phases, n_phases)
    total = float(solution.sum())
    if total <= 0.0:
        raise ValueError("nonnegative least squares returned an all-zero weight vector")
    new_weights = (solution / total).reshape(n_amplitudes, n_phases)
    uniform = np.full((n_amplitudes, n_phases), 1.0 / (n_amplitudes * n_phases))
    refit = fidelity(_ring_mixture(new_weights, rows, cols, entries, cutoff), reference)
    kept = fidelity(_ring_mixture(uniform, rows, cols, entries, cutoff), reference)
    return (uniform, kept) if refit < kept else (new_weights, refit)


def _nnls(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The ``x >= 0`` that minimizes ``||A x - b||``, from ``gram = A^T A`` and
    ``rhs = A^T b``: Lawson and Hanson's active-set method (Solving Least
    Squares Problems, 1974, ch. 23) on the normal equations, as Bro and De Jong
    run it (J. Chemometrics 11, 393, 1997).

    Each outer step moves the zero variable of largest gradient ``rhs - gram x``
    into the passive set and solves the unconstrained problem there; while
    that solution has a nonpositive entry, it steps from ``x`` towards it as
    far as feasibility allows and returns the variables that reach zero to the
    zero set. It stops when no zero variable's gradient exceeds the rounding
    floor, or when the entering variable's own solution is nonpositive, which
    in exact arithmetic it never is, and raises ``ValueError`` after ``3n``
    passive-set solves, the cap :func:`scipy.optimize.nnls` keeps.
    """
    n = rhs.size
    floor = 10.0 * np.finfo(float).eps * n * gram.trace()  # trace >= the largest eigenvalue
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    solves = 0
    while True:
        grad = rhs - gram @ x
        grad[passive] = -np.inf
        j = grad.argmax()
        if not grad[j] > floor:
            return x
        passive[j] = True
        while True:
            if solves == 3 * n:
                raise ValueError(f"nonnegative least squares did not converge in {3 * n} steps")
            solves += 1
            p = passive.nonzero()[0]
            s = np.linalg.solve(gram[p[:, None], p], rhs[p])
            if s.min() > 0.0:
                x[p] = s
                break
            falling = s <= 0.0
            start = x[p]
            if not start[falling].min() > 0.0:  # the entering variable: its gradient is rounding
                return x
            ratios = start[falling] / (start[falling] - s[falling])
            k = ratios.argmin()
            x[p] = start + ratios[k] * (s - start)
            x[p[falling][k]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0


def _ring_slots(amplitudes: np.ndarray, phases: np.ndarray, cutoff: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slots ``(rows, cols)`` with ``(m - n) % Q == 0`` that an amplitude ring
    of the uniform ``phases`` grid fills, and the projector entries there of
    each ring's first point, one column per ring. Those points' rows are bit
    for bit the grid's, as :func:`~thermalmimic.fock.coherent_states` builds them."""
    residue = np.arange(cutoff + 1) % phases.size
    rows, cols = np.nonzero(residue[:, None] == residue)
    psi = coherent_states(amplitudes, np.full(amplitudes.size, phases[0]), cutoff).T
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
    scheme: SweepScheme = "stratified"
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
                raise ValueError(f"sample count must be a perfect square >= 1, got {m}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.scheme not in get_args(SweepScheme):
            raise ValueError(f"scheme must be one of {', '.join(get_args(SweepScheme))}, "
                             f"got {self.scheme!r}")


def sweep_fidelity(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity of the mimicked state versus constellation size M = L * Q,
    with L = Q = sqrt(M), over the grid ``spec`` names.

    Returns the mean and standard deviation over trials, each of shape
    (len(nbars), len(samples)). Deterministic schemes report a single
    evaluation with zero spread.
    """
    sides = [math.isqrt(m) for m in spec.samples]
    fids = np.empty((len(spec.nbars), len(sides), spec.trials if spec.scheme == "random" else 1))
    for i, nbar in enumerate(spec.nbars):
        reference = fock.thermal(nbar, spec.cutoff)
        if spec.scheme == "optimized":
            fids[i, :, 0] = [optimize_weights(nbar, side, side, reference)[1] for side in sides]
            continue
        for j, side in enumerate(sides):
            for trial in range(fids.shape[2]):
                cb = build_codebook(CodebookSpec(nbar, side, side, spec.scheme, spec.seed + trial))
                fids[i, j, trial] = fidelity(assemble(cb, spec.cutoff), reference)
    return fids.mean(axis=2), fids.std(axis=2)
