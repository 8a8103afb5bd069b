"""Maximum-likelihood density-matrix reconstruction from quadrature data.

Maximizes the log-likelihood ``ll(rho) = sum_k ln p_k(rho)`` over density
matrices by accelerated projected-gradient ascent with adaptive restart
(Shang, Zhang & Ng, PRA 95, 062336 (2017)). The record probability
``p_k = Tr(rho Pi_k)`` is real-linear in rho, where ``Pi_k`` is the rank-1
projector onto the quadrature eigenstate of record k, and the gradient of
``ll / K`` is ``R(rho) = (1/K) sum_k Pi_k / p_k``. The solver reads the
records only through these two operations of the record map that
:func:`measurement_matrix` builds in one of two layouts, chosen from the
records and the cutoff:

* Phase blocks, for records that come as J runs of S >= dim records at one
  LO phase each, as the CLI samples them, with ``K dim^2`` at least
  :data:`BLOCKED_MIN_SLOTS`. Each record keeps the dim(dim+1)/2 products
  ``f_m f_n`` of its upper triangle. ``p`` takes one coefficient vector
  ``c_j = Re(rho_mn e^{i (n - m) theta_j})`` per phase and J small
  matrix-vector products; ``R_mn = sum_j e^{-i (n - m) theta_j} sum_{k in j}
  f_m f_n / (K p_k)`` takes J more.
* The packed map, for any other record set: one real (dim^2, K) map ``A`` of
  packed projectors with ``p = packed(rho) @ A``, ``R`` unpacked from
  ``A @ (1/(K p))``. The packed layout, the real coordinates of a Hermitian
  matrix, is this module's alone.

An iteration takes about 1.3 ``p`` and one ``R``: 2.3 passes over the map,
which holds ``K dim^2`` slots packed and about half that in blocks. On one
core with a 2 MB L2 cache at dim 13, that is 81 us in blocks against 175 us
packed for 50 runs of 40 records, where the 2.7 MB packed map spills the
cache. Blocks lose where each run's product call costs more than its work
(runs of S ~ dim) and where the packed map fits in the cache.

Each step projects ``sigma + t R(sigma)`` onto the density matrices
(eigendecomposition, then the eigenvalues onto the unit simplex; Smolin,
Gambetta & Smith, PRL 108, 070502 (2012)), halving ``t`` until the
quadratic model of the step holds. ``sigma`` carries Nesterov momentum, and
a candidate that would lower the likelihood restarts the momentum from the
current iterate, so every accepted iterate is a density matrix and the
likelihood history never decreases.

The stopping rule bounds the distance to the optimum (Glancy, Knill &
Girard, NJP 14, 095017 (2012)): ``ll`` is concave on ``{p > 0}`` and
``Tr(R(sigma) sigma) = 1`` at a unit-trace ``sigma`` there, so ``ll* - ll(rho)
<= ll(sigma) - ll(rho) + K (lambda_max(R(sigma)) - 1)``, the *optimality gap*
in nats, taken at the momentum point whose gradient the next step needs
anyway; at ``sigma = rho`` it is ``K (lambda_max(R(rho)) - 1)``.

:func:`average` gives the mean state and elementwise spread of repeated
reconstructions; the records a ``tomo-end2end`` run writes are laid out by
the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .fock import FockDensityMatrix
from .homodyne import QuadratureDataset, fock_wavefunctions

#: Density floor guarding log(0) in the likelihood.
LIKELIHOOD_FLOOR = 1e-300

#: Step-size growth per accepted step; backtracking halves it.
STEP_GROWTH = 1.2

#: Fewest packed-map slots ``K dim^2`` at which phase-blocked records take
#: the block layout. Measured at cutoffs 6-12 on a 2 MB L2 cache, blocks beat
#: the packed map at every S >= 20 from 242 000 slots (1.9 MB) up, and lose
#: or tie at some S >= 20 at 169 000-196 000.
BLOCKED_MIN_SLOTS = 200_000


@dataclass(frozen=True)
class MleConfig:
    """Reconstruction knobs: cutoff, iteration cap, optimality-gap stop (nats).

    The default ``stop_tol`` of 0.1 nats sits below the statistical scale of
    the data: one standard deviation along one parameter costs about 0.5 nat
    of log-likelihood (``2 delta ll ~ chi2_1``), whatever the record count.
    On 10 runs of 2000 records at cutoff 12 a run stopped there lies within
    about 6e-4 in trace distance of the optimum, against about 0.33 between runs.
    """

    cutoff: int = 12
    max_iterations: int = 2000
    stop_tol: float = 0.1

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.stop_tol) and self.stop_tol > 0.0):
            raise ValueError(f"stop_tol must be finite and > 0, got {self.stop_tol}")


@dataclass(frozen=True, eq=False)
class MleResult:
    """Reconstructed state plus convergence record.

    ``optimality_gap`` bounds ``ll* - ll(rho)`` in nats, taken at the last momentum
    point: ``K (lambda_max(R(rho)) - 1)`` when that point is ``rho`` itself.
    """

    rho: FockDensityMatrix
    converged: bool
    iterations: int
    optimality_gap: float
    log_likelihoods: np.ndarray = field(repr=False)

    @property
    def final_log_likelihood(self) -> float:
        return float(self.log_likelihoods[-1])


@cache
def _upper_triangle(dim: int) -> np.ndarray:
    """Read-only mask of the packed slots holding real parts (m <= n)."""
    mask = np.tri(dim, dtype=bool).T
    mask.setflags(write=False)
    return mask


@cache
def _pack_index(dim: int) -> np.ndarray:
    """Read-only positions of ``packed(h)``'s slots in the interleaved float view
    of a C-ordered complex ``h``: ``2s`` (real part) for slot s on or above the
    diagonal, ``2s + 1`` (imaginary part) below it."""
    index = 2 * np.arange(dim * dim) + ~_upper_triangle(dim).ravel()
    index.setflags(write=False)
    return index


def _pack(h: np.ndarray) -> np.ndarray:
    """``packed(h)``, the real coordinates of a Hermitian ``h``: its real upper
    triangle, diagonal included, and its imaginary strict lower triangle, in
    one row-major dim x dim block. One gather from the real and imaginary
    parts of a C-ordered copy of ``h`` (``h`` itself when it already is one)."""
    floats = np.ascontiguousarray(h, dtype=np.complex128).view(np.float64).ravel()
    return floats.take(_pack_index(h.shape[0]))


def _unpack(g: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian ``S`` with ``S_mm = g_mm``, ``Re S_mn = g_mn / 2`` (m < n) and
    ``Im S_mn = g_mn / 2`` (m > n): ``sum_k w_k Pi_k`` if ``g = A @ w`` for the
    :func:`measurement_matrix` ``A``."""
    half = 0.5 * g.reshape(dim, dim)
    r = np.where(_upper_triangle(dim), half, 1j * half)
    return r + r.conj().T


class _PackedMap:
    """The real C-contiguous (dim^2, K) map ``a`` with ``p = packed(rho) @ a``;
    ``_unpack(a @ w, dim)`` is ``sum_k w_k Pi_k``."""

    def __init__(self, a: np.ndarray) -> None:
        self.a = a

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return _pack(rho) @ self.a

    def gradient(self, p: np.ndarray) -> np.ndarray:
        return _unpack(self.a @ (1.0 / p) / self.a.shape[1], math.isqrt(self.a.shape[0]))


class _PhaseBlocks:
    """Records in J runs of S at one LO phase each: ``products[j, t, s]`` is
    ``f_m f_n`` of record s of run j for the slot ``t = (m, n)``, m <= n, of
    the upper triangle (doubled off the diagonal), ``phases[j, t]`` is
    ``e^{i (n - m) theta_j}`` and ``slots[t]`` is ``m dim + n``."""

    def __init__(self, products: np.ndarray, phases: np.ndarray, slots: np.ndarray,
                 dim: int) -> None:
        self.products, self.phases, self.slots, self.dim = products, phases, slots, dim
        # e^{-i (n - m) theta_j} / (2K): R is this triangle plus its adjoint
        self.back = phases.conj() / (2 * products.shape[0] * products.shape[2])

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        # c_j = Re(rho_mn e^{i (n - m) theta_j}), then one product per run
        c = (self.phases * rho.take(self.slots)).real
        return np.matmul(c[:, None, :], self.products).ravel()

    def gradient(self, p: np.ndarray) -> np.ndarray:
        runs, _, size = self.products.shape
        weighted = np.matmul(self.products, (1.0 / p).reshape(runs, size, 1))
        r = np.zeros((self.dim, self.dim), dtype=np.complex128)
        r.ravel()[self.slots] = np.einsum("jt,jt->t", self.back, weighted[..., 0])
        return r + r.conj().T


def measurement_matrix(data: QuadratureDataset, cutoff: int) -> _PackedMap | _PhaseBlocks:
    """The record map: ``probabilities(rho)`` gives the records' ``p_k = Tr(rho
    Pi_k)`` and ``gradient(p)`` gives ``(1/K) sum_k Pi_k / p_k``, for the
    projector ``Pi_k = d_k d_k^H`` onto record k's quadrature eigenstate
    ``d_kn = f_n(x_k) e^{i n theta_k}``. ``x_k`` is read on the ``half`` axis
    of the kernel ``f_n``: a record tagged with vacuum variance ``v`` is scaled
    by ``sqrt(0.5 / v)``. Records in equal runs of S >= dim at one phase each,
    with a packed map of at least :data:`BLOCKED_MIN_SLOTS` slots, get phase
    blocks; any other record set gets the packed map (module docstring)."""
    x = data.x * math.sqrt(0.5 / data.convention.vacuum_variance)
    radial = fock_wavefunctions(x, cutoff)
    dim, count = radial.shape
    theta = data.theta
    size = int(np.argmax(theta != theta[0])) or count  # the first run's length
    if (size >= dim and count % size == 0 and count * dim * dim >= BLOCKED_MIN_SLOTS
            and (theta.reshape(-1, size) == theta[::size, None]).all()):
        m, n = np.triu_indices(dim)
        runs = radial.reshape(dim, -1, size)
        doubled = 2.0 * runs
        products = np.empty((runs.shape[1], m.size, size))
        for t, (row, col) in enumerate(zip(m, n)):
            np.multiply(runs[row], (runs if row == col else doubled)[col], out=products[:, t])
        phases = np.exp(1j * np.outer(theta[::size], np.arange(dim)))[:, n - m]
        return _PhaseBlocks(products, phases, m * dim + n, dim)
    # column k is packed(Pi_k), off-diagonal slots doubled: f_m^2 in slot (m, m),
    # 2 cos((n - m) theta_k) f_m f_n in slot (m, n) for m < n and
    # 2 sin((m - n) theta_k) f_m f_n for m > n; filled one diagonal at a time,
    # so every write is a contiguous row of K values
    out = np.empty((dim, dim, count))
    for k in range(dim):
        m = np.arange(dim - k)
        products = radial[:dim - k] * radial[k:]
        if k == 0:
            out[m, m] = products
        else:
            out[m, m + k] = 2.0 * np.cos(k * theta) * products
            out[m + k, m] = 2.0 * np.sin(k * theta) * products
    return _PackedMap(out.reshape(dim * dim, count))


def _record_probabilities(rho_entries: np.ndarray,
                          records: _PackedMap | _PhaseBlocks) -> np.ndarray:
    p = records.probabilities(rho_entries)
    return np.maximum(p, LIKELIHOOD_FLOOR, out=p)


def log_likelihood(rho: FockDensityMatrix, data: QuadratureDataset) -> float:
    """``sum_k ln p(x_k | theta_k)`` under the quadrature kernel of ``rho``."""
    records = measurement_matrix(data, rho.cutoff)
    return float(np.sum(np.log(_record_probabilities(rho.entries, records))))


@cache
def _counts(dim: int) -> np.ndarray:
    """Read-only ``1.0, 2.0, ..., dim``."""
    counts = np.arange(1.0, dim + 1)
    counts.setflags(write=False)
    return counts


def _project(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest to the Hermitian ``h`` in Frobenius norm: its
    eigenvalues projected onto the unit simplex, its eigenvectors kept."""
    w, v = np.linalg.eigh(h)
    descending = w[::-1]
    shifts = descending.cumsum()
    shifts -= 1.0
    shifts /= _counts(w.size)
    tau = shifts[(descending > shifts).nonzero()[0][-1]]
    w -= tau
    return (v * np.maximum(w, 0.0, out=w)) @ v.conj().T


def _relative_change(new: np.ndarray, old: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(new - old) / old``, written into ``out``."""
    np.subtract(new, old, out=out)
    return np.divide(out, old, out=out)


def mle_reconstruct(data: QuadratureDataset, config: MleConfig = MleConfig()) -> MleResult:
    """Accelerated projected-gradient ascent of ``ll / K`` from the maximally
    mixed state.

    Stops at the first iterate whose optimality gap, taken after every
    iteration at the momentum point (module docstring), is at most
    ``config.stop_tol`` nats, or at the iteration cap (the result is then
    flagged non-converged). ``log_likelihoods`` holds the likelihood after
    each iteration (an iteration that restarts the momentum keeps the
    iterate), so its monotonicity is checkable per step.
    """
    dim = config.cutoff + 1
    records = measurement_matrix(data, config.cutoff)
    n_records = data.count

    def gap(r: np.ndarray) -> float:
        return n_records * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)

    rho = np.eye(dim, dtype=np.complex128) / dim
    # p belongs to rho and p_sigma to the momentum point sigma; p is linear in
    # the state, so extrapolating sigma extrapolates p_sigma without the map.
    p = _record_probabilities(rho, records)
    sigma, p_sigma, theta, step = rho, p, 1.0, 1.0
    # record-length work buffers for the tests and the history entry below
    u, work = np.empty(n_records), np.empty(n_records)
    history = [float(np.log(p, out=work).sum())]
    r = records.gradient(p)
    bound = gap(r)
    iterations = 0
    while bound > config.stop_tol and iterations < config.max_iterations:
        iterations += 1
        while True:  # backtrack until the quadratic model of the step holds
            new = _project(sigma + step * r)
            p_new = _record_probabilities(new, records)
            _relative_change(p_new, p_sigma, out=u)
            # ll/K(new) - ll/K(sigma) - <R, new - sigma>, and the model's bound on it
            np.log1p(u, out=work)
            work -= u
            curvature = float(work.sum() / n_records)
            distance = np.abs(new - sigma)
            if curvature >= -(distance * distance).sum() / (2.0 * step):
                break
            step *= 0.5
        if sigma is not rho and np.log1p(_relative_change(p_new, p, out=u), out=u).sum() < 0.0:
            sigma, p_sigma, theta = rho, p, 1.0  # adaptive restart, iterate kept
        else:
            step *= STEP_GROWTH
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            beta = (theta - 1.0) / theta_next
            p_sigma = p_new + beta * (p_new - p)
            if beta > 0.0 and p_sigma.min() > 0.0:
                sigma = new + beta * (new - rho)
            else:  # no momentum, or a momentum point outside the likelihood's domain
                sigma, p_sigma = new, p_new
            rho, p, theta = new, p_new, theta_next
        history.append(float(np.log(p, out=work).sum()))
        r = records.gradient(p_sigma)
        # ll* - ll(rho) <= ll(sigma) - ll(rho) + K (lambda_max(R(sigma)) - 1);
        # the log term is exactly 0 when sigma is rho, whose p_sigma is p
        bound = gap(r) + float(np.log(np.divide(p_sigma, p, out=work), out=work).sum())

    return MleResult(
        rho=FockDensityMatrix(config.cutoff, 0.5 * (rho + rho.conj().T), trace_tol=1e-9),
        converged=bound <= config.stop_tol,
        iterations=iterations,
        optimality_gap=bound,
        log_likelihoods=np.asarray(history),
    )


def average(runs: list[FockDensityMatrix]) -> tuple[FockDensityMatrix, np.ndarray]:
    """Elementwise mean (renormalized to unit trace) and elementwise spread of runs.

    The spread of a complex entry combines the standard deviations of its real
    and imaginary parts in quadrature.
    """
    if not runs:
        raise ValueError("need at least one reconstruction to average")
    cutoff = runs[0].cutoff
    for run in runs[1:]:
        if run.cutoff != cutoff:
            raise ValueError(f"cutoff mismatch: {run.cutoff} vs {cutoff}")
    stack = np.stack([run.entries for run in runs])
    mean = stack.mean(axis=0)
    mean /= mean.trace().real
    std = np.sqrt(stack.real.std(axis=0) ** 2 + stack.imag.std(axis=0) ** 2)
    return FockDensityMatrix(cutoff, mean, trace_tol=1e-9), std

