"""Maximum-likelihood density-matrix reconstruction from quadrature data.

Maximizes the log-likelihood ``ll(rho) = sum_k ln p_k(rho)`` over density
matrices by L-BFGS ascent (Liu & Nocedal, Math. Prog. 45, 503 (1989)) over a
complex dim x dim factor ``T`` of ``rho = T T^H / Tr(T T^H)``, the
parameterization of James et al. (PRA 64, 052312 (2001)). The record
probability ``p_k = Tr(rho Pi_k)`` is real-linear in rho, where ``Pi_k`` is
the rank-1 projector onto the quadrature eigenstate of record k, and the
gradient of ``ll / K`` in rho is ``R(rho) = (1/K) sum_k Pi_k / p_k``. The
solver reads the records only through these two operations of the record map
that :func:`measurement_matrix` builds. The map holds the records in J blocks
of S, with real products over T slots of a dim x dim matrix and one phase per
block and slot: ``p`` takes one coefficient vector ``Re(phase * rho_slot)``
per block and J small matrix-vector products, and ``R`` J more, summed over
the blocks onto the slots. Its layout is data, chosen from the records and the
cutoff:

* Phase blocks, for records that come as J runs of S >= max(dim, 20) records
  at one LO phase each, as the CLI samples them: one block per run over the
  dim(dim+1)/2 slots of the upper triangle, with products ``f_m f_n`` and
  phases ``e^{i (n - m) theta_j}``.
* The packed map, for any other record set: one block over all dim^2 slots,
  whose products are the coefficients of ``Re rho_mn`` (m <= n) and ``Im
  rho_mn`` (m > n) in each ``p_k``, with phases 1 and ``-i``.

An iteration takes one ``p``, one ``R`` and one Cholesky, plus one ``p`` per
halving of its step (1.01 ``p`` per iteration on 50 runs of 40 records). On
one core at dim 13, one ``p`` and one ``R`` take 110 us in blocks against 231
us packed for 50 runs of 40 records (the packed map of the same records
shuffled), and 49 us packed for 100 runs of 10. Blocks lose where each run's
product call costs more than its work: runs shorter than 20 took 1.0-1.8
times the packed map's MLE time from 9 800 to 338 000 slots ``K dim^2``.
Longer runs tie with the packed map on small record sets (0.86-1.09 times up
to 98 000 slots) and win on large ones (0.56-0.91 times from 242 000), so
the record count does not enter the choice.

Every ``T`` gives a density matrix, so no step projects. The gradient of ``ll
/ K`` in ``T`` is ``2 (R - Tr(R rho) I) T / ||T||^2`` in the inner product ``Re
Tr(X^H Y)``. The direction is the two-loop recursion over the last
:data:`MEMORY` pairs with ``s.y > 0``, or steepest ascent at unit Frobenius
norm, clearing the memory, for the first step and for a direction that does
not ascend. The step halves from 1 until it gains :data:`ARMIJO` times its
first-order gain; after :data:`MAX_HALVINGS` halvings the search is retried
once from steepest ascent, and a second failure ends the run unconverged.

The gain is read without cancellation: ``ll/K(rho') - ll/K(rho) = Tr(R (rho'
- rho)) + mean(log1p(u) - u)``, ``u = (p' - p) / p``, with ``rho' - rho = (a (B
- rho Tr B) + a^2 (C - rho Tr C)) / ||T + a d||^2``, ``B = d T^H + T d^H`` and
``C = d d^H``, for direction ``d`` and step ``a``. Both terms are fixed by the
direction. The linear one, ``Tr(R B) - Tr(R rho) Tr B = 2 (<R T, d> - Tr(R rho)
<T, d>)``, is ``||T||^2`` times the slope ``<g, d>`` that the Armijo test reads;
only the quadratic one, ``<R d, d> - Tr(R rho) <d, d>``, is formed once per
direction. A trial step computes only ``T'``, ``rho'``, ``p'`` and the log1p
sum. A difference of log-likelihood sums cannot resolve the last steps' gains,
nor can ``rho' - rho`` as a difference of matrices: on rho's null space at a
rank-deficient optimum, its entries are about 1e-17 where ``R - I`` is about
0.1. On 1000 thermal records at cutoff 10 those shortcuts stall at gaps of
1.4e-5 and 1.1e-6 nats; this form certifies 1e-9 in 69 iterations.

The stopping rule bounds the distance to the optimum (Glancy, Knill &
Girard, NJP 14, 095017 (2012)): ``ll`` is concave in rho on ``{p > 0}`` and
``Tr(R(rho) rho) = 1`` at a unit-trace rho there, so ``ll* - ll(rho) <= K
(lambda_max(R(rho)) - 1)``, the *optimality gap* in nats. The rule is decided
at every iterate by one Cholesky factor of ``(1 + stop_tol / K) I - R``, which
exists when the gap is below ``stop_tol``. A certified iterate's gap is read
by ``eigvalsh``: a rounding tie, read above ``stop_tol``, lets the iteration
go on, and a run stopped there reports that gap. A capped run, or one whose
line search fails, reports its last iterate's gap from one ``eigvalsh`` after
the loop, so a run is converged exactly when its gap is at most ``stop_tol``.

:func:`reconstruct_ensemble` reconstructs each of a list of datasets and
returns the runs with their mean state and elementwise spread as an
:class:`Ensemble`; the CLI samples the datasets and writes the records.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fock import FockDensityMatrix
from .homodyne import QuadratureDataset, fock_wavefunctions

#: Density floor guarding log(0) in the likelihood.
LIKELIHOOD_FLOOR = 1e-300

#: L-BFGS memory (pairs of step and gradient change kept), Armijo constant
#: (the share of its first-order gain a step must gain) and step halvings
#: after which a line search gives up.
MEMORY, ARMIJO, MAX_HALVINGS = 10, 1e-4, 60


@dataclass(frozen=True)
class MleConfig:
    """Reconstruction knobs: cutoff, iteration cap, optimality-gap stop (nats).

    The default ``stop_tol`` of 0.1 nats sits below the statistical scale of
    the data: one standard deviation along one parameter costs about 0.5 nat
    of log-likelihood (``2 delta ll ~ chi2_1``), whatever the record count.
    On 10 runs of 2000 records at cutoff 12 a run stopped there lies within
    6.5e-4 in trace distance of its 1e-9-nat fit (median 2.7e-4, thermal
    and 8x8 artificial sources), against about 0.33 between runs.
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

    ``optimality_gap`` bounds ``ll* - ll(rho)`` in nats: ``K (lambda_max(R(rho)) - 1)``,
    taken at ``rho`` itself.
    """

    rho: FockDensityMatrix
    converged: bool
    iterations: int
    optimality_gap: float
    log_likelihoods: np.ndarray = field(repr=False)

    @property
    def final_log_likelihood(self) -> float:
        return float(self.log_likelihoods[-1])


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Repeated reconstructions, their unit-trace mean state and elementwise spread."""

    runs: tuple[MleResult, ...]
    mean: FockDensityMatrix
    spread: np.ndarray = field(repr=False)


class _RecordMap:
    """Records in J blocks of S over T slots of a dim x dim matrix: record s of
    block j has ``p = sum_t Re(phases[j, t] rho.flat[slots[t]]) products[j, t,
    s]``, and ``R`` is the matrix whose entry ``slots[t]`` is ``sum_j
    conj(phases[j, t]) sum_s products[j, t, s] / (2 K p)``, plus its adjoint.
    :func:`measurement_matrix` lays out phase blocks and the packed map."""

    def __init__(self, products: np.ndarray, phases: np.ndarray, slots: np.ndarray,
                 dim: int) -> None:
        self.products, self.phases, self.slots, self.dim = products, phases, slots, dim
        self.back = phases.conj() / (2 * products.shape[0] * products.shape[2])

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        c = (self.phases * rho.take(self.slots)).real
        return np.matmul(c[:, None, :], self.products).ravel()

    def gradient(self, p: np.ndarray) -> np.ndarray:
        runs, _, size = self.products.shape
        weighted = np.matmul(self.products, (1.0 / p).reshape(runs, size, 1))
        r = np.zeros((self.dim, self.dim), dtype=np.complex128)
        r.ravel()[self.slots] = np.einsum("jt,jt->t", self.back, weighted[..., 0])
        return r + r.conj().T


def measurement_matrix(data: QuadratureDataset, cutoff: int) -> _RecordMap:
    """The record map: ``probabilities(rho)`` gives the records' ``p_k = Tr(rho
    Pi_k)`` and ``gradient(p)`` gives ``(1/K) sum_k Pi_k / p_k``, for the
    projector ``Pi_k = d_k d_k^H`` onto record k's quadrature eigenstate
    ``d_kn = f_n(x_k) e^{i n theta_k}``, with ``x_k`` read on the ``half``
    axis of the kernel ``f_n`` (``data.half_x``). Records in equal runs of S >=
    max(dim, 20) at one phase each get phase blocks; any other record set gets
    the packed map (module docstring)."""
    radial = fock_wavefunctions(data.half_x, cutoff)
    dim, count = radial.shape
    theta = data.theta
    size = int(np.argmax(theta != theta[0])) or count  # the first run's length
    if (size >= max(dim, 20) and count % size == 0
            and (theta.reshape(-1, size) == theta[::size, None]).all()):
        m, n = np.triu_indices(dim)
        runs = radial.reshape(dim, -1, size)
        doubled = 2.0 * runs
        products = np.empty((runs.shape[1], m.size, size))
        for t, (row, col) in enumerate(zip(m, n)):
            np.multiply(runs[row], (runs if row == col else doubled)[col], out=products[:, t])
        phases = np.exp(1j * np.outer(theta[::size], np.arange(dim)))[:, n - m]
        return _RecordMap(products, phases, m * dim + n, dim)
    # slot (m, n) of record k holds f_m^2 for m = n, 2 cos((n - m) theta_k) f_m f_n
    # for m < n and 2 sin((m - n) theta_k) f_m f_n for m > n, the coefficients of
    # Re rho_mn and Im rho_mn in p_k; filled one diagonal at a time, so every
    # write is a contiguous row of K values. The trig rows are taken once per
    # distinct phase and gathered back to the records.
    out = np.empty((dim, dim, count))
    distinct, record_phase = np.unique(theta, return_inverse=True)
    for k in range(dim):
        m = np.arange(dim - k)
        products = radial[:dim - k] * radial[k:]
        if k == 0:
            out[m, m] = products
        else:
            out[m, m + k] = (2.0 * np.cos(k * distinct))[record_phase] * products
            out[m + k, m] = (2.0 * np.sin(k * distinct))[record_phase] * products
    phases = np.where(np.tri(dim, dtype=bool).T, 1.0, -1j).reshape(1, -1)
    return _RecordMap(out.reshape(1, dim * dim, count), phases, np.arange(dim * dim), dim)


def _record_probabilities(rho_entries: np.ndarray, records: _RecordMap) -> np.ndarray:
    p = records.probabilities(rho_entries)
    return np.maximum(p, LIKELIHOOD_FLOOR, out=p)


def log_likelihood(rho: FockDensityMatrix, data: QuadratureDataset) -> float:
    """``sum_k ln p(x_k | theta_k)`` under the quadrature kernel of ``rho``."""
    records = measurement_matrix(data, rho.cutoff)
    return float(np.sum(np.log(_record_probabilities(rho.entries, records))))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """``Re Tr(a^H b)``, the real inner product of complex matrices."""
    return np.vdot(a, b).real


def _direction(g: np.ndarray, memory: deque) -> np.ndarray:
    """The L-BFGS ascent direction ``H g`` by the two-loop recursion over the
    stored ``(s, y, 1 / s.y)`` pairs, oldest first."""
    q = g.copy()
    alphas = []
    for s, y, inv_sy in reversed(memory):
        alphas.append(inv_sy * _inner(s, q))
        q -= alphas[-1] * y
    s, y, inv_sy = memory[-1]
    q *= 1.0 / (inv_sy * _inner(y, y))
    for (s, y, inv_sy), alpha in zip(memory, reversed(alphas)):
        q += (alpha - inv_sy * _inner(y, q)) * s
    return q


def _trial(records: _RecordMap, t: np.ndarray, p: np.ndarray, d: np.ndarray, step: float,
           linear: float, quadratic: float) -> tuple:
    """``(gain, T', rho', p')`` at ``T' = T + step d`` from ``rho = T T^H / ||T||^2``,
    with the gain ``ll/K(rho') - ll/K(rho)`` taken without cancellation from the
    direction's two terms: ``linear``, ``||T||^2`` times the slope ``<g, d>``, and
    ``quadratic``, formed once per direction (module docstring)."""
    t_new = t + step * d
    tau = _inner(t_new, t_new)
    rho_new = (t_new @ t_new.conj().T) / tau
    p_new = _record_probabilities(rho_new, records)
    u = p_new - p
    u /= p
    terms = np.log1p(u)
    terms -= u
    gain = (step * linear + step * step * quadratic) / tau + float(terms.sum() / p.size)
    return gain, t_new, rho_new, p_new


def _certified(r: np.ndarray, ceiling: np.ndarray) -> bool:
    """Whether ``ceiling - R`` is positive definite, by one Cholesky: at ``ceiling =
    (1 + stop_tol / K) I``, whether the gap ``K (lambda_max(R) - 1)`` is below
    ``stop_tol``, up to rounding."""
    try:
        np.linalg.cholesky(ceiling - r)
    except np.linalg.LinAlgError:
        return False
    return True


def mle_reconstruct(data: QuadratureDataset, config: MleConfig = MleConfig()) -> MleResult:
    """L-BFGS ascent of ``ll / K`` over the factor ``T`` of ``rho = T T^H / Tr(T
    T^H)`` from the maximally mixed state (module docstring), to the first
    iterate whose optimality gap is at most ``config.stop_tol`` nats or,
    flagged non-converged, to the iteration cap or a line search that fails
    from steepest ascent. Each iterate's stop is decided by one Cholesky
    factor; the returned gap is the certified iterate's, or one ``eigvalsh``
    after the loop for a capped or failed run. ``log_likelihoods`` holds the
    likelihood after each iteration, so its monotonicity is checkable per step.
    """
    dim = config.cutoff + 1
    records = measurement_matrix(data, config.cutoff)
    ceiling = (1.0 + config.stop_tol / data.count) * np.eye(dim)

    def evaluate(t: np.ndarray, rho: np.ndarray, p: np.ndarray) -> tuple:
        # R, Tr(R rho), ||T||^2 and the gradient 2 (R T - Tr(R rho) T) / ||T||^2 of ll/K in T
        r = records.gradient(p)
        traced, tau = _inner(rho, r), _inner(t, t)
        return r, traced, tau, (2.0 / tau) * (r @ t - traced * t)

    def gap(r: np.ndarray) -> float:
        return data.count * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)

    t = np.eye(dim, dtype=np.complex128) / math.sqrt(dim)
    rho = np.eye(dim, dtype=np.complex128) / dim
    p = _record_probabilities(rho, records)
    history = [float(np.log(p).sum())]
    r, traced, tau, g = evaluate(t, rho, p)
    memory: deque = deque(maxlen=MEMORY)
    iterations, bound = 0, math.inf
    while iterations < config.max_iterations:
        # one Cholesky decides the stop; a tie it certifies above stop_tol iterates on
        if _certified(r, ceiling):
            bound = gap(r)
            if bound <= config.stop_tol:
                break
        d = _direction(g, memory) if memory else g
        if not memory or not _inner(g, d) > 0.0:  # steepest ascent at unit norm
            memory.clear()
            d = g / math.sqrt(_inner(g, g))
        slope = _inner(g, d)
        quadratic = _inner(r @ d, d) - traced * _inner(d, d)
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):  # Armijo backtracking
            gain, t_new, rho_new, p_new = _trial(records, t, p, d, step, tau * slope, quadratic)
            if gain >= ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            if memory:  # retry once from steepest ascent
                memory.clear()
                continue
            break
        iterations += 1
        r, traced, tau, g_new = evaluate(t_new, rho_new, p_new)
        s, y = step * d, g - g_new
        if _inner(s, y) > 0.0:
            memory.append((s, y, 1.0 / _inner(s, y)))
        t, rho, p, g = t_new, rho_new, p_new, g_new
        history.append(float(np.log(p).sum()))
    if not bound <= config.stop_tol:  # capped, failed, or a tie's gap from an earlier iterate
        bound = gap(r)

    return MleResult(
        rho=FockDensityMatrix(config.cutoff, 0.5 * (rho + rho.conj().T), trace_tol=1e-9),
        converged=bound <= config.stop_tol,
        iterations=iterations,
        optimality_gap=bound,
        log_likelihoods=np.asarray(history),
    )


def reconstruct_ensemble(datasets: list[QuadratureDataset],
                         config: MleConfig = MleConfig()) -> Ensemble:
    """:func:`mle_reconstruct` of each dataset, in order, with the runs' unit-trace mean
    state and elementwise spread (real and imaginary standard deviations in quadrature)."""
    if not datasets:
        raise ValueError("need at least one dataset to reconstruct")
    runs = tuple(mle_reconstruct(data, config) for data in datasets)
    stack = np.stack([run.rho.entries for run in runs])
    mean = stack.mean(axis=0)
    mean /= mean.trace().real
    spread = np.sqrt(stack.real.std(axis=0) ** 2 + stack.imag.std(axis=0) ** 2)
    return Ensemble(runs, FockDensityMatrix(config.cutoff, mean, trace_tol=1e-9), spread)
