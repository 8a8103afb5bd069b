"""Fock-basis representations of coherent, thermal, and mixed optical states.

Everything downstream (constellation shaping, homodyne simulation, tomography,
metrics) works on the two value types defined here: ``PureStateVector`` for
coherent states and ``FockDensityMatrix`` for everything else. Both are
immutable after construction and validate their own matrix invariants, so a
state that reaches the rest of the toolkit is guaranteed Hermitian, positive
semidefinite, and normalized up to a declared truncation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.special import gammaln, xlogy

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


class TruncationError(ValueError):
    """Raised when the chosen Fock cutoff discards more mass than allowed."""


class CutoffMismatchError(ValueError):
    """Raised when an operation combines states with different cutoffs."""


def wrap_phase(phase: float) -> float:
    """Wrap an angle in radians into [0, 2*pi)."""
    wrapped = math.fmod(phase, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    # fmod can round back up to the period itself for tiny negative inputs
    return 0.0 if wrapped >= TWO_PI else wrapped


@dataclass(frozen=True)
class ComplexAmplitude:
    """Polar form of a coherent-state amplitude: magnitude >= 0, phase in [0, 2*pi)."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.magnitude < 0.0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexAmplitude":
        return cls(abs(z), math.atan2(z.imag, z.real))

    @property
    def value(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True, eq=False)
class PureStateVector:
    """Fock-basis coefficient vector of a pure state, truncated at ``cutoff``.

    Coefficient ``n`` is the overlap with the number state ``|n>``. The squared
    norm may fall short of 1 by the truncation mass accepted at construction,
    and is never above 1 (beyond rounding).
    """

    cutoff: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (self.cutoff + 1,):
            raise ValueError(
                f"coefficients must have shape ({self.cutoff + 1},), got {coeffs.shape}"
            )
        norm_sq = float(np.vdot(coeffs, coeffs).real)
        if norm_sq > 1.0 + TRACE_EXCESS_TOL:
            raise ValueError(f"squared norm {norm_sq} exceeds 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.coefficients, self.coefficients).real)


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Complex matrix of number-basis elements ``<m|rho|n>`` up to ``cutoff``.

    ``trace_tol`` is the truncation-mass budget the matrix was built under:
    the trace must lie in [1 - trace_tol, 1 + 1e-12]. Construction validates
    Hermiticity and positive semidefiniteness; traces are never silently
    renormalized (use :func:`normalize` explicitly).
    """

    cutoff: int
    entries: np.ndarray = field(repr=False)
    trace_tol: float = 0.05

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        rho = np.asarray(self.entries, dtype=np.complex128)
        dim = self.cutoff + 1
        if rho.shape != (dim, dim):
            raise ValueError(f"entries must have shape ({dim}, {dim}), got {rho.shape}")
        asym = float(np.max(np.abs(rho - rho.conj().T)))
        if asym > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |rho - rho^dag| = {asym:.3e}")
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < PSD_EIGVAL_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {min_eig:.3e}")
        tr = float(rho.trace().real)
        if tr > 1.0 + TRACE_EXCESS_TOL or tr < 1.0 - self.trace_tol:
            raise ValueError(
                f"trace {tr} outside [1 - {self.trace_tol}, 1 + {TRACE_EXCESS_TOL}]"
            )
        rho.setflags(write=False)
        object.__setattr__(self, "entries", rho)

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @property
    def trace(self) -> float:
        return float(self.entries.trace().real)


def coherent_states(magnitudes, phases, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL):
    """Truncated coherent states ``|alpha>``, ``alpha = magnitude e^{i phase}``,
    as an array of one row of ``cutoff + 1`` Fock coefficients per amplitude.

    Coefficient ``n`` is ``|alpha|^n e^{i n theta} e^{-|alpha|^2 / 2} / sqrt(n!)``,
    evaluated in log space so no factorial is ever formed directly.

    Raises:
        TruncationError: if a row's Poisson mass beyond ``cutoff`` exceeds ``tail_tol``.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    r = np.asarray(magnitudes, dtype=float)[:, None]
    theta = np.asarray(phases, dtype=float)[:, None]
    if not np.all(r >= 0.0):
        raise ValueError("magnitudes must be >= 0")
    n = np.arange(cutoff + 1)
    log_mag = xlogy(n, r) - 0.5 * r**2 - 0.5 * gammaln(n + 1)
    states = np.exp(log_mag) * np.exp(1j * theta * n)
    tails = 1.0 - np.einsum("ij,ij->i", states.conj(), states).real
    if np.any(tails > tail_tol):
        i = np.argmax(tails > tail_tol)  # the first row over budget
        raise TruncationError(
            f"coherent state |alpha|^2 = {r[i, 0] ** 2:.4g} loses mass "
            f"{tails[i]:.3e} beyond cutoff {cutoff} (budget {tail_tol:.1e})"
        )
    return states


def coherent_pure(
    alpha: ComplexAmplitude, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> PureStateVector:
    """Truncated coherent state ``|alpha>``: the one-row case of :func:`coherent_states`."""
    states = coherent_states([alpha.magnitude], [alpha.phase], cutoff, tail_tol)
    return PureStateVector(cutoff, states[0])


def thermal(nbar: float, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockDensityMatrix:
    """Thermal state with mean photon number ``nbar``: Bose-Einstein diagonal.

    Diagonal entry ``n`` is ``nbar^n / (nbar + 1)^(n + 1)``; all off-diagonal
    entries are exactly zero.

    Raises:
        TruncationError: if the geometric tail ``(nbar/(nbar+1))^(cutoff+1)``
            exceeds ``tail_tol``.
    """
    if nbar < 0.0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    diag = np.zeros(cutoff + 1)
    if nbar == 0.0:
        diag[0] = 1.0
        tail = 0.0
    else:
        n = np.arange(cutoff + 1)
        diag = np.exp(n * math.log(nbar) - (n + 1) * math.log(nbar + 1.0))
        tail = (nbar / (nbar + 1.0)) ** (cutoff + 1)
        if tail > tail_tol:
            raise TruncationError(
                f"thermal state nbar = {nbar} has tail mass {tail:.3e} beyond "
                f"cutoff {cutoff} (budget {tail_tol:.1e})"
            )
    return FockDensityMatrix(cutoff, np.diag(diag).astype(np.complex128), trace_tol=tail + 1e-12)


def mix(weights, states) -> FockDensityMatrix:
    """Statistical mixture ``sum_i p_i |psi_i><psi_i|`` of pure states.

    ``states`` holds one Fock coefficient row ``psi_i`` per weight ``p_i``, as
    :func:`coherent_states` returns them. Weights must be nonnegative and sum
    to 1 within 1e-12; all rows must share one length (one cutoff), and no
    row's squared norm may exceed 1. The result is Hermitian and PSD by
    construction, and its trace equals the weighted sum of the row norms
    (short of 1 only by the truncation mass the rows carried).
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0):
        raise ValueError("mixture weights must be >= 0")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1 within 1e-12, got {total!r}")
    lengths = {len(row) for row in states}
    if len(lengths) > 1:
        raise CutoffMismatchError(f"all states must share one cutoff, got row lengths {lengths}")
    stacked = np.asarray(states, dtype=np.complex128)
    if stacked.shape[:1] != weights.shape:
        raise ValueError(f"{weights.size} weights for {len(stacked)} states")
    norms = np.einsum("ij,ij->i", stacked.conj(), stacked).real
    if np.any(norms > 1.0 + TRACE_EXCESS_TOL):
        raise ValueError(f"state squared norm {norms.max()} exceeds 1")
    # rho = A^T conj(A) with rows sqrt(p_i) psi_i, PSD by construction
    scaled = np.sqrt(weights)[:, None] * stacked
    rho = scaled.T @ scaled.conj()
    rho = 0.5 * (rho + rho.conj().T)
    deficit = 1.0 - float(np.sum(weights * norms))
    return FockDensityMatrix(stacked.shape[1] - 1, rho, trace_tol=max(deficit, 0.0) + 1e-9)


@cache
def _upper_triangle(dim: int) -> np.ndarray:
    """Read-only mask of the packed slots holding real parts (m <= n)."""
    mask = np.tri(dim, dtype=bool).T
    mask.setflags(write=False)
    return mask


def _pack(h: np.ndarray) -> np.ndarray:
    """``packed(h)``, the real coordinates of a Hermitian ``h``: its real upper
    triangle, diagonal included, and its imaginary strict lower triangle, in
    one row-major dim x dim block."""
    return np.where(_upper_triangle(h.shape[0]), h.real, h.imag).ravel()


def _unpack(g: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian ``S`` with ``S_mm = g_mm``, ``Re S_mn = g_mn / 2`` (m < n) and
    ``Im S_mn = g_mn / 2`` (m > n): ``sum_k w_k d_k d_k^H`` if ``g = projector_map(...) @ w``."""
    half = 0.5 * g.reshape(dim, dim)
    r = np.where(_upper_triangle(dim), half, 1j * half)
    return r + r.conj().T


def projector_map(radial: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The real C-contiguous (dim^2, K) array whose column k is ``packed(d_k d_k^H)``
    with its off-diagonal slots doubled, ``d_kn = radial[n, k] e^{i n phases[k]}``:
    ``radial_m^2`` in slot (m, m), ``2 cos((n - m) theta) radial_m radial_n`` in
    slot (m, n) for m < n and ``2 sin((m - n) theta) radial_m radial_n`` for m > n.
    So ``_pack(h) @ M`` is ``Tr(h d_k d_k^H)`` and ``_unpack(M @ w, dim)`` is
    ``sum_k w_k d_k d_k^H``. Filled one diagonal at a time, so every write is a
    contiguous row of K values.
    """
    dim, count = radial.shape
    out = np.empty((dim, dim, count))
    for k in range(dim):
        m = np.arange(dim - k)
        products = radial[:dim - k] * radial[k:]
        if k == 0:
            out[m, m] = products
        else:
            out[m, m + k] = 2.0 * np.cos(k * phases) * products
            out[m + k, m] = 2.0 * np.sin(k * phases) * products
    return out.reshape(dim * dim, count)


def mean_photon(rho: FockDensityMatrix) -> float:
    """Expected photon number ``sum_n n rho_nn``."""
    n = np.arange(rho.cutoff + 1)
    return float(np.sum(n * np.diag(rho.entries).real))


def purity(rho: FockDensityMatrix) -> float:
    """``Tr(rho^2)``; 1 for pure states, 1/dim for the maximally mixed state."""
    return float(np.trace(rho.entries @ rho.entries).real)


def normalize(rho: FockDensityMatrix) -> FockDensityMatrix:
    """Rescale to unit trace. Truncated states are never renormalized implicitly."""
    tr = rho.trace
    if tr <= 0.0:
        raise ValueError(f"cannot normalize matrix with trace {tr}")
    return FockDensityMatrix(rho.cutoff, rho.entries / tr, trace_tol=1e-12)


# ---------------------------------------------------------------------------
# Serialization: JSON object and (row, col, re, im) CSV flattening, both
# bit-exact round trips at full double precision.
# ---------------------------------------------------------------------------


def density_to_json(rho: FockDensityMatrix) -> dict:
    return {
        "cutoff": rho.cutoff,
        "entries_real": rho.entries.real.tolist(),
        "entries_imag": rho.entries.imag.tolist(),
    }


def density_from_json(obj: dict, trace_tol: float = 0.05) -> FockDensityMatrix:
    entries = np.asarray(obj["entries_real"], dtype=float) + 1j * np.asarray(
        obj["entries_imag"], dtype=float
    )
    return FockDensityMatrix(int(obj["cutoff"]), entries, trace_tol=trace_tol)


def density_to_csv(rho: FockDensityMatrix) -> str:
    lines = ["row,col,re,im"]
    for m in range(rho.dim):
        for n in range(rho.dim):
            z = rho.entries[m, n]
            lines.append(f"{m},{n},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"


def _csv_records(text: str, header: str) -> list[list[str]]:
    """Fields of the records of CSV ``text`` below the line ``header``; blank and ``#``
    lines are skipped. Raises ``ValueError`` unless there is at least one record
    and every record has as many fields as ``header``."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not rows or rows[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    records = [ln.split(",") for ln in rows[1:]]
    width = header.count(",") + 1
    if not records or any(len(record) != width for record in records):
        raise ValueError(f"expected one or more CSV records of {width} fields {header!r}")
    return records


def density_from_csv(text: str, trace_tol: float = 0.05) -> FockDensityMatrix:
    cells = [(int(m), int(n), re, im) for m, n, re, im in _csv_records(text, "row,col,re,im")]
    if min(min(c[:2]) for c in cells) < 0:
        raise ValueError("CSV row and col indices must be >= 0")
    dim = max(max(c[:2]) for c in cells) + 1
    entries = np.zeros((dim, dim), dtype=np.complex128)
    for m, n, re, im in cells:
        entries[m, n] = complex(float(re), float(im))
    return FockDensityMatrix(dim - 1, entries, trace_tol=trace_tol)
