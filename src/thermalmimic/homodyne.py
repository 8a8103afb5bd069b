"""Simulated balanced homodyne detection of Fock-basis states.

Quadrature scale conventions
----------------------------
Two vacuum-variance conventions coexist in homodyne practice and they differ
by a factor sqrt(2) in the quadrature axis:

* ``half``    - vacuum variance 1/2. This is the scale of the harmonic
  oscillator eigenfunctions ``f_n(x) = H_n(x) exp(-x^2/2) / (pi^(1/4)
  sqrt(2^n n!))`` that the tomography likelihood is built on. All sampling and
  reconstruction in this package runs in ``half``.
* ``quarter`` - vacuum variance 1/4. This is the scale produced by referencing
  raw detector voltages to a measured vacuum via
  ``x = (V - V_vac) sqrt(1 / (4 sigma_vac^2))``.

The two are mutually inconsistent if applied blindly, which would corrupt a
reconstruction by a sqrt(2) quadrature scale (showing up as a wrong mean
photon number). Every dataset therefore carries an explicit convention tag,
:func:`calibrate` supports both targets, :func:`convert` rescales between
them, and the tomography module rejects anything not tagged ``half``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import fock
from .fock import FockDensityMatrix, mean_photon

#: Grid resolution for the tabulated inverse-CDF sampler.
SAMPLER_GRID_POINTS = 4096


class Convention(str, Enum):
    HALF = "half"
    QUARTER = "quarter"


class ConventionError(ValueError):
    """Dataset carries the wrong (or no) quadrature scale convention."""


@dataclass(frozen=True, eq=False)
class QuadratureDataset:
    """Scaled quadrature records (x_k, theta_k) under a declared convention."""

    x: np.ndarray
    theta: np.ndarray
    convention: Convention

    def __post_init__(self) -> None:
        xs = np.asarray(self.x, dtype=float)
        thetas = np.asarray(self.theta, dtype=float)
        if xs.ndim != 1 or xs.size < 1:
            raise ValueError("need at least one quadrature record")
        if thetas.shape != xs.shape:
            raise ValueError("x and theta must have identical shapes")
        if np.any(thetas < 0.0) or np.any(thetas >= fock.TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi)")
        if not isinstance(self.convention, Convention):
            raise ConventionError(f"invalid convention tag {self.convention!r}")
        xs.setflags(write=False)
        thetas.setflags(write=False)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "theta", thetas)

    @property
    def count(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class CalibrationStats:
    """Mean and standard deviation of raw detector values on vacuum input."""

    v_vac: float
    sigma_vac: float

    def __post_init__(self) -> None:
        if self.sigma_vac <= 0.0:
            raise ValueError(f"sigma_vac must be > 0, got {self.sigma_vac}")


@dataclass(frozen=True, eq=False)
class RawDataset:
    """Uncalibrated detector values paired with the LO phase at acquisition."""

    voltages: np.ndarray
    theta: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.voltages, dtype=float)
        t = np.asarray(self.theta, dtype=float)
        if v.ndim != 1 or v.size < 1 or t.shape != v.shape:
            raise ValueError("voltages and theta must be matching non-empty 1-D arrays")
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "voltages", v)
        object.__setattr__(self, "theta", t)


def fock_wavefunctions(x, n_max: int) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions f_0..f_n_max on the ``half`` scale.

    Stable three-term recurrence; returns shape (n_max + 1, len(x)).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    f = np.empty((n_max + 1, xs.size))
    f[0] = math.pi ** -0.25 * np.exp(-0.5 * xs * xs)
    if n_max >= 1:
        f[1] = math.sqrt(2.0) * xs * f[0]
    for n in range(1, n_max):
        f[n + 1] = math.sqrt(2.0 / (n + 1)) * xs * f[n] - math.sqrt(n / (n + 1)) * f[n - 1]
    return f


def _pdf_harmonics(rho: FockDensityMatrix, xs: np.ndarray) -> np.ndarray:
    """Phase-independent harmonics of the quadrature pdf on the points ``xs``.

    ``p(x|theta) = Re sum_k exp(i k theta) g_k(x)`` with
    ``g_0 = sum_m rho_mm f_m^2`` and ``g_k = 2 sum_m rho_{m,m+k} f_m f_{m+k}``
    for ``k >= 1`` (Lvovsky & Raymer, RMP 81, 299 (2009)). Returns the real
    array ``[Re g, Im g]`` of shape (2, dim, len(xs)); row k of both halves
    comes from one real matrix product over the k-th diagonal of ``rho``.
    """
    dim = rho.cutoff + 1
    f = fock_wavefunctions(xs, rho.cutoff)
    products = np.empty_like(f)
    harmonics = np.empty((2, dim, xs.size))
    for k in range(dim):
        rows = dim - k
        np.multiply(f[:rows], f[k:], out=products[:rows])
        diagonal = np.diagonal(rho.entries, k) * (1.0 if k == 0 else 2.0)
        harmonics[:, k] = np.stack([diagonal.real, diagonal.imag]) @ products[:rows]
    return harmonics


def _pdf_rows(rho: FockDensityMatrix, thetas, xs: np.ndarray):
    """Yield the pdf on ``xs`` at each LO phase in ``thetas``, in order.

    The dim^2 work is done once in :func:`_pdf_harmonics`; each row is then
    ``sum_k cos(k theta) Re g_k - sin(k theta) Im g_k``, clipped at zero.
    """
    harmonics = _pdf_harmonics(rho, xs).reshape(-1, xs.size)
    k = np.arange(rho.cutoff + 1)
    for theta in thetas:
        weights = np.concatenate((np.cos(k * theta), -np.sin(k * theta)))
        row = weights @ harmonics
        yield np.clip(row, 0.0, None, out=row)


def quadrature_pdf(rho: FockDensityMatrix, theta: float, x):
    """Probability density of quadrature outcome ``x`` at LO phase ``theta``.

    ``p(x|theta) = sum_{m,n} rho_mn exp(i (n - m) theta) f_m(x) f_n(x)`` on the
    ``half`` scale; integrates to the trace of ``rho``. Tiny negative values
    from rounding are clipped to zero.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    p = next(_pdf_rows(rho, [theta], xs))
    return float(p[0]) if np.isscalar(x) else p


def _sampling_grid(rho: FockDensityMatrix) -> np.ndarray:
    half_width = 5.0 * math.sqrt(2.0 * mean_photon(rho) + 1.0)
    return np.linspace(-half_width, half_width, SAMPLER_GRID_POINTS)


def _inverse_cdf_draw(grid: np.ndarray, pdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    dx = np.diff(grid)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)))
    cdf /= cdf[-1]
    return np.interp(u, cdf, grid)


def sample(
    rho: FockDensityMatrix, phases, n_per_phase: int, seed: int
) -> QuadratureDataset:
    """Draw quadrature samples at each LO phase by tabulated inverse-CDF lookup.

    Per-phase generators are spawned deterministically from ``seed``, so the
    output is reproducible and independent of how phases might be distributed
    over workers. Records are concatenated in phase order.
    """
    if n_per_phase < 1:
        raise ValueError(f"n_per_phase must be >= 1, got {n_per_phase}")
    phase_list = [fock.wrap_phase(float(t)) for t in np.atleast_1d(phases)]
    grid = _sampling_grid(rho)
    xs, thetas = [], []
    children = np.random.SeedSequence(seed).spawn(len(phase_list))
    for child, theta, pdf in zip(children, phase_list, _pdf_rows(rho, phase_list, grid)):
        rng = np.random.default_rng(child)
        xs.append(_inverse_cdf_draw(grid, pdf, rng.random(n_per_phase)))
        thetas.append(np.full(n_per_phase, theta))
    return QuadratureDataset(np.concatenate(xs), np.concatenate(thetas), Convention.HALF)


def simulate_raw(
    rho: FockDensityMatrix,
    phases,
    n_per_phase: int,
    gain: float,
    offset: float,
    seed: int,
) -> tuple[RawDataset, CalibrationStats]:
    """Synthesize uncalibrated detector values ``V = offset + gain * x``.

    A separate vacuum acquisition with the same gain and offset (seeded at
    ``seed + 1``) provides the reference statistics that :func:`calibrate`
    needs to undo the detector scale.
    """
    if gain <= 0.0:
        raise ValueError(f"gain must be > 0, got {gain}")
    signal = sample(rho, phases, n_per_phase, seed)
    raw = RawDataset(offset + gain * signal.x, signal.theta)
    vacuum = sample(fock.thermal(0.0, rho.cutoff), phases, n_per_phase, seed + 1)
    vac_raw = offset + gain * vacuum.x
    stats = CalibrationStats(float(vac_raw.mean()), float(vac_raw.std(ddof=1)))
    return raw, stats


def calibrate(
    raw: RawDataset, stats: CalibrationStats, convention: Convention = Convention.HALF
) -> QuadratureDataset:
    """Scale raw values to quadratures referenced to the measured vacuum.

    ``quarter`` applies ``x = (V - V_vac) sqrt(1 / (4 sigma_vac^2))`` (vacuum
    maps to variance 1/4); ``half`` applies ``sqrt(1 / (2 sigma_vac^2))``
    (vacuum maps to variance 1/2, matching the tomography kernel).
    """
    convention = Convention(convention)
    denominator = 4.0 if convention == Convention.QUARTER else 2.0
    scale = math.sqrt(1.0 / (denominator * stats.sigma_vac**2))
    return QuadratureDataset((raw.voltages - stats.v_vac) * scale, raw.theta, convention)


def convert(dataset: QuadratureDataset, convention: Convention) -> QuadratureDataset:
    """Rescale a dataset between the two vacuum-variance conventions."""
    convention = Convention(convention)
    if convention == dataset.convention:
        return dataset
    scale = math.sqrt(2.0) if convention == Convention.HALF else 1.0 / math.sqrt(2.0)
    return QuadratureDataset(dataset.x * scale, dataset.theta, convention)


def dataset_to_csv(dataset: QuadratureDataset) -> str:
    lines = ["theta,x"]
    for theta, x in zip(dataset.theta, dataset.x):
        lines.append(f"{theta:.17g},{x:.17g}")
    return "\n".join(lines) + "\n"


def dataset_sidecar(dataset: QuadratureDataset, seed: int | None = None) -> dict:
    return {"convention": dataset.convention.value, "seed": seed, "count": dataset.count}


def dataset_from_csv(text: str, sidecar: dict) -> QuadratureDataset:
    """Load a dataset; refuses inputs whose sidecar lacks the convention tag."""
    if "convention" not in sidecar:
        raise ConventionError("dataset sidecar is missing the convention tag")
    convention = Convention(sidecar["convention"])
    pairs = np.array([[float(c) for c in pair] for pair in fock._csv_records(text, "theta,x")])
    return QuadratureDataset(pairs[:, 1], pairs[:, 0], convention)
