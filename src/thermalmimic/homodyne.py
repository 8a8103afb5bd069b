"""Simulated balanced homodyne detection of Fock-basis states.

Quadrature scale conventions
----------------------------
Two vacuum-variance conventions coexist in homodyne practice and they differ
by a factor sqrt(2) in the quadrature axis:

* ``half``    - vacuum variance 1/2. This is the scale of the harmonic
  oscillator eigenfunctions ``f_n(x) = H_n(x) exp(-x^2/2) / (pi^(1/4)
  sqrt(2^n n!))`` that the tomography likelihood is built on. :func:`sample`
  draws on this scale.
* ``quarter`` - vacuum variance 1/4. This is the scale produced by referencing
  raw detector voltages to the vacuum trace recorded with them via
  ``x = (V - V_vac) sqrt(1 / (4 sigma_vac^2))``.

The two are mutually inconsistent if applied blindly, which would corrupt a
reconstruction by a sqrt(2) quadrature scale (showing up as a wrong mean
photon number). Every dataset therefore carries an explicit convention tag,
whose :attr:`Convention.vacuum_variance` is the one place the scale is
written: :func:`calibrate` maps a raw record's vacuum trace onto it, and the
tomography module reads each dataset on the ``half`` axis its tag implies.

Sampling
--------
:func:`sample` and :func:`simulate_raw` draw every run of an ensemble in one
pass over the LO phases. Each run draws all its uniforms, phase after phase,
from one generator, ``np.random.default_rng`` of its own seed, so its records
are the same whether it is drawn alone or with other runs. :func:`simulate_raw`
draws a run's vacuum trace from the child ``(*spawn_key, 0)`` of its seed.
The pass integrates each harmonic of the pdf once; one matrix product with
those integrals gives the CDF rows of ``SAMPLER_PHASE_BLOCK`` phases, and a
phase costs one ``np.interp`` for all runs. Only the harmonics above the
rounding floor of :func:`_harmonic_orders` are built, so a phase-invariant
state, every entry off its diagonal at or below that floor (thermal light,
the vacuum), keeps only ``g_0`` and its pass builds one CDF for all phases.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import fock
from .fock import FockDensityMatrix, mean_photon

#: Grid resolution for the tabulated inverse-CDF sampler.
SAMPLER_GRID_POINTS = 4096

#: LO phases whose CDF rows one matrix product builds. On one core with one
#: BLAS thread, the 100 rows of the 8x8 codebook's source (6 integrated
#: harmonics of 4096 points) take 0.80 ms in blocks of 16 against 1.86 ms one
#: phase at a time, 0.8-0.95 ms in blocks of 4 to 32; 16 rows are 0.5 MB.
SAMPLER_PHASE_BLOCK = 16


class Convention(str, Enum):
    HALF = "half"
    QUARTER = "quarter"

    @property
    def vacuum_variance(self) -> float:
        """Variance of the vacuum's quadrature on this scale."""
        return 0.5 if self is Convention.HALF else 0.25


def _freeze_records(dataset, **names: str) -> None:
    """Check ``dataset.theta`` and each record field ``dataset.<key>`` (called
    ``names[key]`` in the errors) and store read-only float copies of them:
    matching non-empty 1-D arrays, finite values, phases in [0, 2*pi)."""
    theta = np.array(dataset.theta, dtype=float)
    arrays = {"theta": theta}
    for attr, name in names.items():
        values = arrays[attr] = np.array(getattr(dataset, attr), dtype=float)
        if values.ndim != 1 or values.size < 1 or theta.shape != values.shape:
            raise ValueError(f"{name} and theta must be matching non-empty 1-D arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if not np.all((theta >= 0.0) & (theta < fock.TWO_PI)):  # false for nan
        raise ValueError("phases must lie in [0, 2*pi)")
    for attr, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(dataset, attr, array)


@dataclass(frozen=True, eq=False)
class QuadratureDataset:
    """Scaled quadrature records (x_k, theta_k) under a declared convention."""

    x: np.ndarray
    theta: np.ndarray
    convention: Convention

    def __post_init__(self) -> None:
        _freeze_records(self, x="quadratures")
        if not isinstance(self.convention, Convention):
            raise ValueError(f"invalid convention tag {self.convention!r}")

    @property
    def count(self) -> int:
        return self.x.size


@dataclass(frozen=True, eq=False)
class RawDataset:
    """One raw acquisition: uncalibrated detector values paired with the LO
    phase at acquisition, and the vacuum values recorded at the same phases."""

    voltages: np.ndarray
    theta: np.ndarray = field(repr=False)
    vacuum: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _freeze_records(self, voltages="voltages", vacuum="vacuum")


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


def _harmonic_orders(rho: FockDensityMatrix) -> np.ndarray:
    """The orders k whose diagonal ``rho_{m,m+k}`` holds an entry above the
    rounding floor ``dim * eps * max|rho|``: the pdf harmonics ``g_k`` that
    :func:`quadrature_pdf` and the sampler build. An order whose entries all
    lie at or below the floor adds at most ``2 floor sum_m |f_m f_{m+k}|`` to
    the pdf, the worst-case rounding of one harmonic's dim-term sum over
    entries of size max|rho|, which a kept harmonic may already carry. A
    codebook on a uniform grid of Q phases keeps the multiples of Q (orders 0,
    8 and 16 of the 8x8 source at cutoff 20), thermal light g_0 alone."""
    magnitudes = np.abs(rho.entries)
    floor = magnitudes.shape[0] * np.finfo(float).eps * magnitudes.max()
    m, n = np.nonzero(np.triu(magnitudes > floor))
    return np.flatnonzero(np.bincount(n - m))


def _pdf_harmonics(rho: FockDensityMatrix, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-independent harmonics of the quadrature pdf on the points ``xs``.

    ``p(x|theta) = Re sum_k exp(i k theta) g_k(x)`` with
    ``g_0 = sum_m rho_mm f_m^2`` and ``g_k = 2 sum_m rho_{m,m+k} f_m f_{m+k}``
    for ``k >= 1`` (Lvovsky & Raymer, RMP 81, 299 (2009)). Returns the
    :func:`_harmonic_orders` of ``rho`` and the real array ``[Re g, Im g]`` of
    those orders, shape (2, orders, len(xs)); the rows of order k in both
    halves come from one real matrix product over the k-th diagonal of ``rho``.
    """
    orders = _harmonic_orders(rho)
    f = fock_wavefunctions(xs, rho.cutoff)
    products = np.empty_like(f)
    harmonics = np.empty((2, orders.size, xs.size))
    for i, k in enumerate(orders):
        rows = rho.cutoff + 1 - k
        np.multiply(f[:rows], f[k:], out=products[:rows])
        diagonal = np.diagonal(rho.entries, k) * (1.0 if k == 0 else 2.0)
        harmonics[:, i] = np.stack([diagonal.real, diagonal.imag]) @ products[:rows]
    return orders, harmonics


def quadrature_pdf(rho: FockDensityMatrix, theta: float, x):
    """Probability density of quadrature outcome ``x`` at LO phase ``theta``.

    ``p(x|theta) = sum_{m,n} rho_mn exp(i (n - m) theta) f_m(x) f_n(x)`` on the
    ``half`` scale; integrates to the trace of ``rho``. Tiny negative values
    from rounding are clipped to zero.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    k, harmonics = _pdf_harmonics(rho, xs)
    weights = np.concatenate((np.cos(k * theta), -np.sin(k * theta)))
    p = np.maximum(weights @ harmonics.reshape(-1, xs.size), 0.0)
    return float(p[0]) if np.isscalar(x) else p


def _cdf_rows(rho: FockDensityMatrix, thetas: np.ndarray, grid: np.ndarray):
    """Yield the sampler's CDF on ``grid`` at each LO phase in ``thetas``, in
    order. Each harmonic row of :func:`_pdf_harmonics` is integrated once by
    the trapezoid rule; the rows of up to ``SAMPLER_PHASE_BLOCK`` consecutive
    phases come from one product of their weights ``[cos k theta, -sin k
    theta]`` with those integrals, normalized by the last column. The integral
    is linear, so a row is the trapezoid CDF of its phase's pdf up to rounding,
    unclipped, and that of ``g_0`` bit for bit if ``g_0`` is the one kept."""
    k, harmonics = _pdf_harmonics(rho, grid)
    rows = harmonics.reshape(-1, grid.size)
    cumulative = np.zeros_like(rows)
    np.cumsum(0.5 * (rows[:, 1:] + rows[:, :-1]) * np.diff(grid), axis=1, out=cumulative[:, 1:])
    for start in range(0, thetas.size, SAMPLER_PHASE_BLOCK):
        angles = np.multiply.outer(thetas[start:start + SAMPLER_PHASE_BLOCK], k)
        cdfs = np.concatenate((np.cos(angles), -np.sin(angles)), axis=1) @ cumulative
        yield from cdfs / cdfs[:, -1:]


def _seed_root(seed):
    """The ``SeedSequence`` of a seed of :func:`sample`: the seed itself, or
    ``SeedSequence(seed)`` of an integer (a ``bool`` is not one)."""
    if isinstance(seed, np.random.bit_generator.SeedSequence):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"a seed must be an integer or a SeedSequence, got {seed!r}")
    return np.random.SeedSequence(seed)


def _sampling_grid(rho: FockDensityMatrix) -> np.ndarray:
    half_width = 5.0 * math.sqrt(2.0 * mean_photon(rho) + 1.0)
    return np.linspace(-half_width, half_width, SAMPLER_GRID_POINTS)


def sample(
    rho: FockDensityMatrix,
    phases,
    n_per_phase: int,
    seeds: Sequence[int | np.random.SeedSequence],
) -> list[QuadratureDataset]:
    """Draw quadrature samples at each LO phase by tabulated inverse-CDF lookup,
    one dataset per seed in ``seeds`` (integers or ``SeedSequence`` objects).

    Run r draws its whole (phases, n_per_phase) block of uniforms, row-major,
    from one generator, ``np.random.default_rng`` of its seed's
    ``SeedSequence``, before any CDF is built. The runs then share one pass:
    :func:`_cdf_rows` builds the CDF rows one block of phases at a time, and
    one ``np.interp`` per phase draws every run's block there, or one for all
    records if ``g_0`` is the one harmonic ``rho`` keeps. A run's records
    depend on its own seed only, not on the other seeds or their number. A
    row-major draw is prefix-stable, so appending phases leaves the blocks of
    the phases before them the same up to rounding (a CDF row's last bits may
    depend on the phases that share its product); changing ``n_per_phase``
    shifts the draws of every phase after the first. Records are concatenated
    in phase order.

    Raises:
        ValueError: before any generator is seeded, if ``phases`` is not a
            non-empty 1-D sequence of finite numbers, ``n_per_phase`` is not an
            integer >= 1 (a ``bool`` is not one), ``seeds`` is empty, or a seed
            is neither an integer >= 0 nor a ``SeedSequence``.
    """
    if isinstance(n_per_phase, bool) or not isinstance(n_per_phase, (int, np.integer)):
        raise ValueError(f"n_per_phase must be an integer, got {n_per_phase!r}")
    if n_per_phase < 1:
        raise ValueError(f"n_per_phase must be >= 1, got {n_per_phase}")
    thetas = np.atleast_1d(np.asarray(phases, dtype=float))
    if thetas.ndim != 1 or thetas.size < 1:
        raise ValueError(f"phases must be a non-empty 1-D sequence, got shape {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("phases must be finite")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must hold at least one seed")
    roots = [_seed_root(seed) for seed in seeds]
    thetas = np.mod(thetas, fock.TWO_PI)
    thetas[thetas >= fock.TWO_PI] = 0.0  # a tiny negative angle rounds up to the period
    uniforms = np.empty((len(roots), thetas.size, n_per_phase))
    for u, root in zip(uniforms, roots):
        np.random.default_rng(root).random(out=u)
    grid = _sampling_grid(rho)
    if _harmonic_orders(rho).tolist() == [0]:  # only g_0 kept: one CDF serves every phase
        xs = np.interp(uniforms, next(_cdf_rows(rho, thetas[:1], grid)), grid)
    else:
        xs = uniforms  # overwritten phase by phase with the records
        for i, cdf in enumerate(_cdf_rows(rho, thetas, grid)):
            xs[:, i] = np.interp(uniforms[:, i], cdf, grid)
    theta = np.repeat(thetas, n_per_phase)
    return [QuadratureDataset(x.ravel(), theta, Convention.HALF) for x in xs]


def simulate_raw(
    rho: FockDensityMatrix,
    phases,
    n_per_phase: int,
    gain: float,
    offset: float,
    seeds: Sequence[int | np.random.SeedSequence],
) -> list[RawDataset]:
    """Raw acquisitions, one per seed in ``seeds`` (the seeds :func:`sample`
    takes): uncalibrated values ``V = offset + gain * x`` of the signal ``x =
    sample(rho, phases, n_per_phase, seeds)[r]``, and the vacuum trace that
    :func:`calibrate` reads, ``|0>`` recorded at the same phases, gain and
    offset. The signals, then the vacuum traces, take one :func:`sample` pass
    for all runs. A run's vacuum is sampled from the child ``(*spawn_key, 0)``
    of its seed's ``SeedSequence`` (``SeedSequence(seed, spawn_key=(0,))`` of
    an integer seed), so it shares no generator with the signal of its own or
    of any other run of an integer-seeded or spawned ensemble.
    """
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"gain must be finite and > 0, got {gain}")
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset}")
    seeds = list(seeds)
    signals = sample(rho, phases, n_per_phase, seeds)  # checks every argument first
    vacuum_roots = [
        np.random.SeedSequence(r.entropy, spawn_key=(*r.spawn_key, 0), pool_size=r.pool_size)
        for r in map(_seed_root, seeds)
    ]
    vacua = sample(fock.thermal(0.0, 0), phases, n_per_phase, vacuum_roots)
    return [
        RawDataset(offset + gain * signal.x, signal.theta, offset + gain * vacuum.x)
        for signal, vacuum in zip(signals, vacua)
    ]


def calibrate(raw: RawDataset, convention: Convention | str) -> QuadratureDataset:
    """Scale raw values to quadratures referenced to the vacuum trace the record
    carries: ``x = (V - V_vac) sqrt(vacuum_variance / sigma_vac^2)``, with
    ``V_vac`` and ``sigma_vac`` the mean and sample standard deviation of
    ``raw.vacuum``, maps the vacuum to the variance of ``convention`` (a
    :class:`Convention` or its value), which the dataset carries as its tag.
    """
    convention = Convention(convention)
    if raw.vacuum.size < 2:
        raise ValueError(f"the vacuum trace needs at least two values, got {raw.vacuum.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below catch overflow
        v_vac, sigma_vac = float(raw.vacuum.mean()), float(raw.vacuum.std(ddof=1))
    if not math.isfinite(v_vac):
        raise ValueError(f"v_vac must be finite, got {v_vac}")
    if not (math.isfinite(sigma_vac) and sigma_vac > 0.0):
        raise ValueError(f"sigma_vac must be finite and > 0, got {sigma_vac}")
    scale = math.sqrt(convention.vacuum_variance / sigma_vac**2)
    return QuadratureDataset((raw.voltages - v_vac) * scale, raw.theta, convention)
