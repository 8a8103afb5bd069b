import math
import re
import warnings
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from _states import fock_projector, random_density, rotated, states
from thermalmimic import homodyne, mimic, tomo
from thermalmimic.fock import FockDensityMatrix, coherent_states, mix, thermal
from thermalmimic.homodyne import (
    Convention,
    QuadratureDataset,
    RawDataset,
    _sampling_grid,
    calibrate,
    fock_wavefunctions,
    quadrature_pdf,
    sample,
    simulate_raw,
)

PHASES_50 = 2.0 * math.pi * np.arange(50) / 50


def coherent_state(mag, phase=0.0, cutoff=30):
    return mix([1.0], coherent_states([mag], [phase], cutoff))


def pdf_moment(rho, theta, order, half_width=14.0):
    value, _ = quad(lambda x: x**order * quadrature_pdf(rho, theta, x), -half_width, half_width,
                    limit=300)
    return value


# ---------------------------------------------------------------------------
# quadrature_pdf
# ---------------------------------------------------------------------------


def test_vacuum_pdf_is_unit_variance_half_gaussian():
    vac = thermal(0.0, 10)
    xs = np.linspace(-4, 4, 41)
    assert np.allclose(quadrature_pdf(vac, 0.3, xs), np.exp(-xs * xs) / math.sqrt(math.pi),
                       atol=1e-12)


def test_thermal_pdf_is_gaussian_with_variance_from_nbar():
    rho = thermal(1.0, 40)
    xs = np.linspace(-5, 5, 21)
    sigma_sq = (2.0 * 1.0 + 1.0) / 2.0
    expected = np.exp(-xs * xs / (2 * sigma_sq)) / math.sqrt(2 * math.pi * sigma_sq)
    assert np.allclose(quadrature_pdf(rho, 1.1, xs), expected, atol=1e-9)
    assert pdf_moment(rho, 0.0, 2) == pytest.approx(1.5, abs=1e-6)


def test_diagonal_states_are_phase_invariant():
    rho = thermal(1.0, 30)
    xs = np.linspace(-6, 6, 201)
    assert np.max(np.abs(quadrature_pdf(rho, 0.0, xs) - quadrature_pdf(rho, math.pi / 2, xs))) < 1e-10


def test_coherent_pdf_mean_tracks_lo_phase():
    # measured mean is sqrt(2)|alpha| cos(alpha_phase - lo_phase) on this scale
    rho = coherent_state(1.2, 0.9)
    for theta in (0.0, 0.9, 2.0):
        mean = pdf_moment(rho, theta, 1)
        assert mean == pytest.approx(math.sqrt(2.0) * 1.2 * math.cos(0.9 - theta), abs=1e-9)


def test_pdf_normalizes_to_trace_for_random_states():
    rng = np.random.default_rng(77)
    for _ in range(20):
        rho = random_density(rng)
        total = pdf_moment(rho, float(rng.uniform(0, 2 * math.pi)), 0)
        assert total == pytest.approx(rho.trace, abs=1e-6)


def test_pdf_is_nonnegative():
    rng = np.random.default_rng(5)
    rho = random_density(rng)
    xs = np.linspace(-8, 8, 2001)
    assert np.min(quadrature_pdf(rho, 0.4, xs)) >= 0.0


def complex_record_kernel(rho, xs, thetas):
    # p_k = Re d_k^H rho d_k with d_kn = f_n(x_k) exp(i n theta_k): the
    # projector form of the record probability, written independently of the
    # phase harmonics that quadrature_pdf and the tomography map are built on.
    phases = np.exp(1j * np.outer(np.arange(rho.cutoff + 1), thetas))
    d = (fock_wavefunctions(xs, rho.cutoff) * phases).T
    return np.einsum("km,mn,kn->k", d.conj(), rho.entries, d).real


def test_pdf_rows_match_the_tomography_record_kernel():
    # The grid pdf (phase harmonics) and the likelihood kernel (the real record
    # map) are both checked against the complex projector form of p(x|theta);
    # a sign slip in theta or a conjugation in any one of them breaks this
    # agreement for non-diagonal states.
    rng = np.random.default_rng(31)
    xs = np.linspace(-5, 5, 101)
    thetas = (0.0, 0.7, 2.9, 5.1)
    for _ in range(3):
        rho = random_density(rng)
        for theta in thetas:
            records = QuadratureDataset(xs, np.full(xs.size, theta), "half")
            expected = complex_record_kernel(rho, xs, records.theta)
            record_map = tomo.measurement_matrix(records, rho.cutoff)
            kernel = tomo._record_probabilities(rho.entries, record_map)
            assert np.allclose(quadrature_pdf(rho, theta, xs), expected, rtol=0, atol=1e-12)
            assert np.allclose(kernel, expected, rtol=0, atol=1e-12)


def coherent_mixture_pdf(weights, magnitudes, angles, theta, xs):
    """The closed-form quadrature pdf of a coherent-state mixture at LO phase
    ``theta``: one Gaussian of variance 1/2 per component, centred on
    ``sqrt(2) |alpha| cos(phi - theta)``."""
    means = math.sqrt(2.0) * np.asarray(magnitudes) * np.cos(np.asarray(angles) - theta)
    return np.asarray(weights) @ np.exp(-np.subtract.outer(means, xs) ** 2) / math.sqrt(math.pi)


@pytest.mark.parametrize("name", ["8x8-codebook", "thermal"])
def test_sampler_pdf_rows_match_the_closed_form_law(name):
    # quadrature_pdf's rows, from the harmonics the sampler integrates, at
    # cutoff 60 against a law written without fock_wavefunctions: a coherent
    # mixture's sum of Gaussians, and thermal light's N(0, nbar + 1/2)
    # (measured: 5e-16 for both)
    thetas = [0.0, 0.9, 2.3, 4.0, 5.7]
    if name == "thermal":
        nbar = 1.35
        rho = thermal(nbar, 60)
        grid = _sampling_grid(rho)
        variance = nbar + 0.5
        gaussian = np.exp(-grid * grid / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
        expected = [gaussian] * len(thetas)
    else:
        codebook = mimic.build_codebook(mimic.CodebookSpec(1.35, 8, 8))
        rho = mimic.assemble(codebook, 60)
        grid = _sampling_grid(rho)
        expected = [coherent_mixture_pdf(codebook.weights.ravel(), *codebook.points(), theta, grid)
                    for theta in thetas]
    rows = [quadrature_pdf(rho, theta, grid) for theta in thetas]
    for theta, row, law in zip(thetas, rows, expected, strict=True):
        assert np.max(np.abs(row - law)) <= 1e-13, theta


def trapezoid_law(cdf, pdf_d1, pdf_d3, dx):
    """The trapezoid CDF, normalized by its last value, of a smooth pdf on a
    uniform grid of step ``dx``, in closed form from the pdf's exact integral
    ``cdf`` and its first and third derivatives ``pdf_d1`` and ``pdf_d3`` on the
    grid: the Euler-Maclaurin formula adds them at ``dx^2 / 12`` and ``-dx^4 /
    720``. The next term, ``dx^6 / 30240`` times the fifth derivative, is below
    1e-16 on the sampling grids here."""
    law = cdf + dx**2 / 12.0 * pdf_d1 - dx**4 / 720.0 * pdf_d3
    law -= law[0]
    return law / law[-1]


@pytest.mark.parametrize("name", ["8x8-codebook", "thermal"])
def test_sampler_cdf_rows_match_the_closed_form_law(name):
    # the sampler's CDF rows at cutoff 60 against the erf of each law, with
    # the trapezoid rule's own error in closed form (the plain erf is 2.4e-7
    # away; measured with the correction: 1.0e-15 thermal, 2.8e-15 codebook)
    thetas = [0.0, 0.9, 2.3, 4.0, 5.7]
    if name == "thermal":
        nbar = 1.35
        rho = thermal(nbar, 60)
        grid = _sampling_grid(rho)
        v = nbar + 0.5
        gaussian = np.exp(-grid * grid / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
        law = trapezoid_law(0.5 * erf(grid / math.sqrt(2.0 * v)), -grid / v * gaussian,
                            (3.0 * grid / v**2 - grid**3 / v**3) * gaussian, grid[1] - grid[0])
        expected = [law] * len(thetas)
    else:
        codebook = mimic.build_codebook(mimic.CodebookSpec(1.35, 8, 8))
        rho = mimic.assemble(codebook, 60)
        grid = _sampling_grid(rho)
        weights, (magnitudes, angles) = codebook.weights.ravel(), codebook.points()
        expected = []
        for theta in thetas:
            # one Gaussian of variance 1/2 per component, in y = x - its mean
            y = np.subtract.outer(grid, math.sqrt(2.0) * magnitudes * np.cos(angles - theta))
            g = np.exp(-y * y) / math.sqrt(math.pi)
            expected.append(trapezoid_law(0.5 * erf(y) @ weights, -2.0 * y * g @ weights,
                                          (12.0 * y - 8.0 * y**3) * g @ weights, grid[1] - grid[0]))
    rows = list(homodyne._cdf_rows(rho, np.array(thetas), grid))
    for theta, row, law in zip(thetas, rows, expected, strict=True):
        assert np.max(np.abs(row - law)) <= 1e-13, theta


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rotating_the_state_shifts_its_pdf_rows_in_lo_phase(data):
    # (U rho U^H)_mn = e^{i (m - n) phi} rho_mn for U = diag(e^{i n phi}), so
    # p'(x|theta + phi) = p(x|theta): the sampler's side of the covariance
    # that tomo's reconstruction keeps, on its CDF rows; 1 to 40 phases take
    # whole blocks and remainders of SAMPLER_PHASE_BLOCK
    cutoff = data.draw(st.integers(0, 12), label="cutoff")
    rho = data.draw(states(cutoff), label="rho")
    phi = data.draw(st.floats(0.0, 2.0 * math.pi), label="phi")
    thetas = np.array(data.draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                                         min_size=1, max_size=40), label="thetas"))
    turned = rotated(np.diag(np.exp(1j * phi * np.arange(cutoff + 1))), rho)
    xs = np.linspace(-7.0, 7.0, 141)
    cdfs = np.array(list(homodyne._cdf_rows(rho, thetas, xs)))
    shifted = np.array(list(homodyne._cdf_rows(turned, np.mod(thetas + phi, 2.0 * math.pi), xs)))
    assert cdfs.shape == shifted.shape == (thetas.size, xs.size)
    # each CDF row is its own phase's, whichever block it came from
    for theta, cdf in zip(thetas, cdfs):
        row = quadrature_pdf(rho, theta, xs)
        assert row.min() >= 0.0
        expected = complex_record_kernel(rho, xs, np.full(xs.size, theta))
        assert np.max(np.abs(row - expected)) <= 1e-13
        assert np.max(np.abs(cdf - trapezoid_cdf(row, xs))) <= ROW_ROUNDING
    assert np.max(np.abs(shifted - cdfs)) <= ROW_ROUNDING


def test_fock_wavefunctions_are_orthonormal():
    xs = np.linspace(-15, 15, 20001)
    f = fock_wavefunctions(xs, 12)
    gram = f @ f.T * (xs[1] - xs[0])
    assert np.allclose(gram, np.eye(13), atol=1e-6)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_vacuum_samples_have_half_variance():
    ds = sample(thermal(0.0, 10), PHASES_50, 40, [42])[0]
    assert ds.count == 2000
    assert ds.convention == "half"
    assert ds.x.var() == pytest.approx(0.5, abs=0.05)


def test_thermal_samples_have_scaled_variance():
    ds = sample(thermal(1.0, 30), PHASES_50, 40, [43])[0]
    assert ds.x.var() == pytest.approx(1.5, abs=0.15)


def test_sampling_is_deterministic_per_seed():
    a = sample(thermal(1.0, 30), PHASES_50, 40, [7])[0]
    b = sample(thermal(1.0, 30), PHASES_50, 40, [7])[0]
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.theta, b.theta)
    c = sample(thermal(1.0, 30), PHASES_50, 40, [8])[0]
    assert not np.array_equal(a.x, c.x)


def trapezoid_cdf(pdf, grid):
    """The trapezoid CDF of ``pdf`` on ``grid``, normalized by its last value."""
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
    return cdf / cdf[-1]


def reference_draw(rho, theta, u, pdf=None):
    """Inverse-CDF lookup of the uniforms ``u`` in the trapezoid CDF of ``pdf``,
    by default ``quadrature_pdf``, on the sampling grid."""
    grid = _sampling_grid(rho)
    pdf = quadrature_pdf(rho, theta, grid) if pdf is None else pdf
    return np.interp(u, trapezoid_cdf(pdf, grid), grid)


def nearly_diagonal_state(entry=1e-15):
    """``thermal(1.0, 30)`` with ``rho[0,1] = rho[1,0] = entry``. The default
    lies below the rounding floor, 31 eps max|rho| = 3.4e-15, so its pdf keeps
    only g_0; 1e-12 lies above it and turns the pdf with the phase."""
    entries = thermal(1.0, 30).entries.copy()
    entries[0, 1] = entries[1, 0] = entry
    return FockDensityMatrix(30, entries)


def sampling_states():
    """States whose pdf turns with the LO phase, and phase-invariant ones."""
    return {
        "coherent": coherent_state(1.1, 0.8, cutoff=20),
        "thermal": thermal(1.35, 30),
        "vacuum": thermal(0.0, 0),
        "nearly-diagonal": nearly_diagonal_state(),
        "off-diagonal-1e-12": nearly_diagonal_state(1e-12),
    }


#: The sampling states whose pdf keeps only g_0.
PHASE_INVARIANT = ("thermal", "vacuum", "nearly-diagonal")

#: Rounding allowed between two builds of one row: a pdf row's, relative to
#: its maximum, from a block product and from a one-phase product (measured:
#: 6 eps), and a CDF row's, which ends at 1, from the sampler's integrated
#: harmonics and from the trapezoid CDF of the clipped one-phase pdf
#: (measured: 3.7e-15).
ROW_ROUNDING = 1e-13


def test_sample_blocks_follow_phase_order_and_the_run_generator():
    # bit for bit: block i is row i of the run's one draw,
    # default_rng(seed).random((phases, n)), through _cdf_rows' row i for the
    # same phases, which lies within rounding of the trapezoid CDF of the
    # one-phase quadrature_pdf. A phase-invariant state's shared CDF draws
    # what that one-phase CDF at each phase draws; the state whose one
    # off-diagonal entry lies below the rounding floor shares it too, and its
    # twin above the floor, whose CDF rows differ from phase to phase, does
    # not. The phases hold a repeated one, two wrapped ones, and a whole block
    # plus a remainder.
    phases = [0.4, 2.5, 2.5 + 2.0 * math.pi, 5.9, 0.4, -1.3, *np.linspace(0.1, 6.2, 15)]
    assert len(phases) > homodyne.SAMPLER_PHASE_BLOCK
    wrapped = np.mod(phases, 2.0 * math.pi)
    n = 30
    uniforms = np.random.default_rng(np.random.SeedSequence(19)).random((len(phases), n))
    for name, rho in sampling_states().items():
        ds = sample(rho, phases, n, [19])[0]
        grid = _sampling_grid(rho)
        cdfs = list(homodyne._cdf_rows(rho, wrapped, grid))
        for j, (theta, u, cdf) in enumerate(zip(wrapped, uniforms, cdfs, strict=True)):
            one_phase = trapezoid_cdf(quadrature_pdf(rho, theta, grid), grid)
            assert np.max(np.abs(cdf - one_phase)) <= ROW_ROUNDING, (name, j)
            block = slice(j * n, (j + 1) * n)
            assert np.all(ds.theta[block] == theta), name
            assert np.array_equal(ds.x[block], np.interp(u, cdf, grid)), (name, j)
            if name in PHASE_INVARIANT:
                assert np.array_equal(ds.x[block], reference_draw(rho, theta, u)), (name, j)
        turns = any(not np.array_equal(cdf, cdfs[0]) for cdf in cdfs)
        assert turns == (name not in PHASE_INVARIANT), name


def full_pdf_harmonics(rho, xs):
    """``[Re g, Im g]`` of every order 0 .. cutoff, zero or not: shape (2, dim, len(xs))."""
    dim = rho.cutoff + 1
    f = fock_wavefunctions(xs, rho.cutoff)
    harmonics = np.empty((2, dim, xs.size))
    for k in range(dim):
        diagonal = np.diagonal(rho.entries, k) * (1.0 if k == 0 else 2.0)
        harmonics[:, k] = np.stack([diagonal.real, diagonal.imag]) @ (f[:dim - k] * f[k:])
    return harmonics


def full_pdf_row(rho, theta, xs):
    """The pdf row at one phase from every harmonic g_0 .. g_cutoff, one
    matrix-vector product."""
    k = np.arange(rho.cutoff + 1)
    weights = np.concatenate((np.cos(k * theta), -np.sin(k * theta)))
    row = weights @ full_pdf_harmonics(rho, xs).reshape(-1, xs.size)
    return np.clip(row, 0.0, None)


@pytest.mark.parametrize("name, kept", [
    ("thermal", [0]), ("vacuum", [0]), ("fock", [0]), ("coherent", list(range(21))),
])
def test_skipping_zero_harmonics_keeps_rows_and_records_bit_for_bit(name, kept):
    # the kept harmonics are the full set's bit for bit and the skipped ones
    # exactly zero; the sampler's CDF rows are within rounding of the
    # trapezoid CDFs of the one-phase full rows (a block product of integrated
    # harmonics sums in its own order), and a phase-invariant state's CDF rows
    # and records are the full rows' bit for bit
    rho = {"thermal": thermal(1.35, 30), "vacuum": thermal(0.0, 10),
           "fock": fock_projector(3, 12), "coherent": coherent_state(1.1, 0.8, cutoff=20)}[name]
    assert homodyne._harmonic_orders(rho).tolist() == kept
    grid = _sampling_grid(rho)
    orders, harmonics = homodyne._pdf_harmonics(rho, grid)
    full_harmonics = full_pdf_harmonics(rho, grid)
    assert np.array_equal(harmonics, full_harmonics[:, orders])
    assert not np.delete(full_harmonics, orders, axis=1).any()
    phases = [0.0, 0.4, 2.5, 5.9]
    full = [full_pdf_row(rho, theta, grid) for theta in phases]
    cdfs = list(homodyne._cdf_rows(rho, np.array(phases), grid))
    for cdf, expected in zip(cdfs, full, strict=True):
        assert np.max(np.abs(cdf - trapezoid_cdf(expected, grid))) <= ROW_ROUNDING
        if kept == [0]:
            assert np.array_equal(cdf, trapezoid_cdf(expected, grid))
    records = sample(rho, phases, 30, [19])[0].x.reshape(len(phases), 30)
    uniforms = np.random.default_rng(19).random((len(phases), 30))
    for block, cdf, expected, u in zip(records, cdfs, full, uniforms, strict=True):
        assert np.array_equal(block, np.interp(u, cdf, grid))
        if kept == [0]:
            assert np.array_equal(block, reference_draw(rho, None, u, expected))


@pytest.mark.parametrize("amplitudes, phases, cutoff", [
    (4, 4, 12), (8, 8, 20), (8, 8, 30), (16, 16, 30), (20, 20, 30), (8, 3, 20),
])
def test_stratified_codebooks_keep_exactly_the_orders_that_are_multiples_of_q(
    amplitudes, phases, cutoff
):
    # a codebook on a uniform grid of Q phases has rho_mn = 0 unless Q divides
    # n - m, but for rounding; measured over these shapes, the entries of the
    # other orders lie at or below 0.79 eps max|rho| and each multiple of Q
    # holds one at or above 3e8 eps max|rho|, far from the floor dim eps
    # max|rho| on both sides
    codebook = mimic.build_codebook(mimic.CodebookSpec(1.35, amplitudes, phases))
    rho = mimic.assemble(codebook, cutoff)
    assert homodyne._harmonic_orders(rho).tolist() == list(range(0, cutoff + 1, phases))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dropping_orders_below_the_floor_moves_rows_within_the_floors_bound(data):
    # a random state with rho_mn zeroed unless Q divides n - m (its average
    # over the Q rotations diag(e^{2 pi i j n / Q}), so still a state), plus
    # Hermitian noise below the floor dim eps max|rho| at every other order:
    # the pdf keeps exactly the multiples of Q, and its rows stay within
    # 2 floor sum_{m<n} |f_m f_n| <= floor (sum_m |f_m|)^2 of the rows built
    # from every order, pointwise, and its CDF rows within twice that bound's
    # integral over the pdf's, beside the rows' own rounding
    cutoff = data.draw(st.integers(1, 12), label="cutoff")
    q = data.draw(st.integers(2, cutoff + 1), label="Q")
    rho = data.draw(states(cutoff), label="rho")
    thetas = np.array(data.draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                                         min_size=1, max_size=20), label="thetas"))
    n = np.arange(cutoff + 1)
    multiple = np.subtract.outer(n, n) % q == 0
    symmetric = np.where(multiple, rho.entries, 0.0)
    floor = (cutoff + 1) * np.finfo(float).eps * np.abs(symmetric).max()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="noise seed"))
    real, imag = rng.uniform(-1.0, 1.0, (2, cutoff + 1, cutoff + 1))
    noise = 0.5 * (real + real.T) + 0.5j * (imag - imag.T)  # Hermitian, |entry| < sqrt(2)
    noise = np.where(multiple, 0.0, 0.99 * floor / math.sqrt(2.0) * noise)
    assert 0.0 < np.abs(noise).max() <= floor
    noisy = FockDensityMatrix(cutoff, symmetric + noise, trace_tol=1e-9)
    assert homodyne._harmonic_orders(noisy).tolist() == n[::q].tolist()
    xs = np.linspace(-7.0, 7.0, 141)
    bound = floor * np.abs(fock_wavefunctions(xs, cutoff)).sum(axis=0) ** 2
    integral = np.sum(0.5 * (bound[1:] + bound[:-1]) * np.diff(xs))
    cdfs = homodyne._cdf_rows(noisy, thetas, xs)
    for theta, cdf in zip(thetas, cdfs, strict=True):
        every = full_pdf_row(noisy, theta, xs)
        assert np.all(np.abs(quadrature_pdf(noisy, theta, xs) - every)
                      <= bound + ROW_ROUNDING * every.max())
        mass = np.sum(0.5 * (every[1:] + every[:-1]) * np.diff(xs))
        assert np.max(np.abs(cdf - trapezoid_cdf(every, xs))) <= 2.0 * integral / mass + ROW_ROUNDING


@pytest.mark.parametrize("n_phases", [1, 2, 7])
def test_a_pass_builds_one_pdf_row_per_phase_unless_the_state_is_phase_invariant(
    monkeypatch, n_phases
):
    # the rows a pass builds are the CDF rows it draws through
    built = []
    cdf_rows = homodyne._cdf_rows

    def counted_rows(rho, thetas, grid):
        for row in cdf_rows(rho, thetas, grid):
            built.append(row.size)
            yield row

    monkeypatch.setattr(homodyne, "_cdf_rows", counted_rows)
    phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
    for name, rho in sampling_states().items():
        built.clear()
        sample(rho, phases, 5, [3, 4, 5])
        rows = 1 if name in PHASE_INVARIANT else n_phases
        assert built == [homodyne.SAMPLER_GRID_POINTS] * rows, name
    built.clear()
    simulate_raw(coherent_state(1.1, 0.8, cutoff=20), phases, 5, 2.5, 0.3, [3, 4])
    assert len(built) == n_phases + 1  # the signal's rows and the vacuum's one row


@pytest.mark.parametrize("n_per_phase", [1, 6])
@pytest.mark.parametrize(
    "phases", [[2.2], [-0.4, 3.0, 2.0 * math.pi, 9.5, -1e-20]], ids=["one-phase", "wrapped"]
)
def test_multi_seed_draw_is_a_set_of_one_seed_draws(phases, n_per_phase):
    # the runs share each phase's pdf row and CDF (a diagonal state's one row
    # and CDF), never a generator: run r of a pass is bit for bit the pass of
    # its seed alone
    seeds = [5, np.random.SeedSequence(5, spawn_key=(3,)), 6, np.random.SeedSequence(77), 5]
    int_seeds = [3, 11, 4]
    for rho in (random_density(np.random.default_rng(8), cutoff=6), thermal(1.35, 30)):
        runs = sample(rho, phases, n_per_phase, seeds)
        assert len(runs) == len(seeds)
        for run, seed in zip(runs, seeds):
            alone = sample(rho, phases, n_per_phase, [seed])[0]
            assert np.array_equal(run.x, alone.x)
            assert np.array_equal(run.theta, alone.theta)
        assert not np.array_equal(runs[0].x, runs[2].x)
        raws = simulate_raw(rho, phases, n_per_phase, 2.5, 0.3, int_seeds)
        assert len(raws) == len(int_seeds)
        for raw, seed in zip(raws, int_seeds):
            alone = simulate_raw(rho, phases, n_per_phase, 2.5, 0.3, [seed])[0]
            for key in ("voltages", "theta", "vacuum"):
                assert np.array_equal(getattr(raw, key), getattr(alone, key)), key


def test_sampling_rejects_an_empty_seed_list():
    with pytest.raises(ValueError, match="at least one seed"):
        sample(thermal(0.0, 5), [0.0], 3, [])
    with pytest.raises(ValueError, match="at least one seed"):
        simulate_raw(thermal(0.0, 5), [0.0], 3, 2.5, 0.3, [])


def test_phase_symmetric_states_have_zero_pooled_mean():
    artificial = mimic.assemble(mimic.build_codebook(mimic.CodebookSpec(1.0, 4, 4)), 30)
    for rho in (thermal(1.0, 30), artificial):
        ds = sample(rho, PHASES_50, 40, [11])[0]
        sigma_mc = math.sqrt(ds.x.var() / ds.count)
        assert abs(ds.x.mean()) <= 3.0 * sigma_mc


@pytest.mark.parametrize(
    "rho,theta",
    [
        (thermal(1.0, 30), 0.0),
        (coherent_state(1.2, 0.9), 0.9),
        (mimic.assemble(mimic.build_codebook(mimic.CodebookSpec(1.0, 4, 4)), 30), 1.3),
    ],
    ids=["thermal", "coherent", "artificial"],
)
def test_sample_variance_matches_pdf_moments(rho, theta):
    n = 4000
    ds = sample(rho, [theta], n, [3])[0]
    mean = pdf_moment(rho, theta, 1)
    var = pdf_moment(rho, theta, 2) - mean**2
    fourth_central, _ = quad(
        lambda x: (x - mean) ** 4 * quadrature_pdf(rho, theta, x), -14, 14, limit=300
    )
    sigma_of_var = math.sqrt((fourth_central - var**2) / n)
    assert abs(ds.x.var() - var) <= 3.0 * sigma_of_var


def test_sample_rejects_empty_request():
    with pytest.raises(ValueError):
        sample(thermal(0.0, 5), [0.0], 0, [1])


def test_sample_checks_its_arguments_before_any_seeding(monkeypatch):
    def seeded(*args, **kwargs):
        raise AssertionError("a generator was seeded before the arguments were checked")

    rho, seed = coherent_state(1.1, 0.8, cutoff=20), np.random.SeedSequence(1)
    for name in ("SeedSequence", "default_rng", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, seeded)
    for phases, n_per_phase, seeds, match in [
        ([[0.1, 0.2]], 3, [seed], r"phases must be a non-empty 1-D sequence, got shape \(1, 2\)"),
        ([], 3, [seed], r"phases must be a non-empty 1-D sequence, got shape \(0,\)"),
        ([0.1], 2.5, [seed], "n_per_phase must be an integer, got 2.5"),
        ([0.1], True, [seed], "n_per_phase must be an integer, got True"),
        ([0.1], np.float64(3.0), [seed], r"n_per_phase must be an integer, got np\.float64\(3\.0\)"),
        ([0.1], 0, [seed], "n_per_phase must be >= 1, got 0"),
        ([0.1], 3, [], "seeds must hold at least one seed"),
        ([0.1], 3, [None], "a seed must be an integer or a SeedSequence, got None"),
        ([0.1], 3, [seed, True], "a seed must be an integer or a SeedSequence, got True"),
        ([0.1], 3, [2.5], "a seed must be an integer or a SeedSequence, got 2.5"),
    ]:
        with pytest.raises(ValueError, match=match):
            sample(rho, phases, n_per_phase, seeds)
        with pytest.raises(ValueError, match=match):
            simulate_raw(rho, phases, n_per_phase, 2.5, 0.3, seeds)
    monkeypatch.undo()
    # a numpy integer is an integer, and a scalar phase is one phase
    assert np.array_equal(sample(rho, 0.7, np.int64(4), [5])[0].x, sample(rho, [0.7], 4, [5])[0].x)


@pytest.mark.parametrize("root", [
    np.random.SeedSequence(19, pool_size=8),
    np.random.SeedSequence([1, 2**40], spawn_key=(2**33,)),
], ids=["pool-size-8", "sequence-entropy"])
def test_sample_draws_a_seed_sequence_run_from_one_generator(root):
    # the run's records are default_rng(root).random((phases, n)) through the
    # pass's CDF rows, row i at phase i, and the root is not spawned
    phases, n = [0.4, 2.5, 5.9, *np.linspace(0.1, 6.2, 15)], 30
    rho = coherent_state(1.1, 0.8, cutoff=20)
    records = sample(rho, phases, n, [root])[0].x.reshape(len(phases), n)
    assert root.n_children_spawned == 0
    uniforms = np.random.default_rng(root).random((len(phases), n))
    grid = _sampling_grid(rho)
    cdfs = homodyne._cdf_rows(rho, np.mod(phases, 2.0 * math.pi), grid)
    for block, cdf, u in zip(records, cdfs, uniforms, strict=True):
        assert np.array_equal(block, np.interp(u, cdf, grid))


def test_appending_phases_keeps_the_earlier_phases_records():
    # a row-major draw is prefix-stable: the blocks of the first phases are
    # the same up to the rounding of their pdf rows' block product, and bit
    # for bit for a phase-invariant state; a new n_per_phase shifts the
    # draws of every phase after the first
    phases, n = np.linspace(0.1, 6.2, 21), 25
    for rho in (coherent_state(1.1, 0.8, cutoff=20), thermal(1.35, 30)):
        full = sample(rho, phases, n, [4])[0].x
        for k in (1, 5, 16, 20):
            prefix = sample(rho, phases[:k], n, [4])[0].x
            assert np.allclose(prefix, full[:k * n], rtol=0, atol=1e-12), k
            if rho.cutoff == 30:
                assert np.array_equal(prefix, full[:k * n]), k
        wider = sample(rho, phases, n + 1, [4])[0].x.reshape(len(phases), n + 1)
        assert np.array_equal(wider[0, :n], full[:n])
        assert not np.array_equal(wider[1, :n], full[n:2 * n])


def test_pdf_rows_clip_a_rounding_negative_value_to_zero():
    # (|0> - |2>)/sqrt(2) has a double zero of its theta = 0 pdf where f_0 = f_2,
    # at x^2 = (1 + sqrt(2))/2; beside it the harmonic sum rounds below zero
    psi = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    rho = FockDensityMatrix(2, np.outer(psi, psi).astype(complex))
    node = math.sqrt((1.0 + math.sqrt(2.0)) / 2.0)
    xs = np.linspace(node - 1e-9, node + 1e-9, 101)
    orders, harmonics = homodyne._pdf_harmonics(rho, xs)
    assert orders.tolist() == [0, 2]
    unclipped = np.concatenate((np.ones(2), np.zeros(2)))[None, :] @ harmonics.reshape(-1, xs.size)
    assert (unclipped < 0.0).any()
    row = quadrature_pdf(rho, 0.0, xs)
    assert row.min() >= 0.0
    assert np.array_equal(row, np.maximum(unclipped[0], 0.0))


def test_sample_wraps_phases_into_the_period_and_rejects_non_finite_ones():
    ds = sample(thermal(0.0, 5), [-1e-20, -3.0, 100.0, 2.0 * math.pi], 3, [1])[0]
    wrapped = [0.0, 2.0 * math.pi - 3.0, math.fmod(100.0, 2.0 * math.pi), 0.0]
    assert np.array_equal(ds.theta, np.repeat(wrapped, 3))
    for bad in (np.inf, -np.inf, np.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phases must be finite"):
                sample(thermal(0.0, 5), [0.0, bad], 3, [1])


# ---------------------------------------------------------------------------
# simulate_raw / calibrate
# ---------------------------------------------------------------------------


def test_simulate_raw_identity_gain_reproduces_samples():
    rho = thermal(1.0, 30)
    raw = simulate_raw(rho, PHASES_50, 40, gain=1.0, offset=0.0, seeds=[5])[0]
    direct = sample(rho, PHASES_50, 40, [5])[0]
    assert np.array_equal(raw.voltages, direct.x)
    assert np.array_equal(raw.theta, direct.theta)


def test_simulate_raw_vacuum_draws_no_integer_seeded_sample_stream():
    # gain 1 and offset 0 make the vacuum trace the raw vacuum draws, so a
    # reused stream shows as an equal trace
    vacuum = thermal(0.0, 10)
    for seed in (5, 6, 40):
        raw = simulate_raw(vacuum, PHASES_50, 40, gain=1.0, offset=0.0, seeds=[seed])[0]
        for t in range(seed - 2, seed + 3):
            assert not np.array_equal(raw.vacuum, sample(vacuum, PHASES_50, 40, [t])[0].x), t


def test_simulate_raw_vacuum_reference_is_the_one_level_vacuum_stream():
    phases, n, gain, offset, seed = PHASES_50[:10], 20, 2.5, 0.3, 7
    raw = simulate_raw(thermal(1.0, 30), phases, n, gain, offset, [seed])[0]
    vacuum = sample(thermal(0.0, 0), phases, n, [np.random.SeedSequence(seed, spawn_key=(0,))])[0]
    assert np.array_equal(raw.vacuum, offset + gain * vacuum.x)
    assert np.array_equal(raw.theta, vacuum.theta)


def test_simulate_raw_takes_seed_sequences_and_seeds_the_vacuum_from_their_zero_child():
    rho, phases, n = coherent_state(1.1, 0.8, cutoff=20), PHASES_50[:8], 10
    by_int = simulate_raw(rho, phases, n, 2.5, 0.3, [3])[0]
    by_sequence = simulate_raw(rho, phases, n, 2.5, 0.3, [np.random.SeedSequence(3)])[0]
    for key in ("voltages", "theta", "vacuum"):
        assert np.array_equal(getattr(by_sequence, key), getattr(by_int, key)), key
    # gain 1 and offset 0: the vacuum trace is the vacuum's draws, from one
    # generator seeded by the child (*spawn_key, 0) of the root
    root = np.random.SeedSequence([1, 2**40], spawn_key=(2**33, 5), pool_size=8)
    raw = simulate_raw(rho, phases, n, 1.0, 0.0, [root])[0]
    assert root.n_children_spawned == 0
    assert np.array_equal(raw.voltages, sample(rho, phases, n, [root])[0].x)
    vacuum = thermal(0.0, 0)
    zero_child = np.random.SeedSequence(root.entropy, spawn_key=(2**33, 5, 0), pool_size=8)
    blocks = raw.vacuum.reshape(len(phases), n)
    uniforms = np.random.default_rng(zero_child).random((len(phases), n))
    for block, u in zip(blocks, uniforms, strict=True):
        assert np.array_equal(block, reference_draw(vacuum, 0.0, u))


def test_sample_takes_a_seed_sequence_and_leaves_it_unspawned():
    rho = thermal(1.0, 20)
    by_int = sample(rho, PHASES_50, 10, [3])[0].x
    by_sequence = sample(rho, PHASES_50, 10, [np.random.SeedSequence(3)])[0].x
    assert np.array_equal(by_sequence, by_int)
    child = np.random.SeedSequence(3, spawn_key=(0,))
    first = sample(rho, PHASES_50, 10, [child])[0].x
    assert np.array_equal(sample(rho, PHASES_50, 10, [child])[0].x, first)
    assert child.n_children_spawned == 0
    assert not np.array_equal(first, by_int)


def test_simulate_raw_vacuum_statistics_follow_gain_and_offset():
    raw = simulate_raw(thermal(0.0, 10), PHASES_50, 40, gain=2.5, offset=0.3, seeds=[9])[0]
    vacuum = raw.vacuum
    sigma = 2.5 * math.sqrt(0.5)
    assert vacuum.mean() == pytest.approx(0.3, abs=3.0 * sigma / math.sqrt(2000))
    assert vacuum.std(ddof=1) == pytest.approx(sigma, abs=3.0 * sigma / math.sqrt(2 * 2000))
    for gain in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"gain must be finite and > 0, got {gain}"):
            simulate_raw(thermal(0.0, 10), PHASES_50, 40, gain=gain, offset=0.3, seeds=[9])
    for offset in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"offset must be finite, got {offset}"):
            simulate_raw(thermal(0.0, 10), PHASES_50, 40, gain=2.5, offset=offset, seeds=[9])


def test_calibrate_rejects_an_unknown_convention_naming_both():
    raw = RawDataset(np.array([1.75, 3.0]), np.array([0.0, 1.0]), np.array([1.5, 2.0]))
    with pytest.raises(ValueError, match=re.escape(
            "convention must be half or quarter, got 'eighth'")):
        calibrate(raw, "eighth")


def test_calibrate_centers_the_vacuum_mean():
    # the trace's mean is exactly 1.75, the first record's value
    raw = RawDataset(np.array([1.75, 3.0]), np.array([0.0, 1.0]), np.array([1.5, 2.0]))
    assert calibrate(raw, "half").x[0] == 0.0
    assert calibrate(raw, "quarter").x[0] == 0.0


@pytest.mark.parametrize(
    "convention,target", [("quarter", 0.25), ("half", 0.5)]
)
def test_calibrated_vacuum_variance_matches_convention(convention, target):
    raw = simulate_raw(thermal(0.0, 10), PHASES_50, 40, gain=3.0, offset=-0.7, seeds=[21])[0]
    ds = calibrate(raw, convention)
    assert ds.convention == convention
    assert ds.x.var() == pytest.approx(target, abs=0.1 * target)


def test_calibration_round_trip_recovers_thermal_variance():
    raw = simulate_raw(thermal(1.0, 30), PHASES_50, 40, gain=2.5, offset=0.3, seeds=[13])[0]
    ds = calibrate(raw, "half")
    assert ds.x.var() == pytest.approx(1.5, abs=0.15)


def test_calibration_is_gain_and_offset_invariant():
    rho = thermal(1.0, 30)
    raw_a = simulate_raw(rho, PHASES_50, 40, gain=1.0, offset=0.0, seeds=[17])[0]
    raw_b = simulate_raw(rho, PHASES_50, 40, gain=2.5, offset=0.3, seeds=[17])[0]
    a = calibrate(raw_a, "half")
    b = calibrate(raw_b, "half")
    # With a shared seed the calibration cancels gain and offset exactly.
    assert np.array_equal(a.theta, b.theta)
    assert np.allclose(a.x, b.x, rtol=0, atol=1e-9)


def test_calibrate_requires_a_vacuum_trace_with_finite_positive_spread():
    for vacuum, match in [
        ([0.3, 0.3, 0.3], "sigma_vac must be finite and > 0, got 0.0"),
        ([1e308, -1e308, 1e308], "sigma_vac must be finite and > 0, got inf"),
        ([1e308, 1e308], "v_vac must be finite, got inf"),
        ([0.3], "at least two values"),
    ]:
        raw = RawDataset(np.zeros(len(vacuum)), np.zeros(len(vacuum)), np.array(vacuum))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(match)):
                calibrate(raw, "quarter")


def test_raw_dataset_requires_finite_voltages_and_phases_in_range():
    for voltages, theta, match in [
        ([np.inf, 1.0], [0.0, 1.0], "voltages must be finite"),
        ([np.nan], [0.5], "voltages must be finite"),
        ([0.0, 1.0], [0.0, 9.0], r"phases must lie in \[0, 2\*pi\)"),
        ([0.0], [np.nan], r"phases must lie in \[0, 2\*pi\)"),
        ([], [], "voltages and theta must be matching non-empty 1-D arrays"),
        ([[0.0, 1.0]], [[0.0, 1.0]], "voltages and theta must be matching"),
        ([0.0, 1.0], [0.5], "voltages and theta must be matching"),
    ]:
        with pytest.raises(ValueError, match=match):
            RawDataset(np.array(voltages), np.array(theta), np.zeros(np.shape(theta)))
    # the vacuum trace is checked as the voltages are, against the same phases
    for vacuum, match in [
        ([0.0, np.nan], "vacuum must be finite"),
        ([0.0], "vacuum and theta must be matching non-empty 1-D arrays"),
        ([[0.0, 1.0]], "vacuum and theta must be matching"),
    ]:
        with pytest.raises(ValueError, match=match):
            RawDataset(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array(vacuum))


def test_value_types_freeze_copies_of_the_callers_arrays():
    entries = np.diag([0.75, 0.25]).astype(np.complex128)
    amps, phases, weights = np.array([1.0]), np.array([0.0, 1.0]), np.array([[0.5, 0.5]])
    x, theta, vacuum = np.array([0.1, -0.2]), np.array([0.0, 1.0]), np.array([0.3, 0.4])
    rho = FockDensityMatrix(1, entries)
    codebook = mimic.Codebook(amps, phases, weights)
    dataset = QuadratureDataset(x, theta, "half")
    raw = RawDataset(x, theta, vacuum)
    for given in (entries, amps, phases, weights, x, theta, vacuum):
        assert given.flags.writeable
    for held, given in [
        (rho.entries, entries), (codebook.amplitudes, amps), (codebook.phases, phases),
        (codebook.weights, weights), (dataset.x, x), (dataset.theta, theta),
        (raw.voltages, x), (raw.theta, theta), (raw.vacuum, vacuum),
    ]:
        assert not held.flags.writeable
        assert np.array_equal(held, given)


def test_dataset_requires_phases_in_range():
    with pytest.raises(ValueError):
        QuadratureDataset(np.array([0.0]), np.array([7.0]), "half")
    for theta, x, match in [
        (np.nan, 0.1, r"phases must lie in \[0, 2\*pi\)"),
        (0.5, np.nan, "quadratures must be finite"),
        (0.5, np.inf, "quadratures must be finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            QuadratureDataset(np.array([x]), np.array([theta]), "half")
    for x, theta in [([], []), ([[0.1, 0.2]], [[0.5, 0.5]]), ([0.1, 0.2], [0.5])]:
        with pytest.raises(ValueError, match="quadratures and theta must be matching non-empty"):
            QuadratureDataset(np.array(x), np.array(theta), "half")
    # no dataset exists without a Convention tag, and the error names every one
    for tag in (None, "eighth", "HALF"):
        with pytest.raises(ValueError, match=re.escape(
                f"convention must be half or quarter, got {tag!r}")):
            QuadratureDataset(np.array([0.1]), np.array([0.5]), tag)


def test_dataset_takes_a_convention_name_and_reads_it_on_the_half_axis():
    # the names are the Literal's and the table holds exactly them; a quarter
    # record is read on the half axis as x sqrt(2), bit for bit
    assert get_args(Convention) == ("half", "quarter")
    assert homodyne.VACUUM_VARIANCE.keys() == {"half", "quarter"}
    x, theta = np.array([0.3, -1.7, 2.25, 0.0]), np.array([0.0, 1.0, 2.0, 6.0])
    for tag, factor in (("half", 1.0), ("quarter", math.sqrt(2.0))):
        dataset = QuadratureDataset(x, theta, tag)
        assert dataset.convention == tag
        assert np.array_equal(dataset.half_x, x * factor)
