import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from thermalmimic import mimic, tomo
from thermalmimic.fock import ComplexAmplitude, FockDensityMatrix, coherent_pure, mix, thermal
from thermalmimic.homodyne import (
    CalibrationStats,
    Convention,
    ConventionError,
    QuadratureDataset,
    RawDataset,
    _inverse_cdf_draw,
    _sampling_grid,
    calibrate,
    convert,
    dataset_from_csv,
    dataset_sidecar,
    dataset_to_csv,
    fock_wavefunctions,
    quadrature_pdf,
    sample,
    simulate_raw,
)

PHASES_50 = 2.0 * math.pi * np.arange(50) / 50


def coherent_state(mag, phase=0.0, cutoff=30):
    return mix([1.0], [coherent_pure(ComplexAmplitude(mag, phase), cutoff).coefficients])


def random_density(rng, cutoff=9):
    raw = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    rho = raw @ raw.conj().T
    rho /= rho.trace().real
    return FockDensityMatrix(cutoff, 0.5 * (rho + rho.conj().T), trace_tol=1e-9)


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
            records = QuadratureDataset(xs, np.full(xs.size, theta), Convention.HALF)
            expected = complex_record_kernel(rho, xs, records.theta)
            record_map = tomo.measurement_matrix(records, rho.cutoff)
            kernel = tomo._record_probabilities(rho.entries, record_map)
            assert np.allclose(quadrature_pdf(rho, theta, xs), expected, rtol=0, atol=1e-12)
            assert np.allclose(kernel, expected, rtol=0, atol=1e-12)


def test_fock_wavefunctions_are_orthonormal():
    xs = np.linspace(-15, 15, 20001)
    f = fock_wavefunctions(xs, 12)
    gram = f @ f.T * (xs[1] - xs[0])
    assert np.allclose(gram, np.eye(13), atol=1e-6)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_vacuum_samples_have_half_variance():
    ds = sample(thermal(0.0, 10), PHASES_50, 40, seed=42)
    assert ds.count == 2000
    assert ds.convention == Convention.HALF
    assert ds.x.var() == pytest.approx(0.5, abs=0.05)


def test_thermal_samples_have_scaled_variance():
    ds = sample(thermal(1.0, 30), PHASES_50, 40, seed=43)
    assert ds.x.var() == pytest.approx(1.5, abs=0.15)


def test_sampling_is_deterministic_per_seed():
    a = sample(thermal(1.0, 30), PHASES_50, 40, seed=7)
    b = sample(thermal(1.0, 30), PHASES_50, 40, seed=7)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.theta, b.theta)
    c = sample(thermal(1.0, 30), PHASES_50, 40, seed=8)
    assert not np.array_equal(a.x, c.x)


def test_sample_blocks_follow_phase_order_and_spawned_generators():
    rho = coherent_state(1.1, 0.8, cutoff=20)
    phases = 2.0 * math.pi * np.arange(7) / 7
    n = 30
    ds = sample(rho, phases, n, seed=19)
    grid = _sampling_grid(rho)
    children = np.random.SeedSequence(19).spawn(phases.size)
    for j, (theta, child) in enumerate(zip(phases, children)):
        u = np.random.default_rng(child).random(n)
        expected = _inverse_cdf_draw(grid, quadrature_pdf(rho, theta, grid), u)
        block = slice(j * n, (j + 1) * n)
        assert np.all(ds.theta[block] == theta)
        assert np.allclose(ds.x[block], expected, rtol=0, atol=1e-12)


def test_phase_symmetric_states_have_zero_pooled_mean():
    for rho in (thermal(1.0, 30), mimic.assemble(mimic.build_codebook(1.0, 4, 4), 30)):
        ds = sample(rho, PHASES_50, 40, seed=11)
        sigma_mc = math.sqrt(ds.x.var() / ds.count)
        assert abs(ds.x.mean()) <= 3.0 * sigma_mc


@pytest.mark.parametrize(
    "rho,theta",
    [
        (thermal(1.0, 30), 0.0),
        (coherent_state(1.2, 0.9), 0.9),
        (mimic.assemble(mimic.build_codebook(1.0, 4, 4), 30), 1.3),
    ],
    ids=["thermal", "coherent", "artificial"],
)
def test_sample_variance_matches_pdf_moments(rho, theta):
    n = 4000
    ds = sample(rho, [theta], n, seed=3)
    mean = pdf_moment(rho, theta, 1)
    var = pdf_moment(rho, theta, 2) - mean**2
    fourth_central, _ = quad(
        lambda x: (x - mean) ** 4 * quadrature_pdf(rho, theta, x), -14, 14, limit=300
    )
    sigma_of_var = math.sqrt((fourth_central - var**2) / n)
    assert abs(ds.x.var() - var) <= 3.0 * sigma_of_var


def test_sample_rejects_empty_request():
    with pytest.raises(ValueError):
        sample(thermal(0.0, 5), [0.0], 0, seed=1)


# ---------------------------------------------------------------------------
# simulate_raw / calibrate / convert
# ---------------------------------------------------------------------------


def test_simulate_raw_identity_gain_reproduces_samples():
    rho = thermal(1.0, 30)
    raw, _ = simulate_raw(rho, PHASES_50, 40, gain=1.0, offset=0.0, seed=5)
    direct = sample(rho, PHASES_50, 40, seed=5)
    assert np.array_equal(raw.voltages, direct.x)
    assert np.array_equal(raw.theta, direct.theta)


def test_simulate_raw_vacuum_statistics_follow_gain_and_offset():
    _, stats = simulate_raw(thermal(0.0, 10), PHASES_50, 40, gain=2.5, offset=0.3, seed=9)
    sigma = 2.5 * math.sqrt(0.5)
    assert stats.v_vac == pytest.approx(0.3, abs=3.0 * sigma / math.sqrt(2000))
    assert stats.sigma_vac == pytest.approx(sigma, abs=3.0 * sigma / math.sqrt(2 * 2000))


def test_calibrate_centers_the_vacuum_mean():
    stats = CalibrationStats(v_vac=1.7, sigma_vac=0.4)
    raw = RawDataset(np.array([1.7]), np.array([0.0]))
    assert calibrate(raw, stats, Convention.HALF).x[0] == 0.0
    assert calibrate(raw, stats, Convention.QUARTER).x[0] == 0.0


@pytest.mark.parametrize(
    "convention,target", [(Convention.QUARTER, 0.25), (Convention.HALF, 0.5)]
)
def test_calibrated_vacuum_variance_matches_convention(convention, target):
    raw, stats = simulate_raw(thermal(0.0, 10), PHASES_50, 40, gain=3.0, offset=-0.7, seed=21)
    ds = calibrate(raw, stats, convention)
    assert ds.convention == convention
    assert ds.x.var() == pytest.approx(target, abs=0.1 * target)


def test_calibration_round_trip_recovers_thermal_variance():
    raw, stats = simulate_raw(thermal(1.0, 30), PHASES_50, 40, gain=2.5, offset=0.3, seed=13)
    ds = calibrate(raw, stats, Convention.HALF)
    assert ds.x.var() == pytest.approx(1.5, abs=0.15)


def test_calibration_is_gain_and_offset_invariant():
    rho = thermal(1.0, 30)
    raw_a, stats_a = simulate_raw(rho, PHASES_50, 40, gain=1.0, offset=0.0, seed=17)
    raw_b, stats_b = simulate_raw(rho, PHASES_50, 40, gain=2.5, offset=0.3, seed=17)
    a = calibrate(raw_a, stats_a, Convention.HALF)
    b = calibrate(raw_b, stats_b, Convention.HALF)
    # With a shared seed the calibration cancels gain and offset exactly.
    assert np.array_equal(a.theta, b.theta)
    assert np.allclose(a.x, b.x, rtol=0, atol=1e-9)


def test_convert_rescales_between_conventions():
    ds = QuadratureDataset(np.array([1.0, -2.0]), np.array([0.0, 1.0]), Convention.HALF)
    quarter = convert(ds, Convention.QUARTER)
    assert np.allclose(quarter.x, ds.x / math.sqrt(2.0))
    back = convert(quarter, Convention.HALF)
    assert np.allclose(back.x, ds.x)
    assert convert(ds, Convention.HALF) is ds


def test_calibration_stats_require_positive_spread():
    with pytest.raises(ValueError):
        CalibrationStats(v_vac=0.0, sigma_vac=0.0)


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------


def test_dataset_csv_round_trip():
    ds = sample(thermal(1.0, 30), [0.0, 2.0], 10, seed=2)
    sidecar = json.loads(json.dumps(dataset_sidecar(ds, seed=2)))
    back = dataset_from_csv(dataset_to_csv(ds), sidecar)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.theta, ds.theta)
    assert back.convention == ds.convention
    assert sidecar["count"] == ds.count


def test_dataset_reader_rejects_missing_convention():
    ds = sample(thermal(0.0, 5), [0.0], 5, seed=1)
    with pytest.raises(ConventionError):
        dataset_from_csv(dataset_to_csv(ds), {"seed": 1, "count": 5})


def test_dataset_reader_rejects_malformed_text():
    for body in ("", "0.5\n", "0.5,1.0,2.0\n"):
        with pytest.raises(ValueError, match="2 fields"):
            dataset_from_csv("theta,x\n" + body, {"convention": "half"})


def test_dataset_requires_phases_in_range():
    with pytest.raises(ValueError):
        QuadratureDataset(np.array([0.0]), np.array([7.0]), Convention.HALF)
