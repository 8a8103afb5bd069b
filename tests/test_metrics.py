import math

import numpy as np
import pytest

from thermalmimic import fock, metrics, mimic
from thermalmimic.fock import ComplexAmplitude, FockDensityMatrix, coherent_pure, mix, thermal
from thermalmimic.metrics import (
    NotPositiveSemidefiniteError,
    compare,
    fidelity,
    helstrom_error,
    nbar_for_entropy,
    thermal_entropy,
    trace_distance,
    von_neumann_entropy,
)


def fock_projector(n, cutoff):
    entries = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    entries[n, n] = 1.0
    return FockDensityMatrix(cutoff, entries)


def random_density(rng, cutoff=9):
    raw = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    rho = raw @ raw.conj().T
    rho /= rho.trace().real
    return FockDensityMatrix(cutoff, 0.5 * (rho + rho.conj().T), trace_tol=1e-9)


RNG = np.random.default_rng(2024)
RANDOM_PAIRS = [(random_density(RNG), random_density(RNG)) for _ in range(50)]


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_self_fidelity_is_one():
    rho = thermal(1.0, 30)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_vacuum_vs_thermal_is_ground_population():
    # pure |0><0| against rho reduces to <0|rho|0> = 1 / (nbar + 1)
    vac = fock_projector(0, 30)
    assert fidelity(vac, thermal(1.0, 30)) == pytest.approx(0.5, abs=1e-9)


def test_fidelity_of_stratified_mimic_exceeds_target():
    rho_th = thermal(1.0, 30)
    rho_art = mimic.assemble(mimic.build_codebook(1.0, 8, 8), 30)
    assert fidelity(rho_th, rho_art) >= 0.99


def test_fidelity_symmetric_and_bounded_on_random_pairs():
    for a, b in RANDOM_PAIRS:
        f_ab = fidelity(a, b)
        f_ba = fidelity(b, a)
        assert abs(f_ab - f_ba) <= 1e-9
        assert -1e-12 <= f_ab <= 1.0 + 1e-9


def test_fidelity_is_one_only_for_identical_matrices():
    for a, b in RANDOM_PAIRS[:10]:
        assert np.max(np.abs(a.entries - b.entries)) > 1e-7
        assert fidelity(a, b) < 1.0 - 1e-7
    a = RANDOM_PAIRS[0][0]
    bump = np.zeros_like(a.entries)
    bump[0, 0] = 1e-8
    bump[1, 1] = -1e-8  # keep the trace
    near = FockDensityMatrix(a.cutoff, a.entries + bump, trace_tol=1e-6)
    assert np.max(np.abs(a.entries - near.entries)) <= 1e-7
    assert fidelity(a, near) > 1.0 - 1e-6


def test_fidelity_rejects_cutoff_mismatch_and_non_psd():
    with pytest.raises(fock.CutoffMismatchError):
        fidelity(thermal(1.0, 30), thermal(1.0, 20, tail_tol=1e-5))
    bad = FockDensityMatrix.__new__(FockDensityMatrix)
    object.__setattr__(bad, "cutoff", 1)
    object.__setattr__(bad, "entries", np.diag([1.2, -0.2]).astype(complex))
    object.__setattr__(bad, "trace_tol", 1e-6)
    with pytest.raises(NotPositiveSemidefiniteError):
        fidelity(bad, thermal(0.0, 1))


# ---------------------------------------------------------------------------
# trace distance / Helstrom
# ---------------------------------------------------------------------------


def test_trace_distance_extremes():
    rho = thermal(1.0, 30)
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(fock_projector(0, 5), fock_projector(1, 5)) == pytest.approx(1.0)


def test_helstrom_extremes():
    rho = thermal(1.0, 30)
    assert helstrom_error(rho, rho) == pytest.approx(0.5)
    assert helstrom_error(fock_projector(0, 5), fock_projector(1, 5)) == pytest.approx(0.0, abs=1e-12)


def test_helstrom_thermal_vs_laser_near_point_14():
    rho_th = thermal(1.0, 30)
    laser = mix([1.0], [coherent_pure(ComplexAmplitude(1.0), 30).coefficients])
    p_err = helstrom_error(rho_th, laser)
    assert p_err == pytest.approx(0.14, abs=0.02)
    assert 0.5 - trace_distance(rho_th, laser) / 2.0 == pytest.approx(p_err, abs=1e-12)


def test_helstrom_definition_identity():
    for a, b in RANDOM_PAIRS[:20]:
        assert helstrom_error(a, b) + 0.5 * trace_distance(a, b) == pytest.approx(0.5, abs=1e-12)


def test_fuchs_van_de_graaff_sandwich():
    for a, b in RANDOM_PAIRS:
        f = fidelity(a, b)
        t = trace_distance(a, b)
        assert 1.0 - math.sqrt(f) <= t + 1e-8
        assert t <= math.sqrt(max(1.0 - f, 0.0)) + 1e-8


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_of_pure_coherent_state_is_zero():
    rho = mix([1.0], [coherent_pure(ComplexAmplitude(1.2, 0.4), 30).coefficients])
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


def test_entropy_of_unit_thermal_is_two_bits():
    assert von_neumann_entropy(thermal(1.0, 40)) == pytest.approx(2.0, abs=1e-6)
    assert thermal_entropy(1.0) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("nbar", [0.25, 0.5, 1.0, 1.35, 2.0])
def test_entropy_matches_closed_form(nbar):
    got = von_neumann_entropy(thermal(nbar, 40))
    # the truncated tail carries a small, analytically forced entropy deficit
    n = np.arange(41, 400)
    p_tail = np.exp(n * np.log(nbar) - (n + 1) * np.log(nbar + 1.0))
    p_tail = p_tail[p_tail > 0.0]
    tail_entropy = float(-np.sum(p_tail * np.log2(p_tail)))
    assert got == pytest.approx(thermal_entropy(nbar), abs=1e-6 + tail_entropy)
    # and the eigenvalue path agrees exactly with the direct pmf summation
    p_kept = nbar ** np.arange(41) * np.exp(-np.arange(1, 42) * np.log(nbar + 1.0))
    assert got == pytest.approx(float(-np.sum(p_kept * np.log2(p_kept))), abs=1e-12)


def test_nbar_for_entropy_inverts_closed_form():
    nbar = nbar_for_entropy(2.31)
    assert nbar == pytest.approx(1.35, abs=0.005)
    assert thermal_entropy(nbar) == pytest.approx(2.31, abs=1e-12)
    assert nbar_for_entropy(0.0) == 0.0


@pytest.mark.parametrize("nbar,n_amp,n_ph", [(0.5, 4, 4), (1.0, 8, 8), (1.5, 8, 4), (2.0, 16, 8)])
def test_thermal_state_maximizes_entropy_at_fixed_mean(nbar, n_amp, n_ph):
    rho_art = mimic.assemble(mimic.build_codebook(nbar, n_amp, n_ph), 30)
    ceiling = thermal_entropy(fock.mean_photon(rho_art))
    assert von_neumann_entropy(rho_art) <= ceiling + 1e-9


def test_compare_report_fields():
    a = thermal(1.0, 30)
    b = mix([1.0], [coherent_pure(ComplexAmplitude(1.0), 30).coefficients])
    report = compare(a, b)
    assert set(report) == {
        "fidelity",
        "trace_distance",
        "helstrom_error",
        "entropy_a",
        "entropy_b",
        "mean_photon_a",
        "mean_photon_b",
    }
    assert report["entropy_b"] == pytest.approx(0.0, abs=1e-9)
    assert report["mean_photon_a"] == pytest.approx(1.0, abs=1e-6)
