import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import poisson

from thermalmimic import fock
from thermalmimic.mimic import Scheme, build_codebook
from thermalmimic.fock import (
    ComplexAmplitude,
    CutoffMismatchError,
    FockDensityMatrix,
    TruncationError,
    coherent_pure,
    coherent_states,
    mean_photon,
    mix,
    normalize,
    purity,
    thermal,
)


def coherent(mag, phase=0.0, cutoff=30):
    return coherent_pure(ComplexAmplitude(mag, phase), cutoff)


# ---------------------------------------------------------------------------
# coherent_pure
# ---------------------------------------------------------------------------


def test_coherent_vacuum_is_ground_state():
    psi = coherent(0.0, 0.0, cutoff=10)
    expected = np.zeros(11)
    expected[0] = 1.0
    assert np.array_equal(psi.coefficients, expected)


def test_coherent_ground_coefficient_matches_direct_formula():
    psi = coherent(1.0, 0.0, cutoff=30)
    assert psi.coefficients[0].real == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert psi.coefficients[0].imag == 0.0


def test_coherent_norm_captures_poisson_mass():
    # |alpha|^2 = 1.5: the Poisson tail above n=30 is far below 1e-9.
    psi = coherent(math.sqrt(1.5), math.pi / 3, cutoff=30)
    assert psi.norm_sq >= 1.0 - 1e-9
    assert poisson.sf(30, 1.5) < 1e-9  # independent tail oracle


def test_coherent_coefficients_match_poisson_pmf():
    psi = coherent(math.sqrt(2.0), 0.7, cutoff=40)
    probs = np.abs(psi.coefficients) ** 2
    assert np.allclose(probs, poisson.pmf(np.arange(41), 2.0), atol=1e-14)


def test_coherent_truncation_error_when_tail_too_large():
    with pytest.raises(TruncationError):
        coherent_pure(ComplexAmplitude(3.0), cutoff=5)


# ---------------------------------------------------------------------------
# coherent_states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "magnitudes, phases",
    [
        build_codebook(1.5, 6, 5).points(),
        build_codebook(1.5, 6, 5, Scheme.RANDOM, seed=3).points(),
        ([0.0, 1.2, 0.0], [0.0, 0.4, 2.5]),
    ],
    ids=["stratified", "random", "zero-amplitude"],
)
def test_coherent_states_rows_equal_coherent_pure(magnitudes, phases):
    states = coherent_states(magnitudes, phases, 30)
    assert states.shape == (len(magnitudes), 31)
    for row, mag, phase in zip(states, magnitudes, phases):
        assert np.array_equal(row, coherent_pure(ComplexAmplitude(mag, phase), 30).coefficients)
        if mag == 0.0:
            assert np.array_equal(row, np.eye(31)[0])


def test_coherent_states_truncation_error_names_the_row_over_budget():
    # at cutoff 5 only |alpha|^2 = 9 loses more than the default 1e-5
    with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = 9 "):
        coherent_states([0.1, 3.0, 0.5], [0.0, 1.0, 2.0], cutoff=5)
    assert coherent_states([0.1, 0.5], [0.0, 2.0], cutoff=5).shape == (2, 6)


# ---------------------------------------------------------------------------
# thermal
# ---------------------------------------------------------------------------


def test_thermal_zero_temperature_is_vacuum():
    rho = thermal(0.0, 5)
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho.entries, expected)


def test_thermal_unit_nbar_diagonal_is_powers_of_half():
    rho = thermal(1.0, 30)
    diag = np.diag(rho.entries).real
    assert np.allclose(diag, 0.5 ** (np.arange(31) + 1), atol=1e-15)


def test_thermal_entry_values_and_diagonality():
    rho = thermal(1.5, 30)
    assert rho.entries[0, 0].real == pytest.approx(1 / 2.5, abs=1e-15)
    assert rho.entries[0, 1] == 0.0
    assert np.count_nonzero(rho.entries - np.diag(np.diag(rho.entries))) == 0


def test_thermal_truncation_error_when_cutoff_too_small():
    # tail (2/3)^11 ~ 1.2e-2 blows the default 1e-6 budget
    with pytest.raises(TruncationError):
        thermal(2.0, 10)
    thermal(2.0, 10, tail_tol=0.05)  # explicit budget allows it


@pytest.mark.parametrize("nbar", [0.25, 0.5, 1.0, 2.0, 3.5, 5.0])
def test_thermal_diagonal_decreasing_and_exact(nbar):
    cutoff = 90  # adequate for nbar up to 5 at the default tail budget
    rho = thermal(nbar, cutoff)
    diag = np.diag(rho.entries).real
    assert np.all(np.diff(diag) < 0.0)
    n = np.arange(cutoff + 1)
    assert np.allclose(diag, nbar**n / (nbar + 1.0) ** (n + 1), atol=1e-12)


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------


def test_mix_single_component_is_projector():
    psi = coherent(1.0)
    rho = mix([1.0], [psi.coefficients])
    assert np.allclose(rho.entries, np.outer(psi.coefficients, psi.coefficients.conj()))
    assert purity(rho) >= 1.0 - 2 * fock.DEFAULT_TAIL_TOL


def test_mix_opposite_phases_kills_odd_coherences():
    rho = mix([0.5, 0.5], [coherent(1.0, 0.0).coefficients, coherent(1.0, math.pi).coefficients])
    m, n = np.indices(rho.entries.shape)
    odd = (m - n) % 2 == 1
    assert np.max(np.abs(rho.entries[odd])) < 1e-12


def test_mix_trace_is_weighted_norm_sum():
    rng = np.random.default_rng(4)
    weights = rng.random(5)
    weights /= weights.sum()
    states = [coherent(rng.uniform(0, 1.8), rng.uniform(0, 2 * math.pi)) for _ in range(5)]
    rho = mix(weights, [s.coefficients for s in states])
    expected = sum(w * s.norm_sq for w, s in zip(weights, states))
    assert rho.trace == pytest.approx(expected, abs=1e-9)


def test_mix_rejects_bad_weights_and_cutoffs():
    psi = coherent(1.0)
    with pytest.raises(ValueError, match="sum to 1"):
        mix([0.5, 0.4], [psi.coefficients, psi.coefficients])
    with pytest.raises(ValueError, match=">= 0"):
        mix([1.5, -0.5], [psi.coefficients, psi.coefficients])
    with pytest.raises(CutoffMismatchError):
        mix([0.5, 0.5], [psi.coefficients, coherent(1.0, 0.0, cutoff=20).coefficients])


def test_mix_rejects_rows_above_unit_norm_and_miscounted_weights():
    psi = coherent(1.0).coefficients
    with pytest.raises(ValueError, match="exceeds 1"):
        mix([0.5, 0.5], [psi, 1.01 * psi])
    with pytest.raises(ValueError, match="3 weights for 2 states"):
        mix([0.5, 0.25, 0.25], [psi, psi])


# ---------------------------------------------------------------------------
# projector_map
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_projector_map_is_the_packed_projector(data):
    dim = data.draw(st.integers(1, 8), label="dim")
    count = data.draw(st.integers(1, 6), label="K")
    radial = data.draw(arrays(float, (dim, count), elements=st.floats(-1.0, 1.0)), label="radial")
    phases = data.draw(arrays(float, count, elements=st.floats(0.0, fock.TWO_PI)), label="phases")
    raw = data.draw(arrays(complex, (dim, dim), elements=st.complex_numbers(max_magnitude=1.0)),
                    label="raw")
    weights = data.draw(arrays(float, count, elements=st.floats(0.0, 1.0)), label="w")
    h = raw + raw.conj().T

    m = fock.projector_map(radial, phases)
    assert m.shape == (dim * dim, count) and m.flags.c_contiguous
    # complex oracle: d_kn = radial[n, k] e^{i n phases[k]}, projector d_k d_k^H
    d = radial.T * np.exp(1j * np.outer(phases, np.arange(dim)))
    expectations = np.einsum("km,mn,kn->k", d.conj(), h, d).real
    mixture = np.einsum("k,km,kn->mn", weights, d, d.conj())
    assert np.allclose(fock._pack(h) @ m, expectations, rtol=0, atol=1e-12)
    assert np.allclose(fock._unpack(m @ weights, dim), mixture, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# mean_photon / normalize
# ---------------------------------------------------------------------------


def test_mean_photon_of_thermal_is_nbar():
    assert mean_photon(thermal(1.0, 30)) == pytest.approx(1.0, abs=1e-6)
    assert mean_photon(thermal(0.0, 5)) == 0.0


def test_mean_photon_of_coherent_is_alpha_squared():
    rho = mix([1.0], [coherent(math.sqrt(1.5)).coefficients])
    assert mean_photon(rho) == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0, 5.0])
def test_mean_photon_thermal_within_tail_deficit(nbar):
    cutoff = 90
    got = mean_photon(thermal(nbar, cutoff))
    # closed-form mean carried by the truncated geometric tail
    q = nbar / (nbar + 1.0)
    tail_mean = q ** (cutoff + 1) * ((cutoff + 1) - cutoff * q) / (1.0 - q)
    assert nbar - tail_mean - 1e-12 <= got <= nbar + 1e-12


def test_normalize_restores_unit_trace():
    rho = thermal(2.0, 10, tail_tol=0.05)
    assert rho.trace < 1.0 - 1e-3  # truncation is not hidden
    assert normalize(rho).trace == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# invariant validation on construction
# ---------------------------------------------------------------------------


def test_density_matrix_rejects_non_hermitian():
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        FockDensityMatrix(2, bad)


def test_density_matrix_rejects_negative_eigenvalues():
    bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        FockDensityMatrix(2, bad)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        FockDensityMatrix(2, 0.7 * np.diag([0.5, 0.3, 0.2]).astype(complex), trace_tol=1e-6)
    with pytest.raises(ValueError, match="trace"):
        FockDensityMatrix(2, 1.1 * np.diag([0.5, 0.3, 0.2]).astype(complex))


def test_density_matrix_entries_are_immutable():
    rho = thermal(1.0, 30)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0


def test_complex_amplitude_wraps_phase_and_rejects_negative_magnitude():
    amp = ComplexAmplitude(1.0, -math.pi / 2)
    assert amp.phase == pytest.approx(1.5 * math.pi)
    assert ComplexAmplitude.from_complex(amp.value).magnitude == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ComplexAmplitude(-0.1)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


def _random_density(rng, cutoff=7):
    raw = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    rho = raw @ raw.conj().T
    rho /= rho.trace().real
    return FockDensityMatrix(cutoff, 0.5 * (rho + rho.conj().T), trace_tol=1e-9)


def test_json_round_trip_is_bit_exact():
    rho = _random_density(np.random.default_rng(11))
    payload = json.dumps(fock.density_to_json(rho))
    back = fock.density_from_json(json.loads(payload))
    assert np.array_equal(back.entries, rho.entries)
    assert back.cutoff == rho.cutoff


def test_csv_round_trip_is_bit_exact():
    rho = _random_density(np.random.default_rng(12))
    back = fock.density_from_csv(fock.density_to_csv(rho))
    assert np.array_equal(back.entries, rho.entries)


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError, match="header"):
        fock.density_from_csv("a,b,c\n0,0,1,0\n")
    # malformed bodies behind the right header are ValueErrors too
    for body, match in [
        ("0,1,0.5,0\n", "not Hermitian"),  # an index beyond the rows
        ("", "4 fields"),
        ("0,0,1\n", "4 fields"),
        ("-1,0,1,0\n", ">= 0"),
        ("0,0,one,0\n", "float"),
    ]:
        with pytest.raises(ValueError, match=match):
            fock.density_from_csv("row,col,re,im\n" + body)
