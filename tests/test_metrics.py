import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _states import fock_projector, random_density, rotated, states, unitaries
from thermalmimic import fock, mimic
from thermalmimic.fock import FockDensityMatrix, coherent_states, mix, thermal
from thermalmimic.metrics import (
    compare,
    fidelity,
    helstrom_error,
    thermal_entropy,
    trace_distance,
    von_neumann_entropy,
)


RNG = np.random.default_rng(2024)
RANDOM_PAIRS = [(random_density(RNG), random_density(RNG)) for _ in range(50)]

#: Rounding of 1e-15 on an eigenvalue at zero moves F by up to about dim
#: sqrt(1e-15): the fidelity of rank-deficient states is sensitive at sqrt(e).
FIDELITY_ATOL = 1e-6


#: Two states at one cutoff, each from full rank down to pure.
STATE_PAIRS = st.integers(0, 8).flatmap(lambda cutoff: st.tuples(states(cutoff), states(cutoff)))


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
    rho_art = mimic.assemble(mimic.build_codebook(mimic.CodebookSpec(1.0, 8, 8)), 30)
    assert fidelity(rho_th, rho_art) >= 0.99


def test_fidelity_symmetric_and_bounded_on_random_pairs():
    for a, b in RANDOM_PAIRS:
        f_ab = fidelity(a, b)
        f_ba = fidelity(b, a)
        assert abs(f_ab - f_ba) <= 1e-9
        assert -1e-12 <= f_ab <= 1.0 + 1e-9


@settings(max_examples=200, deadline=None)
@given(pair=STATE_PAIRS)
def test_metrics_are_symmetric_and_bounded_down_to_pure_states(pair):
    a, b = pair
    f_ab = fidelity(a, b)
    assert abs(f_ab - fidelity(b, a)) <= FIDELITY_ATOL
    assert 0.0 <= f_ab <= 1.0
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), rel=0.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(pair=STATE_PAIRS, data=st.data())
def test_metrics_are_unitarily_invariant(pair, data):
    # a phase rotation diag(e^{i n phi}) or any unitary U leaves every metric of
    # U a U^H and U b U^H as it was
    a, b = pair
    u = data.draw(unitaries(a.cutoff), label="U")
    ua, ub = rotated(u, a), rotated(u, b)
    assert fidelity(ua, ub) == pytest.approx(fidelity(a, b), rel=0.0, abs=FIDELITY_ATOL)
    assert trace_distance(ua, ub) == pytest.approx(trace_distance(a, b), rel=0.0, abs=1e-12)
    assert von_neumann_entropy(ua) == pytest.approx(von_neumann_entropy(a), rel=0.0, abs=1e-10)


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
    with pytest.raises(ValueError, match="cutoff mismatch"):
        fidelity(thermal(1.0, 30), thermal(1.0, 20, tail_tol=1e-5))
    # a non-PSD matrix never reaches fidelity: construction refuses it
    with pytest.raises(ValueError, match="positive semidefinite"):
        fidelity(FockDensityMatrix(1, np.diag([1.2, -0.2]).astype(complex)), thermal(0.0, 1))


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
    laser = mix([1.0], coherent_states([1.0], [0.0], 30))
    p_err = helstrom_error(rho_th, laser)
    assert p_err == pytest.approx(0.14, abs=0.02)
    assert 0.5 - trace_distance(rho_th, laser) / 2.0 == pytest.approx(p_err, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(pair=STATE_PAIRS)
def test_helstrom_definition_identity(pair):
    a, b = pair
    assert helstrom_error(a, b) + 0.5 * trace_distance(a, b) == pytest.approx(0.5, abs=1e-12)


def test_fuchs_van_de_graaff_sandwich():
    for a, b in RANDOM_PAIRS:
        f = fidelity(a, b)
        t = trace_distance(a, b)
        assert 1.0 - math.sqrt(f) <= t + 1e-8
        assert t <= math.sqrt(max(1.0 - f, 0.0)) + 1e-8


@settings(max_examples=200, deadline=None)
@given(pair=STATE_PAIRS)
def test_fuchs_van_de_graaff_sandwich_down_to_pure_states(pair):
    # 1 - sqrt(F) <= T <= sqrt(1 - F), squared so that F's tolerance applies:
    # (1 - T)^2 <= F <= 1 - T^2
    a, b = pair
    f, t = fidelity(a, b), trace_distance(a, b)
    assert (1.0 - t) ** 2 <= f + FIDELITY_ATOL
    assert f <= 1.0 - t * t + FIDELITY_ATOL


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_of_pure_coherent_state_is_zero():
    rho = mix([1.0], coherent_states([1.2], [0.4], 30))
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)
    # the closed form at nbar = 0 is the vacuum's, exactly 0, and ends there
    assert thermal_entropy(0.0) == 0.0
    for nbar in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"nbar must be finite and >= 0, got {nbar}"):
            thermal_entropy(nbar)


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


@pytest.mark.parametrize("nbar,n_amp,n_ph", [(0.5, 4, 4), (1.0, 8, 8), (1.5, 8, 4), (2.0, 16, 8)])
def test_thermal_state_maximizes_entropy_at_fixed_mean(nbar, n_amp, n_ph):
    rho_art = mimic.assemble(mimic.build_codebook(mimic.CodebookSpec(nbar, n_amp, n_ph)), 30)
    ceiling = thermal_entropy(fock.mean_photon(rho_art))
    assert von_neumann_entropy(rho_art) <= ceiling + 1e-9


@settings(max_examples=200, deadline=None)
@given(rho=st.integers(0, 8).flatmap(states))
def test_entropy_is_at_most_the_thermal_entropy_at_its_mean(rho):
    ceiling = thermal_entropy(max(fock.mean_photon(rho), 0.0))
    assert von_neumann_entropy(rho) <= ceiling + 1e-9


def test_compare_report_fields():
    a = thermal(1.0, 30)
    b = mix([1.0], coherent_states([1.0], [0.0], 30))
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
