import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from thermalmimic import fock
from thermalmimic.mimic import CodebookSpec, Scheme, build_codebook
from thermalmimic.fock import (
    FockDensityMatrix,
    coherent_states,
    mean_photon,
    mix,
    thermal,
)


def coherent(mag, phase=0.0, cutoff=30):
    """The Fock row of one coherent state."""
    return coherent_states([mag], [phase], cutoff)[0]


def norm_sq(psi):
    return float(np.vdot(psi, psi).real)


# ---------------------------------------------------------------------------
# coherent_states
# ---------------------------------------------------------------------------


def test_coherent_vacuum_is_ground_state():
    psi = coherent(0.0, 0.0, cutoff=10)
    expected = np.zeros(11)
    expected[0] = 1.0
    assert np.array_equal(psi, expected)


def test_coherent_ground_coefficient_matches_direct_formula():
    psi = coherent(1.0, 0.0, cutoff=30)
    assert psi[0].real == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert psi[0].imag == 0.0


def test_coherent_norm_captures_poisson_mass():
    # |alpha|^2 = 1.5: the Poisson tail above n=30 is far below 1e-9.
    psi = coherent(math.sqrt(1.5), math.pi / 3, cutoff=30)
    assert norm_sq(psi) >= 1.0 - 1e-9
    assert poisson.sf(30, 1.5) < 1e-9  # independent tail oracle


def test_coherent_coefficients_match_poisson_pmf():
    psi = coherent(math.sqrt(2.0), 0.7, cutoff=40)
    probs = np.abs(psi) ** 2
    assert np.allclose(probs, poisson.pmf(np.arange(41), 2.0), atol=1e-14)


def test_coherent_truncation_error_when_tail_too_large():
    # the row builds at any cutoff; the one-row mixture is what loses too much
    with pytest.raises(ValueError, match="loses mass"):
        mix([1.0], [coherent(3.0, cutoff=5)])


def test_coherent_states_rejects_negative_magnitude():
    with pytest.raises(ValueError, match="magnitudes must be >= 0"):
        coherent_states([0.5, -0.1], [0.0, 1.0], cutoff=10)
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        coherent_states([0.5], [0.0], cutoff=-1)
    # one phase per magnitude, neither broadcast nor of another rank
    for magnitudes, phases in [([1.0], [0.0, 1.0]), ([1.0, 0.5], [0.0, 1.0, 2.0]),
                               ([[1.0, 0.5]], [[0.0, 1.0]]), (1.0, 0.0)]:
        with pytest.raises(ValueError, match="magnitudes and phases must be 1-D arrays of one "
                                             "length"):
            coherent_states(magnitudes, phases, cutoff=10)


@pytest.mark.parametrize(
    "magnitudes, phases",
    [
        build_codebook(CodebookSpec(1.5, 6, 5)).points(),
        build_codebook(CodebookSpec(1.5, 6, 5, Scheme.RANDOM, seed=3)).points(),
        ([0.0, 1.2, 0.0], [0.0, 0.4, 2.5]),
        ([0.7, 1.2, 0.7, 0.7, 1.2], [2.5, 0.4, 2.5, 0.4, 2.5]),
        # np.unique takes -0.0 and 0.0 for one value; a signed zero's factors are the same bits
        ([-0.0, 0.0, 0.9, 0.9, -0.0], [0.0, -0.0, -0.0, 0.0, 1.0]),
    ],
    ids=["stratified", "random", "zero-amplitude", "repeated", "signed-zeros"],
)
def test_coherent_states_rows_match_the_direct_formula(magnitudes, phases):
    states = coherent_states(magnitudes, phases, 30)
    assert states.shape == (len(magnitudes), 31)
    for row, mag, phase in zip(states, magnitudes, phases):
        # each row depends on its own point only, bit for bit, signs of zeros included
        assert row.tobytes() == coherent_states([mag], [phase], 30)[0].tobytes()
        # term by term: |a|^n e^{i n p} e^{-|a|^2/2} / sqrt(n!)
        direct = [
            mag**n * complex(math.cos(n * phase), math.sin(n * phase))
            * math.exp(-0.5 * mag**2) / math.sqrt(math.factorial(n))
            for n in range(31)
        ]
        assert np.allclose(row, direct, rtol=1e-12, atol=0.0)
        if mag == 0.0:
            assert np.array_equal(row, np.eye(31)[0])


def _coherent_oracle(mag, phase, cutoff):
    """One coherent row from Python floats: lgamma for log n!, the vacuum row by hand."""
    if mag == 0.0:
        return [1.0] + [0.0] * cutoff
    return [
        cmath.exp(n * math.log(mag) - 0.5 * mag**2 - 0.5 * math.lgamma(n + 1) + 1j * n * phase)
        for n in range(cutoff + 1)
    ]


@given(
    cutoff=st.integers(0, 40),
    points=st.lists(
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi, exclude_max=True)),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_coherent_states_match_a_scalar_log_space_oracle(cutoff, points):
    magnitudes, phases = (list(col) for col in zip((0.0, 0.3), *points))  # a vacuum row first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = coherent_states(magnitudes, phases, cutoff)
    assert np.array_equal(states[0], np.eye(cutoff + 1)[0])
    for row, mag, phase in zip(states, magnitudes, phases):
        # the atol only admits subnormal coefficients, which carry fewer than 53 bits
        assert np.allclose(row, _coherent_oracle(mag, phase, cutoff), rtol=1e-12,
                           atol=np.finfo(float).tiny)
        if mag == 0.0:
            assert np.array_equal(row, np.eye(cutoff + 1)[0])


@given(
    cutoff=st.integers(0, 40),
    points=st.lists(
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi, exclude_max=True)),
        min_size=1, max_size=6,
    ),
    phi=st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=200, deadline=None)
def test_coherent_states_are_covariant_under_phase_rotation(cutoff, points, phi):
    # U |alpha> = |alpha e^{i phi}> for U = diag(e^{i n phi}): the row of the
    # turned amplitude is the row of the amplitude times e^{i n phi}
    magnitudes, phases = (np.array(col) for col in zip(*points))
    rows = coherent_states(magnitudes, phases, cutoff)
    turned = coherent_states(magnitudes, np.mod(phases + phi, 2 * math.pi), cutoff)
    u = np.exp(1j * phi * np.arange(cutoff + 1))
    assert np.max(np.abs(turned - rows * u)) <= 1e-12


def test_mix_budget_bounds_the_weighted_tail():
    # at cutoff 30, |alpha|^2 = 0.25 loses nothing and |alpha|^2 = 31 loses 0.524
    rows = coherent_states([0.5, math.sqrt(31.0)], [0.0, 1.0], 30)
    rare = mix([1.0 - 1e-9, 1e-9], rows)  # loses 5.2e-10, inside the default 1e-5
    assert rare.trace == pytest.approx(1.0 - 1e-9 * 0.52388802, abs=1e-15)
    with pytest.raises(ValueError, match="loses mass 5.239e-05 beyond cutoff 30"):
        mix([1.0 - 1e-4, 1e-4], rows)


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
    # tail (2/3)^11 ~ 1.2e-2 blows the default 1e-5 budget
    with pytest.raises(ValueError, match="loses mass"):
        thermal(2.0, 10)
    # an explicit budget allows it, and the lost mass stays visible in the trace
    assert thermal(2.0, 10, tail_tol=0.05).trace < 1.0 - 1e-3
    # a negative or non-finite nbar or cutoff is named before any truncation is weighed
    for nbar in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"nbar must be finite and >= 0, got {nbar}"):
            thermal(nbar, 10)
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        thermal(1.0, -1)


@given(nbar=st.floats(0.0, 3.0), cutoff=st.integers(0, 40), phi=st.floats(0.0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_thermal_is_invariant_under_phase_rotation(nbar, cutoff, phi):
    # U rho U^H for U = diag(e^{i n phi}) turns entry (m, n) by e^{i (m - n) phi},
    # so a diagonal state keeps its zeros exactly and its diagonal to rounding
    rho = thermal(nbar, cutoff, tail_tol=1.0)
    u = np.diag(np.exp(1j * phi * np.arange(cutoff + 1)))
    turned = u @ rho.entries @ u.conj().T
    assert np.count_nonzero(turned - np.diag(np.diagonal(turned))) == 0
    assert np.max(np.abs(turned - rho.entries)) <= 1e-15


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
    rho = mix([1.0], [psi])
    assert np.allclose(rho.entries, np.outer(psi, psi.conj()))
    assert np.trace(rho.entries @ rho.entries).real >= 1.0 - 2 * fock.DEFAULT_TAIL_TOL


def test_mix_opposite_phases_kills_odd_coherences():
    rho = mix([0.5, 0.5], [coherent(1.0, 0.0), coherent(1.0, math.pi)])
    m, n = np.indices(rho.entries.shape)
    odd = (m - n) % 2 == 1
    assert np.max(np.abs(rho.entries[odd])) < 1e-12


def test_mix_trace_is_weighted_norm_sum():
    rng = np.random.default_rng(4)
    weights = rng.random(5)
    weights /= weights.sum()
    states = [coherent(rng.uniform(0, 1.8), rng.uniform(0, 2 * math.pi)) for _ in range(5)]
    rho = mix(weights, states)
    expected = sum(w * norm_sq(s) for w, s in zip(weights, states))
    assert rho.trace == pytest.approx(expected, abs=1e-9)


@given(
    cutoff=st.integers(0, 30),
    points=st.lists(
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi, exclude_max=True),
                  st.floats(0.0, 1.0)),
        min_size=1, max_size=8,
    ),
    generic=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_mix_is_psd_with_trace_the_weighted_row_norms(cutoff, points, generic, seed):
    # coherent rows and generic rows of squared norm up to 1, at any weights
    magnitudes, phases, coherent_weights = (np.array(col) for col in zip(*points))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(generic, cutoff + 1)) + 1j * rng.normal(size=(generic, cutoff + 1))
    rows *= rng.uniform(0.0, 1.0, (generic, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
    rows = np.vstack((coherent_states(magnitudes, phases, cutoff), rows))
    weights = np.concatenate((coherent_weights, rng.uniform(0.0, 1.0, generic))) + 1e-3
    weights /= weights.sum()
    rho = mix(weights, rows, tail_tol=1.0)
    assert np.array_equal(rho.entries, rho.entries.conj().T)
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-14
    norms = np.sum(np.abs(rows) ** 2, axis=1)
    assert rho.trace == pytest.approx(float(weights @ norms), rel=0.0, abs=1e-14)


def test_mix_rejects_bad_weights_and_cutoffs():
    psi = coherent(1.0)
    with pytest.raises(ValueError, match="sum to 1"):
        mix([0.5, 0.4], [psi, psi])
    with pytest.raises(ValueError, match=">= 0"):
        mix([1.5, -0.5], [psi, psi])
    # nan fails every comparison, so it must be named, not pass to the product
    for weights in ([math.nan, 1.0], [0.5, math.nan]):
        with pytest.raises(ValueError, match=r"weights must be >= 0, got \[nan\]"):
            mix(weights, [psi, psi])
    with pytest.raises(ValueError, match="share one cutoff"):
        mix([0.5, 0.5], [psi, coherent(1.0, 0.0, cutoff=20)])
    with pytest.raises(ValueError, match=r"2-D \(M, dim\) array of Fock rows, got shape \(31,\)"):
        mix([1.0], psi)


def test_mix_rejects_rows_above_unit_norm_and_miscounted_weights():
    psi = coherent(1.0)
    with pytest.raises(ValueError, match="exceeds 1"):
        mix([0.5, 0.5], [psi, 1.01 * psi])
    with pytest.raises(ValueError, match="3 weights for 2 states"):
        mix([0.5, 0.25, 0.25], [psi, psi])


# ---------------------------------------------------------------------------
# mean_photon
# ---------------------------------------------------------------------------


def test_mean_photon_of_thermal_is_nbar():
    assert mean_photon(thermal(1.0, 30)) == pytest.approx(1.0, abs=1e-6)
    assert mean_photon(thermal(0.0, 5)) == 0.0


def test_mean_photon_of_coherent_is_alpha_squared():
    rho = mix([1.0], [coherent(math.sqrt(1.5))])
    assert mean_photon(rho) == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0, 5.0])
def test_mean_photon_thermal_within_tail_deficit(nbar):
    cutoff = 90
    got = mean_photon(thermal(nbar, cutoff))
    # closed-form mean carried by the truncated geometric tail
    q = nbar / (nbar + 1.0)
    tail_mean = q ** (cutoff + 1) * ((cutoff + 1) - cutoff * q) / (1.0 - q)
    assert nbar - tail_mean - 1e-12 <= got <= nbar + 1e-12


# ---------------------------------------------------------------------------
# invariant validation on construction
# ---------------------------------------------------------------------------


def test_density_matrix_rejects_non_hermitian():
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        FockDensityMatrix(2, bad)
    # inf - inf is nan, and nan > tol is false, so only a finiteness check sees this pair
    bad = 0.5 * np.eye(2, dtype=complex)
    bad[0, 1] = bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        FockDensityMatrix(1, bad)
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        FockDensityMatrix(-1, np.ones((0, 0), dtype=complex))


def test_density_matrix_rejects_negative_eigenvalues():
    bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        FockDensityMatrix(2, bad)
    with pytest.raises(ValueError, match="finite"):
        FockDensityMatrix(1, np.diag([np.nan, 0.5]).astype(complex))


def test_density_matrix_positivity_floor_boundary():
    # U diag(lam) U^H with a random unitary U: the least eigenvalue sits on either side of
    # the -1e-10 floor
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))

    def state(least):
        lam = np.array([least, 0.1, 0.2, 0.3, 0.15, 0.0])
        lam[-1] = 1.0 - lam.sum()
        rho = (u * lam) @ u.conj().T
        return 0.5 * (rho + rho.conj().T)

    with pytest.raises(ValueError, match=r"not positive semidefinite: min eigenvalue -2\.000e-10$"):
        FockDensityMatrix(5, state(-2e-10))
    assert FockDensityMatrix(5, state(-5e-11)).trace == pytest.approx(1.0, abs=1e-14)
    projector = np.outer(u[:, 2], u[:, 2].conj())  # rank 1: five zero eigenvalues
    assert np.array_equal(FockDensityMatrix(5, projector).entries, projector)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        FockDensityMatrix(2, 0.7 * np.diag([0.5, 0.3, 0.2]).astype(complex), trace_tol=1e-6)
    with pytest.raises(ValueError, match="trace"):
        FockDensityMatrix(2, 1.1 * np.diag([0.5, 0.3, 0.2]).astype(complex))
    with pytest.raises(ValueError, match="trace 0.3"):
        FockDensityMatrix(2, np.diag([0.1, 0.1, 0.1]).astype(complex), trace_tol=math.nan)


@pytest.mark.parametrize(
    "build, lost",
    [(lambda budget: thermal(1.0, 9, budget), 2.0**-10),
     (lambda budget: mix([1.0], coherent_states([1.0], [0.0], 9), budget), poisson.sf(9, 1.0))],
    ids=["thermal", "mix"],
)
def test_builders_pass_their_budget_to_the_density_matrix(build, lost):
    # the lost mass is the thermal tail 2^-10, or the Poisson tail P(N > 9) of |alpha|^2 = 1
    message = rf"^state loses mass {lost:.3e} beyond cutoff 9 \(trace \S+, budget \S+\)$"
    with pytest.raises(ValueError, match=message):
        build(lost * (1.0 - 1e-6))
    assert build(lost * (1.0 + 1e-6)).trace_tol == lost * (1.0 + 1e-6)
    # tr < 1 - nan is false, so a nan budget must fail the check, not pass it
    with pytest.raises(ValueError, match=r"^state loses mass .* budget nan\)$"):
        build(math.nan)


def test_density_matrix_entries_are_immutable():
    rho = thermal(1.0, 30)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0

