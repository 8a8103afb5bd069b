import math

import numpy as np
import pytest
from scipy.optimize import nnls

from thermalmimic import fock, metrics
from thermalmimic.fock import coherent_states, thermal
from thermalmimic.mimic import (
    PHASE_GAP_TOL,
    Codebook,
    Scheme,
    assemble,
    build_codebook,
    optimize_weights,
    rayleigh_quantile,
    sweep_fidelity,
)

# Frozen regression value: nonnegative-least-squares refit of the random
# seed-3 codebook at nbar = 1.5 (see test_optimize_weights_random_regression).
RANDOM_SEED3_OPTIMIZED_FIDELITY = 0.957403383667


# ---------------------------------------------------------------------------
# rayleigh_quantile
# ---------------------------------------------------------------------------


def test_rayleigh_quantile_closed_form_points():
    assert rayleigh_quantile(1.0, 0.0) == 0.0
    assert rayleigh_quantile(1.0, 0.5) == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-12)
    assert rayleigh_quantile(2.0, 1.0 - math.exp(-1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_rayleigh_quantile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rayleigh_quantile(1.0, 1.0)
    with pytest.raises(ValueError):
        rayleigh_quantile(1.0, -0.1)
    with pytest.raises(ValueError):
        rayleigh_quantile(0.0, 0.5)


# ---------------------------------------------------------------------------
# build_codebook
# ---------------------------------------------------------------------------


def test_single_point_stratified_codebook():
    cb = build_codebook(1.0, 1, 1)
    assert cb.amplitudes[0] == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-12)
    assert cb.phases[0] == pytest.approx(math.pi)
    assert cb.weights[0, 0] == 1.0


def test_stratified_phase_grid_is_uniform_midpoints():
    cb = build_codebook(1.0, 2, 4)
    assert np.allclose(cb.phases, [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4])
    assert np.all(cb.weights == 1.0 / 8.0)


def test_random_codebook_is_seed_deterministic():
    cb1 = build_codebook(1.5, 8, 8, Scheme.RANDOM, seed=7)
    cb2 = build_codebook(1.5, 8, 8, Scheme.RANDOM, seed=7)
    assert np.array_equal(cb1.amplitudes, cb2.amplitudes)
    assert np.array_equal(cb1.phases, cb2.phases)
    assert np.array_equal(cb1.weights, cb2.weights)
    assert not np.array_equal(
        cb1.amplitudes, build_codebook(1.5, 8, 8, Scheme.RANDOM, seed=8).amplitudes
    )


def test_random_codebook_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        build_codebook(1.5, 8, 8, Scheme.RANDOM)


def test_stratified_amplitudes_strictly_increasing():
    for n_amp in (2, 8, 32):
        cb = build_codebook(1.2, n_amp, 4)
        assert np.all(np.diff(cb.amplitudes) > 0.0)


@pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0])
def test_stratified_amplitudes_reproduce_rayleigh_mean(nbar):
    cb = build_codebook(nbar, 32, 1)
    weighted_mean = float(cb.amplitudes.mean())
    expected = math.sqrt(math.pi * nbar) / 2.0
    assert abs(weighted_mean - expected) / expected < 0.02


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_assemble_single_vacuum_point():
    cb = Codebook(1.0, np.array([0.0]), np.array([0.0]), np.array([[1.0]]), Scheme.STRATIFIED)
    rho = assemble(cb, 10)
    expected = np.zeros((11, 11), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho.entries, expected)


def test_assemble_pairs_each_weight_with_its_point():
    amplitudes = np.array([0.3, 0.8, 1.4])
    phases = np.array([0.1, 1.2, 2.3, 4.5])
    weights = np.arange(1.0, 13.0).reshape(3, 4) / 78.0
    rho = assemble(Codebook(1.0, amplitudes, phases, weights, Scheme.STRATIFIED), 20)
    expected = np.zeros((21, 21), dtype=complex)
    for l, amp in enumerate(amplitudes):
        for q, phase in enumerate(phases):
            psi = coherent_states([amp], [phase], 20)[0]
            expected += weights[l, q] * np.outer(psi, psi.conj())
    assert np.allclose(rho.entries, expected, atol=1e-14)


def test_assemble_stratified_mimics_thermal():
    rho = assemble(build_codebook(1.0, 8, 8), 30)
    assert metrics.fidelity(rho, thermal(1.0, 30)) >= 0.99


def test_assemble_phase_grid_orthogonality():
    # Q equispaced phases with uniform weights cancel every coherence whose
    # order is not a multiple of Q.
    rho = assemble(build_codebook(1.0, 2, 4), 30)
    m, n = np.indices(rho.entries.shape)
    off_grid = (m - n) % 4 != 0
    assert np.max(np.abs(rho.entries[off_grid])) < 1e-10
    assert np.max(np.abs(rho.entries[(m - n) == 4])) > 1e-6  # surviving coherences


@pytest.mark.parametrize("nbar", [0.5, 1.0, 1.5, 2.0])
def test_assemble_output_invariants(nbar):
    cb = build_codebook(nbar, 4, 4)
    rho = assemble(cb, 30)
    assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10
    assert 1.0 - fock.DEFAULT_TAIL_TOL * 16 <= rho.trace <= 1.0 + 1e-9


@pytest.mark.parametrize("nbar", [0.5, 1.0, 1.5, 2.0])
def test_fidelity_non_decreasing_in_grid_size(nbar):
    sizes = [2, 4, 8, 16]
    ref = thermal(nbar, 30)
    grid = {
        (la, q): metrics.fidelity(assemble(build_codebook(nbar, la, q), 30), ref)
        for la in sizes
        for q in sizes
    }
    for i, la in enumerate(sizes[:-1]):
        for q in sizes:
            assert grid[(sizes[i + 1], q)] >= grid[(la, q)] - 1e-9
    for la in sizes:
        for i, q in enumerate(sizes[:-1]):
            assert grid[(la, sizes[i + 1])] >= grid[(la, q)] - 1e-9


# ---------------------------------------------------------------------------
# optimize_weights
# ---------------------------------------------------------------------------


def test_optimize_weights_fixed_point_on_vacuum():
    cb = Codebook(1.0, np.array([0.0]), np.array([0.0]), np.array([[1.0]]), Scheme.STRATIFIED)
    target = assemble(cb, 10)
    opt = optimize_weights(cb, target)[0]
    assert opt.weights[0, 0] == 1.0
    assert opt.scheme == Scheme.OPTIMIZED


def test_optimize_weights_never_hurts_fidelity():
    cb = build_codebook(1.0, 4, 4)
    target = thermal(1.0, 30)
    f_uniform = metrics.fidelity(assemble(cb, 30), target)
    f_opt = metrics.fidelity(assemble(optimize_weights(cb, target)[0], 30), target)
    assert f_opt >= f_uniform - 1e-12


def test_optimize_weights_recovers_exact_mixture():
    # Target assembled from known weights over distinct points: the refit must
    # identify them exactly (the design matrix is far from degenerate).
    amps = np.array([0.4, 0.9, 1.4])
    phases = np.array([0.3, 2.0, 4.5])
    true_w = np.diag([0.2, 0.5, 0.3])
    target = assemble(Codebook(1.0, amps, phases, true_w / true_w.sum(), Scheme.STRATIFIED), 30)
    uniform = Codebook(1.0, amps, phases, np.full((3, 3), 1 / 9), Scheme.STRATIFIED)
    opt = optimize_weights(uniform, target)[0]
    assert np.allclose(opt.weights, true_w, atol=1e-10)


def test_optimize_weights_random_regression():
    cb = build_codebook(1.5, 8, 8, Scheme.RANDOM, seed=3)
    target = thermal(1.5, 30)
    f_uniform = metrics.fidelity(assemble(cb, 30), target)
    opt = optimize_weights(cb, target)[0]
    f_opt = metrics.fidelity(assemble(opt, 30), target)
    assert f_opt >= f_uniform
    assert f_opt == pytest.approx(RANDOM_SEED3_OPTIMIZED_FIDELITY, abs=1e-6)


def test_optimize_weights_rejects_degenerate_constellation():
    cb = Codebook(
        1.0, np.array([1.0, 1.0]), np.array([0.5]), np.array([[0.5], [0.5]]), Scheme.STRATIFIED
    )
    with pytest.raises(ValueError, match="coincide"):
        optimize_weights(cb, thermal(1.0, 30))[0]


def _per_point_problem(codebook, target):
    """The full (dim^2, M) Frobenius NNLS design and packed target, one column
    per constellation point, built with the one projector kernel."""
    magnitudes, phases = codebook.points()
    states = coherent_states(magnitudes, phases, target.cutoff)
    scale = np.where(np.eye(target.dim, dtype=bool), 1.0, math.sqrt(2.0)).ravel()
    design = fock.projector_map(np.abs(states).T, phases)
    design /= scale[:, None]
    return design, fock._pack(target.entries) * scale


def _per_point_weights(codebook, target):
    solution, _ = nnls(*_per_point_problem(codebook, target))
    return (solution / solution.sum()).reshape(codebook.weights.shape)


def _residual_along_ray(design, packed, weights):
    """min over c >= 0 of ||c A w - b||: an NNLS optimum is optimal along its
    own ray, so this is the residual of the unnormalized fit ``w`` rescales."""
    fit = design @ weights.ravel()
    return float(np.linalg.norm(max(0.0, fit @ packed / (fit @ fit)) * fit - packed))


def _assert_reaches_per_point_optimum(codebook, target, weights):
    design, packed = _per_point_problem(codebook, target)
    assert _residual_along_ray(design, packed, weights) <= nnls(design, packed)[1] * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "nbar, n_amp, n_phase, cutoff",
    [
        (1.0, 4, 1, 30),  # Q = 1: rings are points
        (1.0, 1, 8, 30),  # L = 1: one unknown
        (0.3, 3, 12, 8),  # Q > cutoff: only the diagonal survives the mask
        (2.0, 2, 2, 30),
        (2.0, 4, 4, 30),
        (0.5, 5, 31, 30),
        (1.5, 6, 40, 30),
        (2.0, 20, 20, 30),
    ],
)
def test_ring_fit_reaches_per_point_nnls_optimum(nbar, n_amp, n_phase, cutoff):
    cb = build_codebook(nbar, n_amp, n_phase)
    target = thermal(nbar, cutoff)
    opt = optimize_weights(cb, target)[0]
    assert np.all(opt.weights == opt.weights[:, :1])  # ring-uniform
    _assert_reaches_per_point_optimum(cb, target, opt.weights)


def _stratified_with_phases(phases):
    cb = build_codebook(2.0, 4, len(phases))
    return Codebook(2.0, cb.amplitudes, np.asarray(phases), cb.weights, Scheme.STRATIFIED)


@pytest.mark.parametrize(
    "codebook, target",
    [
        (build_codebook(1.5, 8, 8, Scheme.RANDOM, seed=3), thermal(1.5, 30)),
        # harmonics 1, 2, 3 of a coherent target are not divisible by Q = 4
        (build_codebook(1.0, 3, 4), fock.mix([1.0], coherent_states([0.8], [0.4], 30))),
        # one gap of a 4-phase grid off by ten times the tolerance
        (_stratified_with_phases(np.pi * np.array([0.25, 0.75, 1.25, 1.75])
                                 + [0.0, 10 * PHASE_GAP_TOL, 0.0, 0.0]), thermal(2.0, 30)),
    ],
    ids=["random-seed3", "coherent-target", "gap-off-grid"],
)
def test_refit_without_rotation_symmetry_is_the_per_point_fit(codebook, target):
    opt = optimize_weights(codebook, target)[0]
    assert np.array_equal(opt.weights, _per_point_weights(codebook, target))


def test_offset_grid_wrapping_past_two_pi_takes_ring_fit():
    phases = (5.5 + np.arange(4) * math.pi / 2) % (2 * math.pi)  # [5.5, 0.79, 2.36, 3.93]
    cb = _stratified_with_phases(phases)
    target = thermal(2.0, 30)
    opt = optimize_weights(cb, target)[0]
    assert np.all(opt.weights == opt.weights[:, :1])
    assert not np.array_equal(opt.weights, _per_point_weights(cb, target))
    _assert_reaches_per_point_optimum(cb, target, opt.weights)


def test_ring_fit_keeps_harmonics_divisible_by_q():
    # A ring-uniform mixture of two amplitudes on a 3-phase grid has nonzero
    # rho[m, m+3] (and rho[m, m+6]); rounding leaves ~1e-17 at the other
    # harmonics, which the target zeroes so the rotation symmetry is exact.
    amps, cutoff = np.array([0.3, 0.7]), 8
    phases = math.pi * np.array([1.0, 3.0, 5.0]) / 3
    rings = np.array([0.4, 0.6])
    true_weights = np.repeat(rings / 3, 3).reshape(2, 3)
    mixture = assemble(Codebook(1.0, amps, phases, true_weights, Scheme.STRATIFIED), cutoff)
    n = np.arange(cutoff + 1)
    harmonic = np.abs(n[:, None] - n)
    entries = np.where(harmonic % 3 == 0, mixture.entries, 0.0)
    assert np.all(np.abs(entries[harmonic == 3]) > 1e-7)
    target = fock.FockDensityMatrix(cutoff, entries, mixture.trace_tol)

    uniform = Codebook(1.0, amps, phases, np.full((2, 3), 1 / 6), Scheme.STRATIFIED)
    opt = optimize_weights(uniform, target)[0]
    assert np.all(opt.weights == opt.weights[:, :1])
    assert np.allclose(opt.weights.sum(axis=1), rings, rtol=0.0, atol=1e-10)

    # On the grid turned by pi/3 the ring columns carry -rho[m, m+3]: the fit
    # must trade the diagonal against the third harmonic. The diagonal alone
    # would return the true ring weights, short of the per-point optimum.
    # (Start from weights the fit beats, so the guard does not keep them.)
    turned = Codebook(1.0, amps, math.pi * np.array([2.0, 4.0, 0.0]) / 3,
                      np.repeat([0.3, 0.1 / 3], 3).reshape(2, 3), Scheme.STRATIFIED)
    opt = optimize_weights(turned, target)[0]
    assert np.all(opt.weights == opt.weights[:, :1])
    design, packed = _per_point_problem(turned, target)
    best = nnls(design, packed)[1]
    assert _residual_along_ray(design, packed, opt.weights) <= best * (1.0 + 1e-12)
    assert _residual_along_ray(design, packed, true_weights) > best * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# sweep_fidelity
# ---------------------------------------------------------------------------


def test_sweep_hits_fig2_threshold_at_64_samples():
    mean, std = sweep_fidelity([1.0], [64])
    assert mean.shape == std.shape == (1, 1)
    assert mean[0, 0] >= 0.99
    assert std[0, 0] == 0.0


def test_sweep_fidelity_grows_with_samples():
    mean, _ = sweep_fidelity([0.5], [4, 64])
    assert mean[0, 0] < mean[0, 1]


def test_sweep_higher_nbar_needs_more_samples():
    mean, _ = sweep_fidelity([0.5, 2.0], [4, 64])  # mean[nbar index, sample-count index]
    assert mean[1, 0] < mean[0, 0]
    assert mean[1, 1] >= 0.99


def test_sweep_rejects_non_square_sample_counts():
    with pytest.raises(ValueError, match="perfect square"):
        sweep_fidelity([1.0], [50])
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sweep_fidelity([1.0], [4], Scheme.RANDOM, trials=0)
    # the grid is checked before any cell: M = 0, empty lists and nbar 0
    with pytest.raises(ValueError, match="sample count 0 is not a perfect square"):
        sweep_fidelity([1.0], [0])
    with pytest.raises(ValueError, match="samples must be a non-empty list"):
        sweep_fidelity([1.0], [])
    for nbars in ([], [0.0]):
        with pytest.raises(ValueError, match="nbars must be a non-empty list of positive"):
            sweep_fidelity(nbars, [4])


def test_random_sweep_mean_within_three_sigma_of_stratified():
    strat, _ = sweep_fidelity([1.0], [64])
    rand, rand_std = sweep_fidelity([1.0], [64], Scheme.RANDOM, trials=20, seed=10)
    assert abs(rand[0, 0] - strat[0, 0]) <= 3.0 * rand_std[0, 0]


def test_optimized_sweep_never_trails_stratified():
    strat, _ = sweep_fidelity([1.0], [16])
    opt, _ = sweep_fidelity([1.0], [16], Scheme.OPTIMIZED)
    assert opt[0, 0] >= strat[0, 0] - 1e-12


def test_codebook_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Codebook(1.0, np.array([1.0]), np.array([0.0]), np.array([[0.9]]), Scheme.STRATIFIED)
    with pytest.raises(ValueError, match=">= 0"):
        Codebook(
            1.0, np.array([1.0]), np.array([0.0, 1.0]),
            np.array([[1.5, -0.5]]), Scheme.STRATIFIED,
        )
    with pytest.raises(ValueError, match="shape"):
        Codebook(1.0, np.array([1.0]), np.array([0.0]), np.array([[0.5, 0.5]]), Scheme.STRATIFIED)
    for amps, phases, match in [
        ([], [0.0], "amplitudes must be a non-empty 1-D array"),
        ([1.0], [], "phases must be a non-empty 1-D array"),
        ([-1.0], [0.0], "amplitudes must be >= 0"),
        ([1.0], [2.0 * np.pi], r"phases must lie in \[0, 2\*pi\)"),
    ]:
        weights = np.full((len(amps), len(phases)), 1.0 / max(len(amps) * len(phases), 1))
        with pytest.raises(ValueError, match=match):
            Codebook(1.0, np.array(amps), np.array(phases), weights, Scheme.STRATIFIED)
    with pytest.raises(ValueError, match="optimized codebooks come from optimize_weights"):
        build_codebook(1.0, 2, 2, Scheme.OPTIMIZED)
