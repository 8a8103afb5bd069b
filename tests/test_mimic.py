import math
import re
from dataclasses import replace
from typing import get_args

import numpy as np
import pytest
from scipy.optimize import nnls

from thermalmimic import fock, metrics, mimic
from thermalmimic.fock import coherent_states, thermal
from thermalmimic.mimic import (
    Codebook,
    CodebookSpec,
    SweepSpec,
    assemble,
    build_codebook,
    optimize_weights,
    rayleigh_quantile,
    sweep_fidelity,
)


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
    # nan fails every comparison, so "u < 0 or u >= 1" alone would let it through
    for u in (math.nan, np.array([0.2, math.nan])):
        with pytest.raises(ValueError, match=r"quantile argument must lie in \[0, 1\)"):
            rayleigh_quantile(1.0, u)
    for nbar in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"nbar must be finite and > 0, got {nbar}"):
            rayleigh_quantile(nbar, 0.5)


# ---------------------------------------------------------------------------
# build_codebook
# ---------------------------------------------------------------------------


def test_single_point_stratified_codebook():
    cb = build_codebook(CodebookSpec(1.0, 1, 1))
    assert cb.amplitudes[0] == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-12)
    assert cb.phases[0] == pytest.approx(math.pi)
    assert cb.weights[0, 0] == 1.0


def test_stratified_phase_grid_is_uniform_midpoints():
    cb = build_codebook(CodebookSpec(1.0, 2, 4))
    assert np.allclose(cb.phases, [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4])
    assert np.all(cb.weights == 1.0 / 8.0)


def test_random_codebook_is_seed_deterministic():
    cb1 = build_codebook(CodebookSpec(1.5, 8, 8, "random", seed=7))
    cb2 = build_codebook(CodebookSpec(1.5, 8, 8, "random", seed=7))
    assert np.array_equal(cb1.amplitudes, cb2.amplitudes)
    assert np.array_equal(cb1.phases, cb2.phases)
    assert np.array_equal(cb1.weights, cb2.weights)
    assert not np.array_equal(
        cb1.amplitudes, build_codebook(CodebookSpec(1.5, 8, 8, "random", seed=8)).amplitudes
    )


def test_random_codebook_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        build_codebook(CodebookSpec(1.5, 8, 8, "random"))


def test_stratified_amplitudes_strictly_increasing():
    for n_amp in (2, 8, 32):
        cb = build_codebook(CodebookSpec(1.2, n_amp, 4))
        assert np.all(np.diff(cb.amplitudes) > 0.0)


@pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0])
def test_stratified_amplitudes_reproduce_rayleigh_mean(nbar):
    cb = build_codebook(CodebookSpec(nbar, 32, 1))
    weighted_mean = float(cb.amplitudes.mean())
    expected = math.sqrt(math.pi * nbar) / 2.0
    assert abs(weighted_mean - expected) / expected < 0.02


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_assemble_single_vacuum_point():
    cb = Codebook(np.array([0.0]), np.array([0.0]), np.array([[1.0]]))
    rho = assemble(cb, 10)
    expected = np.zeros((11, 11), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho.entries, expected)


def test_assemble_pairs_each_weight_with_its_point():
    amplitudes = np.array([0.3, 0.8, 1.4])
    phases = np.array([0.1, 1.2, 2.3, 4.5])
    weights = np.arange(1.0, 13.0).reshape(3, 4) / 78.0
    rho = assemble(Codebook(amplitudes, phases, weights), 20)
    expected = np.zeros((21, 21), dtype=complex)
    for l, amp in enumerate(amplitudes):
        for q, phase in enumerate(phases):
            psi = coherent_states([amp], [phase], 20)[0]
            expected += weights[l, q] * np.outer(psi, psi.conj())
    assert np.allclose(rho.entries, expected, atol=1e-14)


def test_assemble_stratified_mimics_thermal():
    rho = assemble(build_codebook(CodebookSpec(1.0, 8, 8)), 30)
    assert metrics.fidelity(rho, thermal(1.0, 30)) >= 0.99


def test_assemble_phase_grid_orthogonality():
    # Q equispaced phases with uniform weights cancel every coherence whose
    # order is not a multiple of Q.
    rho = assemble(build_codebook(CodebookSpec(1.0, 2, 4)), 30)
    m, n = np.indices(rho.entries.shape)
    off_grid = (m - n) % 4 != 0
    assert np.max(np.abs(rho.entries[off_grid])) < 1e-10
    assert np.max(np.abs(rho.entries[(m - n) == 4])) > 1e-6  # surviving coherences


@pytest.mark.parametrize("nbar", [0.5, 1.0, 1.5, 2.0])
def test_assemble_output_invariants(nbar):
    cb = build_codebook(CodebookSpec(nbar, 4, 4))
    rho = assemble(cb, 30)
    assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10
    assert 1.0 - fock.DEFAULT_TAIL_TOL * 16 <= rho.trace <= 1.0 + 1e-9


@pytest.mark.parametrize("nbar", [0.5, 1.0, 1.5, 2.0])
def test_fidelity_non_decreasing_in_grid_size(nbar):
    sizes = [2, 4, 8, 16]
    ref = thermal(nbar, 30)
    grid = {
        (la, q): metrics.fidelity(assemble(build_codebook(CodebookSpec(nbar, la, q)), 30), ref)
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


RING_FIT_CASES = [
    (1.0, 4, 1, 30),  # Q = 1: rings are points
    (1.0, 1, 8, 30),  # L = 1: one unknown
    (0.3, 3, 12, 8),  # Q > cutoff: a ring fills only the diagonal
    (2.0, 2, 2, 30),
    (2.0, 4, 4, 30),
    (0.5, 5, 31, 30),
    (1.5, 6, 40, 30),
    (2.0, 20, 20, 30),
]
#: The design-sweep grid: nbar 0.5-2.0, M = 16-400, cutoff 30.
SWEEP_CELLS = [(nbar, side, side, 30) for nbar in (0.5, 1.0, 1.5, 2.0)
               for side in (4, 8, 12, 16, 20)]
#: How far a fidelity scored on the ring mixture may sit from one scored on
#: ``assemble`` of the same codebook: 11 times the worst gap measured over
#: RING_FIT_CASES and SWEEP_CELLS (8.7e-9). The states agree to 8.3e-16 per
#: entry; fidelity magnifies an entry error e to about sqrt(e) at a
#: rank-deficient state.
RING_FIDELITY_TOL = 1e-7


def test_optimize_weights_never_hurts_fidelity():
    target = thermal(1.0, 30)
    uniform = build_codebook(CodebookSpec(1.0, 4, 4))
    weights, f_opt = optimize_weights(1.0, 4, 4, target)
    # f_opt is scored on the ring mixture, which agrees with assemble to rounding
    f_assembled = metrics.fidelity(assemble(replace(uniform, weights=weights), 30), target)
    assert abs(f_assembled - f_opt) <= RING_FIDELITY_TOL
    assert f_opt >= metrics.fidelity(assemble(uniform, 30), target) - RING_FIDELITY_TOL
    slots = mimic._ring_slots(uniform.amplitudes, uniform.phases, 30)
    ring = mimic._ring_mixture(uniform.weights, *slots, 30)
    assert f_opt >= metrics.fidelity(ring, target)  # the uniform weights on the same scale


def _per_point_problem(codebook, target):
    """The (2 dim^2, M) Frobenius NNLS design and target, one column per
    constellation point: the real and imaginary parts of every entry of the
    point's projector, stacked, against those of the target's entries."""
    magnitudes, phases = codebook.points()
    states = coherent_states(magnitudes, phases, target.cutoff)
    projectors = np.einsum("km,kn->mnk", states, states.conj()).reshape(-1, len(states))
    goal = target.entries.ravel()
    return np.vstack((projectors.real, projectors.imag)), np.concatenate((goal.real, goal.imag))


def _residual_along_ray(design, goal, weights):
    """min over c >= 0 of ||c A w - b||: an NNLS optimum is optimal along its
    own ray, so this is the residual of the unnormalized fit ``w`` rescales."""
    fit = design @ weights.ravel()
    return float(np.linalg.norm(max(0.0, fit @ goal / (fit @ fit)) * fit - goal))


@pytest.mark.parametrize("nbar, n_amp, n_phase, cutoff", RING_FIT_CASES)
def test_ring_fit_reaches_per_point_nnls_optimum(nbar, n_amp, n_phase, cutoff):
    # scipy's per-point fit over all L * Q columns is the oracle
    target = thermal(nbar, cutoff)
    weights = optimize_weights(nbar, n_amp, n_phase, target)[0]
    assert weights.shape == (n_amp, n_phase)
    assert np.all(weights == weights[:, :1])  # ring-uniform
    # the refit weighs the stratified grid's points
    design, goal = _per_point_problem(build_codebook(CodebookSpec(nbar, n_amp, n_phase)), target)
    best = nnls(design, goal)[1]
    assert _residual_along_ray(design, goal, weights) <= best * (1.0 + 1e-12)


@pytest.mark.parametrize("nbar, n_amp, n_phase, cutoff", RING_FIT_CASES + SWEEP_CELLS)
def test_ring_mixture_is_the_assembled_state(nbar, n_amp, n_phase, cutoff):
    # optimize_weights scores the uniform and the refit weights on the ring
    # slots alone; both mixtures must be assemble's state of the same codebook
    uniform = build_codebook(CodebookSpec(nbar, n_amp, n_phase))
    rows, cols, entries = mimic._ring_slots(uniform.amplitudes, uniform.phases, cutoff)
    goal = thermal(nbar, cutoff).entries[rows, cols]
    rings = nnls(np.vstack((entries.real, entries.imag)),
                 np.concatenate((goal.real, goal.imag)))[0]
    refit = np.repeat(rings / n_phase, n_phase)
    refit = (refit / refit.sum()).reshape(uniform.weights.shape)  # as optimize_weights builds it
    off_ring = np.ones((cutoff + 1, cutoff + 1), dtype=bool)
    off_ring[rows, cols] = False
    for weights in (uniform.weights, refit):
        ring = mimic._ring_mixture(weights, rows, cols, entries, cutoff).entries
        assembled = assemble(replace(uniform, weights=weights), cutoff).entries
        assert np.max(np.abs(ring - assembled)) <= 1e-14  # measured 8.3e-16
        assert np.all(ring[off_ring] == 0.0)
        assert np.all(np.abs(assembled[off_ring]) <= 1e-15)  # measured 8.9e-17


def _ring_problem(nbar, n_amp, n_phase, cutoff):
    """optimize_weights' real NNLS design: the ring slots' entries of one point
    per ring, real and imaginary parts stacked, against the thermal state's."""
    amplitudes, phases = mimic._stratified_grid(nbar, n_amp, n_phase)
    rows, cols, entries = mimic._ring_slots(amplitudes, phases, cutoff)
    goal = thermal(nbar, cutoff).entries[rows, cols]
    return np.vstack((entries.real, entries.imag)), np.concatenate((goal.real, goal.imag))


@pytest.mark.parametrize("nbar, n_amp, n_phase, cutoff", RING_FIT_CASES + SWEEP_CELLS)
def test_nnls_matches_scipy_on_the_ring_designs(nbar, n_amp, n_phase, cutoff):
    # scipy's Householder Lawson-Hanson on the design itself is the oracle
    design, goal = _ring_problem(nbar, n_amp, n_phase, cutoff)
    expected, best = nnls(design, goal)
    rings = mimic._nnls(design.T @ design, design.T @ goal)
    assert np.all(rings >= 0.0)
    assert np.array_equal(rings == 0.0, expected == 0.0)
    assert np.linalg.norm(design @ rings - goal) <= best * (1.0 + 1e-12)  # measured 1.2e-14


def test_nnls_returns_zeros_for_b_in_the_polar_cone():
    # every column of a ring design has nonnegative products with every other,
    # so b = -A 1 has a nonpositive product with each column: x = 0 is optimal
    design, _ = _ring_problem(1.0, 8, 8, 30)
    goal = -design @ np.ones(design.shape[1])
    assert np.all(design.T @ goal < 0.0)
    rings = mimic._nnls(design.T @ design, design.T @ goal)
    assert np.array_equal(rings, np.zeros(design.shape[1]))


def test_nnls_one_column_design():
    column = np.array([[1.0], [2.0], [-0.5]])
    for goal, expected in (([1.0, 1.0, 1.0], 2.5 / 5.25), ([-1.0, -1.0, 1.0], 0.0)):
        goal = np.array(goal)
        rings = mimic._nnls(column.T @ column, column.T @ goal)
        assert rings.shape == (1,)
        assert rings[0] == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert rings[0] == pytest.approx(nnls(column, goal)[0][0], rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# sweep_fidelity
# ---------------------------------------------------------------------------


def test_sweep_hits_fig2_threshold_at_64_samples():
    mean, std = sweep_fidelity(SweepSpec([1.0], [64]))
    assert mean.shape == std.shape == (1, 1)
    assert mean[0, 0] >= 0.99
    assert std[0, 0] == 0.0


def test_sweep_fidelity_grows_with_samples():
    mean, _ = sweep_fidelity(SweepSpec([0.5], [4, 64]))
    assert mean[0, 0] < mean[0, 1]


def test_sweep_higher_nbar_needs_more_samples():
    mean, _ = sweep_fidelity(SweepSpec([0.5, 2.0], [4, 64]))  # mean[nbar index, sample-count index]
    assert mean[1, 0] < mean[0, 0]
    assert mean[1, 1] >= 0.99


def test_sweep_rejects_non_square_sample_counts():
    with pytest.raises(ValueError, match="perfect square"):
        sweep_fidelity(SweepSpec([1.0], [50]))
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sweep_fidelity(SweepSpec([1.0], [4], "random", trials=0))
    # the grid is checked before any cell: M = 0, empty lists and nbar 0
    with pytest.raises(ValueError, match="sample count must be a perfect square >= 1, got 0"):
        sweep_fidelity(SweepSpec([1.0], [0]))
    with pytest.raises(ValueError, match="samples must be a non-empty list"):
        sweep_fidelity(SweepSpec([1.0], []))
    for nbars in ([], [0.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="nbars must be a non-empty list of finite positive"):
            sweep_fidelity(SweepSpec(nbars, [4]))
    # the message lists the sweep's scheme alias, the codebook schemes and "optimized"
    assert get_args(mimic.SweepScheme) == ("stratified", "random", "optimized")
    with pytest.raises(ValueError, match=re.escape(
            "scheme must be one of stratified, random, optimized, got 'bogus'")):
        sweep_fidelity(SweepSpec([1.0], [4], "bogus"))


def test_random_sweep_mean_within_three_sigma_of_stratified():
    strat, _ = sweep_fidelity(SweepSpec([1.0], [64]))
    rand, rand_std = sweep_fidelity(SweepSpec([1.0], [64], "random", trials=20, seed=10))
    assert abs(rand[0, 0] - strat[0, 0]) <= 3.0 * rand_std[0, 0]


def test_optimized_sweep_never_trails_stratified():
    # the design-sweep grid: the refit wins in some cells (M = 16), and the
    # uniform weights are kept in others (nbar 2.0, M = 64)
    grid = ([0.5, 1.0, 1.5, 2.0], [16, 64, 144, 256, 400])
    strat, _ = sweep_fidelity(SweepSpec(*grid, cutoff=30))
    opt, _ = sweep_fidelity(SweepSpec(*grid, "optimized", cutoff=30))
    # the optimized cells are scored on the ring mixture, the stratified on assemble
    assert np.all(opt >= strat - RING_FIDELITY_TOL)
    assert np.any(opt > strat + RING_FIDELITY_TOL)
    assert np.any(np.abs(opt - strat) <= RING_FIDELITY_TOL)


def test_codebook_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Codebook(np.array([1.0]), np.array([0.0]), np.array([[0.9]]))
    with pytest.raises(ValueError, match=">= 0"):
        Codebook(np.array([1.0]), np.array([0.0, 1.0]), np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError, match="shape"):
        Codebook(np.array([1.0]), np.array([0.0]), np.array([[0.5, 0.5]]))
    for amps, phases, match in [
        ([], [0.0], "amplitudes must be a non-empty 1-D array"),
        ([1.0], [], "phases must be a non-empty 1-D array"),
        ([-1.0], [0.0], "amplitudes must be >= 0"),
        ([1.0], [2.0 * np.pi], r"phases must lie in \[0, 2\*pi\)"),
    ]:
        weights = np.full((len(amps), len(phases)), 1.0 / max(len(amps) * len(phases), 1))
        with pytest.raises(ValueError, match=match):
            Codebook(np.array(amps), np.array(phases), weights)
    with pytest.raises(ValueError,
                       match="scheme must be one of stratified, random, got 'optimized'"):
        CodebookSpec(1.0, 2, 2, "optimized")
    for nbar in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"nbar must be finite and > 0, got {nbar}"):
            CodebookSpec(nbar, 2, 2, "stratified", None)
