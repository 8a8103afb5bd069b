import json
import math

import numpy as np
import pytest

from thermalmimic import fock, metrics
from thermalmimic.fock import ComplexAmplitude, coherent_pure, thermal
from thermalmimic.mimic import (
    Codebook,
    Scheme,
    SingularDesignError,
    assemble,
    build_codebook,
    codebook_from_json,
    codebook_to_json,
    optimize_weights,
    rayleigh_quantile,
    sweep_fidelity,
    sweep_to_csv,
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
            psi = coherent_pure(ComplexAmplitude(amp, phase), 20).coefficients
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
    assert 1.0 - fock.DEFAULT_TAIL_TOL * cb.size <= rho.trace <= 1.0 + 1e-9


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
    opt = optimize_weights(cb, target)
    assert opt.weights[0, 0] == 1.0
    assert opt.scheme == Scheme.OPTIMIZED


def test_optimize_weights_never_hurts_fidelity():
    cb = build_codebook(1.0, 4, 4)
    target = thermal(1.0, 30)
    f_uniform = metrics.fidelity(assemble(cb, 30), target)
    f_opt = metrics.fidelity(assemble(optimize_weights(cb, target), 30), target)
    assert f_opt >= f_uniform - 1e-12


def test_optimize_weights_recovers_exact_mixture():
    # Target assembled from known weights over distinct points: the refit must
    # identify them exactly (the design matrix is far from degenerate).
    amps = np.array([0.4, 0.9, 1.4])
    phases = np.array([0.3, 2.0, 4.5])
    true_w = np.diag([0.2, 0.5, 0.3])
    target = assemble(Codebook(1.0, amps, phases, true_w / true_w.sum(), Scheme.STRATIFIED), 30)
    uniform = Codebook(1.0, amps, phases, np.full((3, 3), 1 / 9), Scheme.STRATIFIED)
    opt = optimize_weights(uniform, target)
    assert np.allclose(opt.weights, true_w, atol=1e-10)


def test_optimize_weights_random_regression():
    cb = build_codebook(1.5, 8, 8, Scheme.RANDOM, seed=3)
    target = thermal(1.5, 30)
    f_uniform = metrics.fidelity(assemble(cb, 30), target)
    opt = optimize_weights(cb, target)
    f_opt = metrics.fidelity(assemble(opt, 30), target)
    assert f_opt >= f_uniform
    assert f_opt == pytest.approx(RANDOM_SEED3_OPTIMIZED_FIDELITY, abs=1e-6)


def test_optimize_weights_rejects_degenerate_constellation():
    cb = Codebook(
        1.0, np.array([1.0, 1.0]), np.array([0.5]), np.array([[0.5], [0.5]]), Scheme.STRATIFIED
    )
    with pytest.raises(SingularDesignError):
        optimize_weights(cb, thermal(1.0, 30))


# ---------------------------------------------------------------------------
# sweep_fidelity
# ---------------------------------------------------------------------------


def test_sweep_hits_fig2_threshold_at_64_samples():
    rows = sweep_fidelity([1.0], [64])
    assert len(rows) == 1
    assert rows[0].fidelity_mean >= 0.99
    assert rows[0].fidelity_std == 0.0


def test_sweep_fidelity_grows_with_samples():
    rows = {r.n_samples: r.fidelity_mean for r in sweep_fidelity([0.5], [4, 64])}
    assert rows[4] < rows[64]


def test_sweep_higher_nbar_needs_more_samples():
    rows = {
        (r.nbar, r.n_samples): r.fidelity_mean
        for r in sweep_fidelity([0.5, 2.0], [4, 64])
    }
    assert rows[(2.0, 4)] < rows[(0.5, 4)]
    assert rows[(2.0, 64)] >= 0.99


def test_sweep_rejects_non_square_sample_counts():
    with pytest.raises(ValueError, match="perfect square"):
        sweep_fidelity([1.0], [50])


def test_random_sweep_mean_within_three_sigma_of_stratified():
    strat = sweep_fidelity([1.0], [64])[0].fidelity_mean
    rand = sweep_fidelity([1.0], [64], Scheme.RANDOM, trials=20, seed=10)[0]
    assert abs(rand.fidelity_mean - strat) <= 3.0 * rand.fidelity_std


def test_optimized_sweep_never_trails_stratified():
    strat = sweep_fidelity([1.0], [16])[0]
    opt = sweep_fidelity([1.0], [16], Scheme.OPTIMIZED)[0]
    assert opt.scheme == Scheme.OPTIMIZED
    assert opt.fidelity_mean >= strat.fidelity_mean - 1e-12


def test_sweep_csv_shape():
    text = sweep_to_csv(sweep_fidelity([1.0], [4, 16]))
    lines = text.strip().splitlines()
    assert lines[0] == "nbar,M,scheme,fidelity_mean,fidelity_std"
    assert len(lines) == 3
    assert lines[1].startswith("1,4,stratified,")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_codebook_json_round_trip():
    cb = build_codebook(1.5, 8, 8, Scheme.RANDOM, seed=7)
    back = codebook_from_json(json.loads(json.dumps(codebook_to_json(cb))))
    assert np.array_equal(back.amplitudes, cb.amplitudes)
    assert np.array_equal(back.phases, cb.phases)
    assert np.array_equal(back.weights, cb.weights)
    assert back.scheme == cb.scheme
    assert back.seed == cb.seed


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
