import math

import numpy as np
import pytest

from thermalmimic import mimic
from thermalmimic.fock import (
    ComplexAmplitude,
    CutoffMismatchError,
    FockDensityMatrix,
    coherent_pure,
    mean_photon,
    mix,
    thermal,
)
from thermalmimic.homodyne import Convention, ConventionError, QuadratureDataset, convert, sample
from thermalmimic.metrics import fidelity
from thermalmimic.tomo import (
    MleConfig,
    ReconstructionEnsemble,
    average,
    ensemble_report,
    log_likelihood,
    mle_reconstruct,
    reconstruction_report,
)

PHASES_50 = 2.0 * math.pi * np.arange(50) / 50


def fock_projector(n, cutoff):
    entries = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    entries[n, n] = 1.0
    return FockDensityMatrix(cutoff, entries)


# ---------------------------------------------------------------------------
# log_likelihood
# ---------------------------------------------------------------------------


def test_likelihood_prefers_the_true_state():
    data = sample(thermal(0.0, 10), PHASES_50, 40, seed=1)
    assert log_likelihood(fock_projector(0, 8), data) > log_likelihood(fock_projector(1, 8), data)


def test_single_record_at_origin_against_vacuum():
    data = QuadratureDataset(np.array([0.0]), np.array([0.0]), Convention.HALF)
    assert log_likelihood(fock_projector(0, 5), data) == pytest.approx(
        math.log(1.0 / math.sqrt(math.pi)), abs=1e-12
    )


def test_likelihood_of_diagonal_state_ignores_global_phase_shift():
    rho = thermal(1.0, 12, tail_tol=1e-3)
    data = sample(thermal(1.0, 30), PHASES_50, 20, seed=2)
    shifted = QuadratureDataset(
        data.x, np.mod(data.theta + 0.77, 2.0 * math.pi), Convention.HALF
    )
    assert log_likelihood(rho, data) == pytest.approx(log_likelihood(rho, shifted), abs=1e-9)


def test_likelihood_rejects_quarter_convention():
    data = convert(sample(thermal(0.0, 5), [0.0], 10, seed=3), Convention.QUARTER)
    with pytest.raises(ConventionError):
        log_likelihood(fock_projector(0, 5), data)
    with pytest.raises(ConventionError):
        mle_reconstruct(data)


# ---------------------------------------------------------------------------
# mle_reconstruct
# ---------------------------------------------------------------------------


def test_vacuum_reconstruction_is_nearly_pure():
    # The converged estimate tracks the draw's sample-variance fluctuation, so
    # a ~1% mass leak to n >= 1 is inherent at K = 2000 (median F over seeds
    # is 0.993); 0.99 is the verified floor for this seed.
    data = sample(thermal(0.0, 10), PHASES_50, 40, seed=4)
    result = mle_reconstruct(data, MleConfig(cutoff=8))
    assert result.converged
    assert fidelity(result.rho, fock_projector(0, 8)) >= 0.99


def test_every_iterate_is_a_valid_density_matrix():
    data = sample(thermal(1.0, 30), PHASES_50, 12, seed=5)
    for cap in (1, 3, 10):
        partial = mle_reconstruct(data, MleConfig(cutoff=10, max_iterations=cap))
        rho = partial.rho  # construction itself validates Hermiticity and PSD
        assert not partial.converged
        assert partial.iterations == cap
        assert rho.trace == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10


def test_log_likelihood_is_monotone_along_the_iteration():
    data = sample(thermal(1.0, 30), PHASES_50, 20, seed=6)
    result = mle_reconstruct(data, MleConfig(cutoff=10))
    steps = np.diff(result.log_likelihoods)
    assert steps.min() >= -1e-8
    assert result.log_likelihoods[-1] > result.log_likelihoods[0]
    # the last history entry belongs to the returned iterate; near convergence
    # a step gains ~1e-6 nats, so a relative tolerance could not tell them apart
    assert result.final_log_likelihood == pytest.approx(
        log_likelihood(result.rho, data), rel=0.0, abs=1e-9
    )


def test_coherent_state_at_nonzero_phase_is_recovered():
    # A state that is not phase-invariant pins the sign of theta in the
    # measurement rows to the one homodyne.sample draws with: a slip
    # (theta -> -theta) reconstructs the conjugate amplitude, at fidelity
    # exp(-|alpha - conj(alpha)|^2) = exp(-3) for this alpha.
    alpha = ComplexAmplitude(1.0, math.pi / 3)
    data = sample(mix([1.0], [coherent_pure(alpha, 30).coefficients]), PHASES_50, 40, seed=7)
    result = mle_reconstruct(data, MleConfig(cutoff=10))
    assert result.converged
    assert fidelity(result.rho, mix([1.0], [coherent_pure(alpha, 10).coefficients])) >= 0.99


def test_thermal_ensemble_recovers_the_source():
    truth = thermal(1.35, 30)
    runs = [
        mle_reconstruct(sample(truth, PHASES_50, 40, seed=10_000 + r), MleConfig(cutoff=12))
        for r in range(10)
    ]
    ensemble = average([r.rho for r in runs])
    reference = thermal(1.35, 12, tail_tol=1e-3)
    assert fidelity(ensemble.mean, reference) > 0.98
    assert mean_photon(ensemble.mean) == pytest.approx(1.35, abs=0.1)
    assert ensemble.elementwise_std[0, 0] < 0.03
    assert ensemble.n_runs == 10


def test_fidelity_improves_with_sample_size():
    truth = thermal(1.0, 30)
    reference = thermal(1.0, 12, tail_tol=1e-3)
    config = MleConfig(cutoff=12)
    improvements = {pair: 0 for pair in ((500, 2000), (2000, 8000))}
    for seed in (31, 32, 33):
        fids = {}
        for n_per_phase in (10, 40, 160):
            data = sample(truth, PHASES_50, n_per_phase, seed=seed)
            fids[50 * n_per_phase] = fidelity(mle_reconstruct(data, config).rho, reference)
        for low, high in improvements:
            if fids[high] >= fids[low] - 0.002:
                improvements[(low, high)] += 1
    assert all(count >= 2 for count in improvements.values())  # majority of seeds


# ---------------------------------------------------------------------------
# average
# ---------------------------------------------------------------------------


def test_average_of_identical_runs_has_zero_spread():
    rho = thermal(1.0, 12, tail_tol=1e-3)
    normalized = FockDensityMatrix(12, rho.entries / rho.trace, trace_tol=1e-9)
    ensemble = average([normalized] * 10)
    assert np.allclose(ensemble.mean.entries, normalized.entries, rtol=0.0, atol=1e-15)
    assert np.max(ensemble.elementwise_std) < 1e-15


def test_average_two_point_statistics():
    ensemble = average([fock_projector(0, 4), fock_projector(1, 4)])
    assert ensemble.mean.entries[0, 0] == pytest.approx(0.5)
    assert ensemble.mean.entries[1, 1] == pytest.approx(0.5)
    assert ensemble.elementwise_std[0, 0] == pytest.approx(0.5)
    assert ensemble.n_runs == 2


def test_average_rejects_mixed_cutoffs_and_empty_input():
    with pytest.raises(CutoffMismatchError):
        average([fock_projector(0, 4), fock_projector(0, 5)])
    with pytest.raises(ValueError):
        average([])


# ---------------------------------------------------------------------------
# config validation and reports
# ---------------------------------------------------------------------------


def test_mle_config_validation():
    with pytest.raises(ValueError):
        MleConfig(max_iterations=0)
    with pytest.raises(ValueError):
        MleConfig(stop_tol=0.0)
    with pytest.raises(ValueError):
        MleConfig(dilution=0.0)
    with pytest.raises(ValueError):
        MleConfig(dilution=1.2)


def test_reports_carry_the_contracted_fields():
    data = sample(thermal(0.0, 5), [0.0, 1.0], 50, seed=9)
    result = mle_reconstruct(data, MleConfig(cutoff=4, max_iterations=200))
    report = reconstruction_report(result)
    assert set(report) == {
        "converged", "iterations", "final_log_likelihood", "cutoff", "matrix", "mean_photon",
    }
    assert report["cutoff"] == 4
    assert report["final_log_likelihood"] == pytest.approx(result.log_likelihoods[-1])

    ensemble = average([result.rho, result.rho])
    ens_report = ensemble_report(ensemble)
    assert set(ens_report) == {"cutoff", "matrix", "elementwise_std", "n_runs", "mean_photon"}
    assert ens_report["n_runs"] == 2
