"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. The tomography criteria share one set of reconstructions,
computed once per session from seeds fixed a priori.
"""

import math
import statistics
import time

import numpy as np
import pytest
from scipy.integrate import quad

from thermalmimic import fock, homodyne, metrics, mimic, physical, tomo

SEEDS = (0, 1, 2)
THERMAL_SEED_BASE = 10_000
ARTIFICIAL_SEED_BASE = 20_000
PHASES_50 = 2.0 * math.pi * np.arange(50) / 50
NBAR = 1.35
RECON_CUTOFF = 12


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def reconstruct_ensemble(source, seed_base):
    runs = [
        tomo.mle_reconstruct(
            homodyne.sample(source, PHASES_50, 40, seed=seed_base + r),
            tomo.MleConfig(cutoff=RECON_CUTOFF),
        ).rho
        for r in range(10)
    ]
    return tomo.average(runs).mean


@pytest.fixture(scope="module")
def pipelines():
    """Thermal and artificial reconstructions for three a-priori seeds."""
    thermal_source = fock.thermal(NBAR, 30)
    artificial_source = mimic.assemble(mimic.build_codebook(NBAR, 8, 8), 30)
    reference = fock.thermal(NBAR, RECON_CUTOFF, tail_tol=1e-3)

    t0 = time.perf_counter()
    thermal_hats = [
        reconstruct_ensemble(thermal_source, THERMAL_SEED_BASE + 100 * k) for k in SEEDS
    ]
    thermal_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    artificial_hats = [
        reconstruct_ensemble(artificial_source, ARTIFICIAL_SEED_BASE + 100 * k) for k in SEEDS
    ]
    artificial_elapsed = time.perf_counter() - t0

    return {
        "reference": reference,
        "thermal_hats": thermal_hats,
        "artificial_hats": artificial_hats,
        "thermal_elapsed": thermal_elapsed,
        "artificial_elapsed": artificial_elapsed,
    }


def test_criterion_1_constellation_fidelity_grid():
    t0 = time.perf_counter()
    fidelities = {}
    for nbar in (0.5, 1.0, 1.5, 2.0):
        rho_art = mimic.assemble(mimic.build_codebook(nbar, 8, 8), 30)
        fidelities[nbar] = metrics.fidelity(rho_art, fock.thermal(nbar, 30))
    elapsed = time.perf_counter() - t0
    ok = all(f >= 0.99 for f in fidelities.values()) and elapsed < 10.0
    detail = ", ".join(f"F(nbar={nb}) = {f:.4f}" for nb, f in fidelities.items())
    report(1, ok, f"{detail} (threshold 0.99, {elapsed:.1f} s)")
    assert all(f >= 0.99 for f in fidelities.values())
    assert elapsed < 10.0


def test_criterion_2_thermal_tomography(pipelines):
    fids = [metrics.fidelity(pipelines["reference"], hat) for hat in pipelines["thermal_hats"]]
    median = statistics.median(fids)
    elapsed = pipelines["thermal_elapsed"]
    ok = all(f >= 0.97 for f in fids) and median >= 0.98 and elapsed < 120.0
    report(2, ok, f"F(thermal, reconstruction) per seed = "
                  f"{[round(f, 4) for f in fids]}, median = {median:.4f} "
                  f"(floor 0.97, median target 0.98, {elapsed:.0f} s)")
    assert all(f >= 0.97 for f in fids)
    assert median >= 0.98
    assert elapsed < 120.0


def test_criterion_3_artificial_tomography(pipelines):
    fids_ref = [
        metrics.fidelity(pipelines["reference"], hat) for hat in pipelines["artificial_hats"]
    ]
    fids_cross = [
        metrics.fidelity(th, art)
        for th, art in zip(pipelines["thermal_hats"], pipelines["artificial_hats"])
    ]
    median_ref = statistics.median(fids_ref)
    median_cross = statistics.median(fids_cross)
    elapsed = pipelines["artificial_elapsed"]
    ok = (
        all(f >= 0.97 for f in fids_ref)
        and median_ref >= 0.98
        and all(f >= 0.96 for f in fids_cross)
        and median_cross >= 0.97
        and elapsed < 120.0
    )
    report(3, ok, f"F(thermal, artificial-hat) = {[round(f, 4) for f in fids_ref]} "
                  f"(median {median_ref:.4f}); F(thermal-hat, artificial-hat) = "
                  f"{[round(f, 4) for f in fids_cross]} (median {median_cross:.4f}, {elapsed:.0f} s)")
    assert all(f >= 0.97 for f in fids_ref)
    assert median_ref >= 0.98
    assert all(f >= 0.96 for f in fids_cross)
    assert median_cross >= 0.97
    assert elapsed < 120.0


def test_criterion_4_helstrom_floor_between_reconstructions(pipelines):
    errors = [
        metrics.helstrom_error(th, art)
        for th, art in zip(pipelines["thermal_hats"], pipelines["artificial_hats"])
    ]
    median = statistics.median(errors)
    ok = median >= 0.45
    report(4, ok, f"helstrom(thermal-hat, artificial-hat) per seed = "
                  f"{[round(e, 4) for e in errors]}, median = {median:.4f} (floor 0.45)")
    assert median >= 0.45


def test_criterion_5_thermal_vs_laser_discrimination():
    t0 = time.perf_counter()
    rho_th = fock.thermal(1.0, 30)
    laser = fock.mix([1.0], [fock.coherent_pure(fock.ComplexAmplitude(1.0), 30).coefficients])
    p_err = metrics.helstrom_error(rho_th, laser)
    elapsed = time.perf_counter() - t0
    ok = abs(p_err - 0.14) <= 0.02 and elapsed < 1.0
    report(5, ok, f"helstrom(thermal(1), |alpha|^2=1) = {p_err:.4f} (target 0.14 +/- 0.02, "
                  f"{elapsed:.2f} s)")
    assert p_err == pytest.approx(0.14, abs=0.02)
    assert elapsed < 1.0


def test_criterion_6_entropy_block(pipelines):
    s_coherent = metrics.von_neumann_entropy(
        fock.mix([1.0], [fock.coherent_pure(fock.ComplexAmplitude(1.0), 30).coefficients])
    )
    s_thermal_1 = metrics.von_neumann_entropy(fock.thermal(1.0, 40))
    ceiling = metrics.thermal_entropy(NBAR)
    s_artificial = [metrics.von_neumann_entropy(hat) for hat in pipelines["artificial_hats"]]
    ok = (
        abs(s_coherent) <= 1e-9
        and abs(s_thermal_1 - 2.0) <= 1e-6
        and abs(ceiling - 2.31) <= 0.01
        and all(2.0 <= s <= 2.31 for s in s_artificial)
    )
    report(6, ok, f"S(coherent) = {s_coherent:.2e}, S(thermal(1)) = {s_thermal_1:.8f} bits, "
                  f"S(artificial-hat) = {[round(s, 3) for s in s_artificial]} in [2.0, 2.31], "
                  f"ceiling S(thermal(1.35)) = {ceiling:.4f}")
    assert abs(s_coherent) <= 1e-9
    assert s_thermal_1 == pytest.approx(2.0, abs=1e-6)
    assert ceiling == pytest.approx(2.31, abs=0.01)
    for s in s_artificial:
        assert 2.0 <= s <= 2.31


def test_criterion_7_property_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    def random_density(cutoff=9):
        raw = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(
            size=(cutoff + 1, cutoff + 1)
        )
        rho = raw @ raw.conj().T
        rho /= rho.trace().real
        return fock.FockDensityMatrix(cutoff, 0.5 * (rho + rho.conj().T), trace_tol=1e-9)

    # density-matrix invariants on engineered states
    for rho in (
        fock.thermal(1.35, 30),
        mimic.assemble(mimic.build_codebook(1.0, 4, 4), 30),
        fock.mix([0.5, 0.5], [
            fock.coherent_pure(fock.ComplexAmplitude(1.0), 30).coefficients,
            fock.coherent_pure(fock.ComplexAmplitude(1.0, math.pi), 30).coefficients,
        ]),
    ):
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10
        assert 1.0 - 1e-3 <= rho.trace <= 1.0 + 1e-12

    # fidelity symmetry, self-fidelity, Fuchs-van de Graaff on 50 random pairs
    for _ in range(50):
        a, b = random_density(), random_density()
        f = metrics.fidelity(a, b)
        t = metrics.trace_distance(a, b)
        assert abs(f - metrics.fidelity(b, a)) <= 1e-9
        assert metrics.fidelity(a, a) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - math.sqrt(f) <= t + 1e-8
        assert t <= math.sqrt(max(1.0 - f, 0.0)) + 1e-8

    # quadrature pdf normalization
    for _ in range(5):
        rho = random_density()
        total, _ = quad(lambda x: homodyne.quadrature_pdf(rho, 0.7, x), -14, 14, limit=300)
        assert total == pytest.approx(rho.trace, abs=1e-6)

    # MLE monotone likelihood and per-iteration trace preservation
    data = homodyne.sample(fock.thermal(1.0, 30), PHASES_50, 10, seed=55)
    result = tomo.mle_reconstruct(data, tomo.MleConfig(cutoff=8))
    assert np.diff(result.log_likelihoods).min() >= -1e-8
    for cap in (1, 2, 5):
        partial = tomo.mle_reconstruct(data, tomo.MleConfig(cutoff=8, max_iterations=cap))
        assert partial.rho.trace == pytest.approx(1.0, abs=1e-9)

    # vacuum calibration variance under both conventions
    raw, stats = homodyne.simulate_raw(
        fock.thermal(0.0, 10), PHASES_50, 40, gain=2.5, offset=0.3, seed=60
    )
    var_quarter = homodyne.calibrate(raw, stats, homodyne.Convention.QUARTER).x.var()
    var_half = homodyne.calibrate(raw, stats, homodyne.Convention.HALF).x.var()
    assert var_quarter == pytest.approx(0.25, abs=0.03)
    assert var_half == pytest.approx(0.5, abs=0.05)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(7, ok, f"invariants, metric properties, pdf normalization, MLE monotonicity, "
                  f"calibration variances all hold ({elapsed:.1f} s)")
    assert elapsed < 30.0


def test_criterion_8_physical_layer():
    t0 = time.perf_counter()
    telecom = physical.ModePhysics(wavelength=1560.625e-9, tau=13e-9)
    power = physical.nbar_to_power(1.5, telecom)
    table = physical.codebook_to_drive(
        mimic.build_codebook(1.5, 8, 8), telecom, physical.ModulatorSpec(25.0)
    )
    elapsed = time.perf_counter() - t0
    ok = abs(power - 1.47e-11) / 1.47e-11 <= 0.01 and table.required_db < 25.0 and elapsed < 1.0
    report(8, ok, f"power(nbar=1.5) = {power:.4e} W (target 1.47e-11 +/- 1%), "
                  f"L=8 codebook needs {table.required_db:.2f} dB of 25 dB ({elapsed:.2f} s)")
    assert power == pytest.approx(1.47e-11, rel=0.01)
    assert table.required_db < 25.0
    assert elapsed < 1.0
