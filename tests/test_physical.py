import math
from dataclasses import replace

import numpy as np
import pytest

from thermalmimic.mimic import Codebook, CodebookSpec, build_codebook
from thermalmimic.physical import (
    PLANCK,
    SPEED_OF_LIGHT,
    ExtinctionRangeError,
    Transmitter,
    codebook_to_drive,
    nbar_to_power,
)

TELECOM = Transmitter(wavelength=1560.625e-9, tau=13e-9, extinction_db=25.0)
IDEAL = replace(TELECOM, ideal=True)


def test_zero_photons_is_zero_power():
    assert nbar_to_power(0.0, TELECOM) == 0.0


def test_power_for_telecom_mode_matches_oracle():
    got = nbar_to_power(1.5, TELECOM)
    oracle = 1.5 * PLANCK * (SPEED_OF_LIGHT / 1560.625e-9) / 13e-9
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.47e-11, rel=0.01)


def test_power_is_linear_in_nbar():
    assert nbar_to_power(3.0, TELECOM) == pytest.approx(2.0 * nbar_to_power(1.5, TELECOM), rel=1e-15)


def test_power_increases_with_nbar_and_shorter_mode():
    assert nbar_to_power(2.0, TELECOM) > nbar_to_power(1.0, TELECOM)
    shorter = replace(TELECOM, tau=6.5e-9)
    assert nbar_to_power(1.0, shorter) > nbar_to_power(1.0, TELECOM)


def test_physics_validation():
    with pytest.raises(ValueError):
        Transmitter(wavelength=0.0, tau=1e-9)
    with pytest.raises(ValueError):
        Transmitter(wavelength=1e-6, tau=0.0)
    with pytest.raises(ValueError):
        Transmitter(extinction_db=0.0)
    with pytest.raises(ValueError, match="nbar must be finite and >= 0, got -1.0"):
        nbar_to_power(-1.0, TELECOM)
    # a non-finite photon number is the argument's fault, not the transmitter's
    for nbar in (math.nan, math.inf, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="nbar must be finite and >= 0"):
            nbar_to_power(nbar, TELECOM)
    # a finite photon number whose power overflows names the transmitter
    with pytest.raises(ValueError, match="optical power is not finite at wavelength 1e-300 m"):
        nbar_to_power(1.0, Transmitter(wavelength=1e-300, tau=1e-9))
    # NaN fails every comparison, so a "<= 0" check alone would let it through
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="wavelength must be finite"):
            Transmitter(wavelength=bad, tau=1e-9)
        with pytest.raises(ValueError, match="tau must be finite"):
            Transmitter(wavelength=1e-6, tau=bad)
        with pytest.raises(ValueError, match="extinction_db must be finite"):
            Transmitter(extinction_db=bad)


# ---------------------------------------------------------------------------
# codebook_to_drive
# ---------------------------------------------------------------------------


def stratified_required_db(n_amplitudes: int) -> float:
    # quantile-midpoint oracle: |alpha|^2 ratio between the extreme midpoints
    u_lo = 1.0 / (2 * n_amplitudes)
    u_hi = (2 * n_amplitudes - 1.0) / (2 * n_amplitudes)
    return 10.0 * math.log10(math.log(1.0 - u_hi) / math.log(1.0 - u_lo))


def test_stratified_l8_fits_in_25_db():
    table = codebook_to_drive(build_codebook(CodebookSpec(1.5, 8, 8)), TELECOM)
    assert table.required_db == pytest.approx(stratified_required_db(8), abs=1e-9)
    assert table.required_db < 25.0
    assert table.power_w.shape == (64,)


def test_single_symbol_codebook_is_trivially_feasible():
    table = codebook_to_drive(build_codebook(CodebookSpec(1.5, 1, 1)), TELECOM)
    assert table.required_db == 0.0
    assert table.intensity_level.tolist() == [1.0]


def test_stratified_l64_exceeds_25_db():
    assert stratified_required_db(64) > 25.0  # oracle first
    with pytest.raises(ExtinctionRangeError, match="dB"):
        codebook_to_drive(build_codebook(CodebookSpec(1.5, 64, 1)), TELECOM)


def test_extinction_acceptance_is_monotone_in_budget():
    # every codebook below the 20 dB budget must also clear the 25 dB one
    for n_amp in (2, 8, 12):
        assert stratified_required_db(n_amp) < 20.0
        cb = build_codebook(CodebookSpec(1.0, n_amp, 2))
        codebook_to_drive(cb, replace(TELECOM, extinction_db=20.0))
        codebook_to_drive(cb, TELECOM)  # must also pass


def test_zero_amplitude_symbol_requires_ideal_modulator():
    # |alpha|^2 = 1e-340 rounds to 0: a nonzero amplitude whose power is zero
    for dark in (0.0, 1e-170):
        cb = Codebook(np.array([dark, 1.0]), np.array([0.5]), np.array([[0.5], [0.5]]))
        with pytest.raises(ExtinctionRangeError, match="symbol 0 has zero power"):
            codebook_to_drive(cb, TELECOM)
        table = codebook_to_drive(cb, IDEAL)
        assert table.intensity_level.tolist() == [0.0, 1.0]
    # L != Q: the error names the row-major symbol index, not the amplitude index
    cb = Codebook(np.array([1.0, 0.0]), np.array([0.5, 2.0]), np.full((2, 2), 0.25))
    with pytest.raises(ExtinctionRangeError, match="symbol 2 has zero power"):
        codebook_to_drive(cb, TELECOM)
    table = codebook_to_drive(cb, IDEAL)
    assert table.intensity_level.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_all_dark_codebook_is_rejected():
    for dark in (0.0, 1e-170):
        cb = Codebook(np.array([dark]), np.array([0.0]), np.array([[1.0]]))
        for transmitter in (TELECOM, IDEAL):
            with pytest.raises(ValueError, match="no symbol of nonzero power") as excinfo:
                codebook_to_drive(cb, transmitter)
            assert not isinstance(excinfo.value, ExtinctionRangeError)


def test_drive_levels_round_trip_to_photon_numbers():
    cb = build_codebook(CodebookSpec(1.5, 8, 8))
    table = codebook_to_drive(cb, TELECOM)
    p_max = table.power_w.max()
    quantum = PLANCK * TELECOM.frequency / TELECOM.tau
    for i in range(64):
        photons = table.intensity_level[i] * p_max / quantum
        assert photons == pytest.approx(table.alpha_sq[i], rel=1e-12)
        assert table.phase_rad[i] == pytest.approx(cb.phases[i % 8])
        assert table.alpha_sq[i] == pytest.approx(cb.amplitudes[i // 8] ** 2)


def test_points_order_matches_weights_and_drive_table():
    # L != Q, so a points() that swapped the repeat and the tile would not pass
    amplitudes = np.array([0.3, 0.8, 1.4])
    phases = np.array([0.1, 1.2, 2.3, 4.5])
    weights = np.arange(1.0, 13.0).reshape(3, 4) / 78.0
    cb = Codebook(amplitudes, phases, weights)
    l, q = np.divmod(np.arange(12), 4)  # point i sits at row-major (l, q)
    magnitudes, point_phases = cb.points()
    assert np.array_equal(magnitudes, amplitudes[l])
    assert np.array_equal(point_phases, phases[q])
    assert np.array_equal(cb.weights.ravel(), weights[l, q])
    table = codebook_to_drive(cb, replace(TELECOM, extinction_db=30.0))
    assert table.phase_rad.tolist() == phases[q].tolist()
    assert table.alpha_sq.tolist() == (amplitudes[l] ** 2).tolist()
