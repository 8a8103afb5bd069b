import math

import numpy as np
import pytest

from thermalmimic.mimic import Codebook, Scheme, build_codebook
from thermalmimic.physical import (
    PLANCK,
    SPEED_OF_LIGHT,
    DriveTable,
    ExtinctionRangeError,
    ModePhysics,
    ModulatorSpec,
    codebook_to_drive,
    drive_to_csv,
    nbar_to_power,
)

TELECOM = ModePhysics(wavelength=1560.625e-9, tau=13e-9)


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
    shorter = ModePhysics(wavelength=1560.625e-9, tau=6.5e-9)
    assert nbar_to_power(1.0, shorter) > nbar_to_power(1.0, TELECOM)


def test_physics_validation():
    with pytest.raises(ValueError):
        ModePhysics(wavelength=0.0, tau=1e-9)
    with pytest.raises(ValueError):
        ModePhysics(wavelength=1e-6, tau=0.0)
    with pytest.raises(ValueError):
        ModulatorSpec(extinction_db=0.0)
    with pytest.raises(ValueError):
        nbar_to_power(-1.0, TELECOM)


# ---------------------------------------------------------------------------
# codebook_to_drive
# ---------------------------------------------------------------------------


def stratified_required_db(n_amplitudes: int) -> float:
    # quantile-midpoint oracle: |alpha|^2 ratio between the extreme midpoints
    u_lo = 1.0 / (2 * n_amplitudes)
    u_hi = (2 * n_amplitudes - 1.0) / (2 * n_amplitudes)
    return 10.0 * math.log10(math.log(1.0 - u_hi) / math.log(1.0 - u_lo))


def test_stratified_l8_fits_in_25_db():
    table = codebook_to_drive(build_codebook(1.5, 8, 8), TELECOM, ModulatorSpec(25.0))
    assert table.required_db == pytest.approx(stratified_required_db(8), abs=1e-9)
    assert table.required_db < 25.0
    assert len(table.levels) == 64


def test_single_symbol_codebook_is_trivially_feasible():
    table = codebook_to_drive(build_codebook(1.5, 1, 1), TELECOM, ModulatorSpec(25.0))
    assert table.required_db == 0.0
    assert table.levels[0].intensity_level == 1.0


def test_stratified_l64_exceeds_25_db():
    assert stratified_required_db(64) > 25.0  # oracle first
    with pytest.raises(ExtinctionRangeError, match="dB"):
        codebook_to_drive(build_codebook(1.5, 64, 1), TELECOM, ModulatorSpec(25.0))


def test_extinction_acceptance_is_monotone_in_budget():
    # every codebook below the 20 dB budget must also clear the 25 dB one
    for n_amp in (2, 8, 12):
        assert stratified_required_db(n_amp) < 20.0
        cb = build_codebook(1.0, n_amp, 2)
        codebook_to_drive(cb, TELECOM, ModulatorSpec(20.0))
        codebook_to_drive(cb, TELECOM, ModulatorSpec(25.0))  # must also pass


def test_zero_amplitude_symbol_requires_ideal_modulator():
    # |alpha|^2 = 1e-340 rounds to 0: a nonzero amplitude whose power is zero
    for dark in (0.0, 1e-170):
        cb = Codebook(
            1.0, np.array([dark, 1.0]), np.array([0.5]),
            np.array([[0.5], [0.5]]), Scheme.STRATIFIED,
        )
        with pytest.raises(ExtinctionRangeError, match="symbol 0 has zero power"):
            codebook_to_drive(cb, TELECOM, ModulatorSpec(25.0))
        table = codebook_to_drive(cb, TELECOM, ModulatorSpec(25.0, ideal=True))
        assert table.levels[0].intensity_level == 0.0
        assert table.levels[1].intensity_level == 1.0


def test_all_dark_codebook_is_rejected():
    for dark in (0.0, 1e-170):
        cb = Codebook(1.0, np.array([dark]), np.array([0.0]), np.array([[1.0]]), Scheme.STRATIFIED)
        for spec in (ModulatorSpec(25.0), ModulatorSpec(25.0, ideal=True)):
            with pytest.raises(ValueError, match="no symbol of nonzero power") as excinfo:
                codebook_to_drive(cb, TELECOM, spec)
            assert not isinstance(excinfo.value, ExtinctionRangeError)


def test_drive_levels_round_trip_to_photon_numbers():
    cb = build_codebook(1.5, 8, 8)
    table = codebook_to_drive(cb, TELECOM, ModulatorSpec(25.0))
    p_max = max(lvl.power_w for lvl in table.levels)
    quantum = PLANCK * TELECOM.frequency / TELECOM.tau
    for lvl in table.levels:
        assert lvl.intensity_level * p_max / quantum == pytest.approx(lvl.alpha_sq, rel=1e-12)
        assert lvl.phase_rad == pytest.approx(cb.phases[lvl.index % 8])
        assert lvl.alpha_sq == pytest.approx(cb.amplitudes[lvl.index // 8] ** 2)


def test_drive_csv_header_and_rows():
    table = codebook_to_drive(build_codebook(1.0, 2, 2), TELECOM, ModulatorSpec(25.0))
    lines = drive_to_csv(table).strip().splitlines()
    assert lines[0] == "index,alpha_sq,power_w,intensity_level,phase_rad"
    assert len(lines) == 5
    assert isinstance(table, DriveTable)


def test_points_order_matches_weights_and_drive_table():
    # L != Q, so a points() that swapped the repeat and the tile would not pass
    amplitudes = np.array([0.3, 0.8, 1.4])
    phases = np.array([0.1, 1.2, 2.3, 4.5])
    weights = np.arange(1.0, 13.0).reshape(3, 4) / 78.0
    cb = Codebook(1.0, amplitudes, phases, weights, Scheme.STRATIFIED)
    l, q = np.divmod(np.arange(cb.size), cb.n_phases)  # point i sits at row-major (l, q)
    magnitudes, point_phases = cb.points()
    assert np.array_equal(magnitudes, amplitudes[l])
    assert np.array_equal(point_phases, phases[q])
    assert np.array_equal(cb.weights.ravel(), weights[l, q])
    table = codebook_to_drive(cb, TELECOM, ModulatorSpec(30.0))
    assert [lvl.index for lvl in table.levels] == list(range(cb.size))
    assert [lvl.phase_rad for lvl in table.levels] == phases[q].tolist()
    assert [lvl.alpha_sq for lvl in table.levels] == (amplitudes[l] ** 2).tolist()
