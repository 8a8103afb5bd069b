"""Physical-layer translation of codebooks: optical power and modulator drive.

Converts per-symbol mean photon numbers to optical power in a temporal mode
(``P = nbar h f / tau``) and checks that a codebook's intensity dynamic range
fits within an intensity modulator's extinction ratio. Drive levels are
emitted normalized to the strongest symbol rather than as device voltages,
which keeps the table hardware-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mimic import Codebook

#: CODATA value, J*s.
PLANCK = 6.62607015e-34

#: Exact by SI definition, m/s.
SPEED_OF_LIGHT = 299792458.0


class ExtinctionRangeError(ValueError):
    """Codebook needs more intensity dynamic range than the modulator has."""


@dataclass(frozen=True)
class Transmitter:
    """The temporal mode (``wavelength``, duration ``tau``), which sets the
    photon energy scale, and the intensity modulator's dynamic range
    (``extinction_db``); an ``ideal`` modulator permits fully dark symbols."""

    wavelength: float = 1560.625e-9
    tau: float = 13e-9
    extinction_db: float = 25.0
    ideal: bool = False

    def __post_init__(self) -> None:
        for name in ("wavelength", "tau", "extinction_db"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def frequency(self) -> float:
        return SPEED_OF_LIGHT / self.wavelength


def nbar_to_power(nbar: float | np.ndarray, transmitter: Transmitter) -> float | np.ndarray:
    """Optical power in watts carrying ``nbar`` photons per temporal mode;
    elementwise over an array of photon numbers. Raises if a photon number is
    not finite, or if a power overflows to infinity."""
    arr = np.asarray(nbar)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    with np.errstate(over="ignore", invalid="ignore"):
        power = nbar * PLANCK * transmitter.frequency / transmitter.tau
    if not np.all(np.isfinite(power)):
        raise ValueError(
            f"optical power is not finite at wavelength {transmitter.wavelength} m, "
            f"tau {transmitter.tau} s"
        )
    return power


@dataclass(frozen=True, eq=False)
class DriveTable:
    """Per-symbol drive columns; row i is symbol i of ``Codebook.points()``."""

    alpha_sq: np.ndarray
    power_w: np.ndarray
    intensity_level: np.ndarray
    phase_rad: np.ndarray
    required_db: float


def codebook_to_drive(codebook: Codebook, transmitter: Transmitter) -> DriveTable:
    """Per-symbol power and normalized drive level, gated on modulator feasibility.

    Symbols are indexed row-major over (amplitude, phase). Raises if a
    symbol's ``|alpha|^2`` overflows, if no symbol has power (one that
    underflows counts as zero), if the span of nonzero symbol powers exceeds
    the extinction ratio, or if a zero-power symbol appears on a non-ideal
    modulator (it would need infinite extinction).
    """
    magnitudes, phases = codebook.points()
    with np.errstate(over="ignore"):  # the check below names the symbol
        alpha_sq = magnitudes * magnitudes
    overflow = np.isinf(alpha_sq)
    if overflow.any():
        index = int(overflow.argmax())
        raise ValueError(f"symbol {index} has amplitude {magnitudes[index]}, "
                         "whose square |alpha|^2 overflows")
    powers = nbar_to_power(alpha_sq, transmitter)
    nonzero = powers[powers > 0.0]
    if nonzero.size == 0:
        raise ValueError("codebook has no symbol of nonzero power")
    dark = powers == 0.0
    if not transmitter.ideal and dark.any():
        raise ExtinctionRangeError(
            f"symbol {dark.argmax()} has zero power and needs infinite extinction; "
            "only an ideal modulator spec permits dark symbols"
        )

    p_max = nonzero.max()
    required_db = 10.0 * math.log10(p_max / nonzero.min())
    if required_db > transmitter.extinction_db:
        raise ExtinctionRangeError(
            f"codebook needs {required_db:.2f} dB of intensity range but the "
            f"modulator provides {transmitter.extinction_db:.2f} dB"
        )
    return DriveTable(alpha_sq, powers, powers / p_max, phases, required_db)

