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

from .mimic import Codebook

#: CODATA value, J*s.
PLANCK = 6.62607015e-34

#: Exact by SI definition, m/s.
SPEED_OF_LIGHT = 299792458.0


class ExtinctionRangeError(ValueError):
    """Codebook needs more intensity dynamic range than the modulator has."""


@dataclass(frozen=True)
class ModePhysics:
    """Wavelength and temporal-mode duration defining the photon energy scale."""

    wavelength: float
    tau: float

    def __post_init__(self) -> None:
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")

    @property
    def frequency(self) -> float:
        return SPEED_OF_LIGHT / self.wavelength


@dataclass(frozen=True)
class ModulatorSpec:
    """Intensity-modulator dynamic range; ``ideal`` permits fully dark symbols."""

    extinction_db: float
    ideal: bool = False

    def __post_init__(self) -> None:
        if self.extinction_db <= 0.0:
            raise ValueError(f"extinction_db must be > 0, got {self.extinction_db}")


def nbar_to_power(nbar: float, physics: ModePhysics) -> float:
    """Optical power in watts carrying ``nbar`` photons per temporal mode."""
    if nbar < 0.0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    return nbar * PLANCK * physics.frequency / physics.tau


@dataclass(frozen=True)
class DriveLevel:
    index: int
    alpha_sq: float
    power_w: float
    intensity_level: float
    phase_rad: float


@dataclass(frozen=True)
class DriveTable:
    levels: tuple[DriveLevel, ...]
    required_db: float


def codebook_to_drive(
    codebook: Codebook, physics: ModePhysics, spec: ModulatorSpec
) -> DriveTable:
    """Per-symbol power and normalized drive level, gated on modulator feasibility.

    Symbols are indexed row-major over (amplitude, phase). Raises if the span
    of nonzero symbol powers exceeds the extinction ratio, or if a
    zero-amplitude symbol appears on a non-ideal modulator (it would need
    infinite extinction).
    """
    amplitudes = codebook.amplitudes
    if not any(a > 0.0 for a in amplitudes):
        raise ValueError("codebook has no nonzero-amplitude symbol")

    symbols = [
        (l * codebook.n_phases + q, float(a), float(phase))
        for l, a in enumerate(amplitudes)
        for q, phase in enumerate(codebook.phases)
    ]
    if not spec.ideal:
        dark = [idx for idx, a, _ in symbols if a == 0.0]
        if dark:
            raise ExtinctionRangeError(
                f"symbol {dark[0]} has zero amplitude and needs infinite extinction; "
                "only an ideal modulator spec permits dark symbols"
            )

    powers = {idx: nbar_to_power(a * a, physics) for idx, a, _ in symbols}
    nonzero = [p for p in powers.values() if p > 0.0]
    required_db = 10.0 * math.log10(max(nonzero) / min(nonzero))
    if required_db > spec.extinction_db:
        raise ExtinctionRangeError(
            f"codebook needs {required_db:.2f} dB of intensity range but the "
            f"modulator provides {spec.extinction_db:.2f} dB"
        )

    p_max = max(nonzero)
    levels = tuple(
        DriveLevel(idx, a * a, powers[idx], powers[idx] / p_max, phase)
        for idx, a, phase in symbols
    )
    return DriveTable(levels, required_db)


def drive_to_csv(table: DriveTable) -> str:
    lines = ["index,alpha_sq,power_w,intensity_level,phase_rad"]
    for lvl in table.levels:
        lines.append(
            f"{lvl.index},{lvl.alpha_sq:.17g},{lvl.power_w:.17g},"
            f"{lvl.intensity_level:.17g},{lvl.phase_rad:.17g}"
        )
    return "\n".join(lines) + "\n"
