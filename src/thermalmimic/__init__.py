"""Engineer coherent-state mixtures that mimic thermal light, verify them with
simulated homodyne tomography, and score the mimicry with quantum-information
metrics."""

__version__ = "0.1.0"

from .fock import (
    ComplexAmplitude,
    CutoffMismatchError,
    FockDensityMatrix,
    PureStateVector,
    TruncationError,
    coherent_pure,
    coherent_states,
    mean_photon,
    mix,
    normalize,
    purity,
    thermal,
)
from .homodyne import (
    CalibrationStats,
    Convention,
    ConventionError,
    QuadratureDataset,
    RawDataset,
    calibrate,
    convert,
    quadrature_pdf,
    sample,
    simulate_raw,
)
from .metrics import (
    NotPositiveSemidefiniteError,
    compare,
    fidelity,
    helstrom_error,
    nbar_for_entropy,
    thermal_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .mimic import (
    Codebook,
    Scheme,
    SingularDesignError,
    assemble,
    build_codebook,
    optimize_weights,
    rayleigh_quantile,
    sweep_fidelity,
)
from .physical import (
    ExtinctionRangeError,
    ModePhysics,
    ModulatorSpec,
    codebook_to_drive,
    nbar_to_power,
)
from .tomo import (
    MleConfig,
    MleResult,
    ReconstructionEnsemble,
    average,
    log_likelihood,
    mle_reconstruct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
