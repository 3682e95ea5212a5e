"""Polariton spectrum of a dispersive slab in a closed planar cavity.

Four independent solver routes (dynamical matrix, secular determinant,
few-exciton closed forms, Green-function matching) plus the classical
transcendental relation they all converge to, with Kramers-Kronig tools
for the susceptibility side.
"""

from .errors import (BracketError, BranchMatchError, ConfigError,
                     ConvergenceError, DimensionError, EvanescentError,
                     GeometryError, GridError, NormalizationError, ParseError,
                     PoleError, PolspError, QuadratureError, SolverError,
                     SpeciesError, TruncatedSpectrumWarning, TruncationError)
from .model import (METHODS, CavityConfig, OscillatorSpecies, SolverSettings,
                    validate)
from .modes import (ExcitonMode, OverlapSet, PhotonMode, classical_D,
                    exciton_parity_even, overlap_K, photon_frequencies,
                    photon_parity_even, sine_half_integral)
from .hopfield import (DynamicalMatrix, PolaritonMode, build_dynamical_matrix,
                       diagonalize, spectrum)
from .dispersion import (DispersionCurve, SecularOperator,
                         classical_branch_values, classical_roots,
                         cosine_solution, green_determinant,
                         green_matching_matrix, green_roots,
                         one_exciton_roots, one_exciton_value,
                         pole_free_segments, scan_roots, secular_roots,
                         sine_solution, sweep, two_exciton_roots,
                         two_exciton_value)
from .kk import (KKResult, LorentzSet, SampledSusceptibility, kk_forward,
                 kk_inverse, load_samples, save_samples, species_from_grid)

__version__ = "0.1.0"

__all__ = [
    "METHODS", "CavityConfig", "OscillatorSpecies", "SolverSettings",
    "validate",
    "PhotonMode", "ExcitonMode", "OverlapSet", "overlap_K", "classical_D",
    "photon_frequencies", "photon_parity_even",
    "exciton_parity_even", "sine_half_integral",
    "DynamicalMatrix", "PolaritonMode", "build_dynamical_matrix",
    "diagonalize", "spectrum",
    "SecularOperator", "DispersionCurve", "secular_roots",
    "one_exciton_roots", "one_exciton_value", "two_exciton_roots",
    "two_exciton_value", "green_matching_matrix", "green_determinant",
    "green_roots", "classical_branch_values", "classical_roots", "sweep",
    "scan_roots", "pole_free_segments", "cosine_solution", "sine_solution",
    "LorentzSet", "SampledSusceptibility", "KKResult",
    "kk_forward", "kk_inverse", "species_from_grid", "load_samples",
    "save_samples",
    "PolspError", "ConfigError", "GeometryError", "SpeciesError",
    "TruncationError", "ParseError", "GridError", "SolverError",
    "DimensionError", "NormalizationError", "ConvergenceError",
    "BracketError", "EvanescentError", "PoleError", "QuadratureError",
    "BranchMatchError", "TruncatedSpectrumWarning",
]
