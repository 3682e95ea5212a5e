"""Polariton spectrum of a dispersive slab in a closed planar cavity.

Four independent solver routes (dynamical matrix, secular determinant,
few-exciton closed forms, Green-function matching) plus the classical
transcendental relation they all converge to, with Kramers-Kronig tools
for the susceptibility side.

The namespace is lazy (PEP 562): ``import polsp`` loads no submodule, and
each public name imports its defining module the first time it is read,
so ``from polsp import kk_forward`` loads ``kk`` but no solver route.
Every name is looked up in its module at each read, never copied here,
so ``polsp.X is polsp.<module>.X`` always holds.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports; __all__ and the lookup
# below are both read from this one table
_EXPORTS = {
    "model": ("METHODS", "CavityConfig", "OscillatorSpecies", "SolverSettings",
              "validate"),
    "modes": ("PhotonMode", "ExcitonMode", "OverlapSet", "overlap_K",
              "classical_D", "photon_frequencies", "photon_parity_even",
              "exciton_parity_even", "sine_half_integral"),
    "hopfield": ("DynamicalMatrix", "PolaritonMode", "build_dynamical_matrix",
                 "diagonalize", "spectrum"),
    "dispersion": ("SecularOperator", "DispersionCurve", "secular_roots",
                   "one_exciton_roots", "one_exciton_value",
                   "two_exciton_roots", "two_exciton_value",
                   "green_matching_matrix", "green_determinant", "green_roots",
                   "classical_branch_values", "classical_roots", "sweep",
                   "scan_roots", "pole_free_segments", "cosine_solution",
                   "sine_solution"),
    "kk": ("LorentzSet", "SampledSusceptibility", "KKResult", "kk_forward",
           "kk_inverse", "species_from_grid", "load_samples", "save_samples"),
    "errors": ("PolspError", "ConfigError", "GeometryError", "SpeciesError",
               "TruncationError", "ParseError", "GridError", "SolverError",
               "DimensionError", "NormalizationError", "ConvergenceError",
               "BracketError", "PoleError", "QuadratureError",
               "BranchMatchError", "TruncatedSpectrumWarning"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
