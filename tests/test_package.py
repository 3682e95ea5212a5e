"""The package namespace: every public name, resolved on first use."""

from __future__ import annotations

from importlib import import_module

import pytest

import polsp

# the public names, written out so that a change to the set is a visible
# change to this test
PUBLIC_NAMES = {
    "METHODS", "CavityConfig", "OscillatorSpecies", "SolverSettings", "validate",
    "PhotonMode", "ExcitonMode", "OverlapSet", "overlap_K", "classical_D",
    "photon_frequencies", "photon_parity_even", "exciton_parity_even",
    "sine_half_integral",
    "DynamicalMatrix", "PolaritonMode", "build_dynamical_matrix", "diagonalize",
    "spectrum",
    "SecularOperator", "DispersionCurve", "secular_roots", "one_exciton_roots",
    "one_exciton_value", "two_exciton_roots", "two_exciton_value",
    "green_matching_matrix", "green_determinant", "green_roots",
    "classical_branch_values", "classical_roots", "sweep", "scan_roots",
    "pole_free_segments", "cosine_solution", "sine_solution",
    "LorentzSet", "SampledSusceptibility", "KKResult", "kk_forward", "kk_inverse",
    "species_from_grid", "load_samples", "save_samples",
    "PolspError", "ConfigError", "GeometryError", "SpeciesError",
    "TruncationError", "ParseError", "GridError", "SolverError",
    "DimensionError", "NormalizationError", "ConvergenceError", "BracketError",
    "PoleError", "QuadratureError", "BranchMatchError",
    "TruncatedSpectrumWarning",
}


def test_public_names_are_unchanged():
    assert len(polsp.__all__) == len(set(polsp.__all__))
    assert set(polsp.__all__) == PUBLIC_NAMES


def test_each_name_is_its_defining_modules_object():
    for name in polsp.__all__:
        value = getattr(polsp, name)
        # METHODS, a plain tuple, is the one name without a __module__
        home = getattr(value, "__module__", "polsp.model")
        assert home.startswith("polsp."), (name, home)
        assert value is getattr(import_module(home), name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from polsp import *", namespace)
    assert set(polsp.__all__) <= namespace.keys()
    for name in polsp.__all__:
        assert namespace[name] is getattr(polsp, name)


def test_dir_lists_every_public_name():
    assert set(polsp.__all__) <= set(dir(polsp))
    assert "__version__" in dir(polsp)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polsp.no_such_name  # noqa: B018
    assert not hasattr(polsp, "chi_prime")
    with pytest.raises(ImportError):
        exec("from polsp import no_such_name", {})
