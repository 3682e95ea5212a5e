"""Config invariants and the validation taxonomy."""

from __future__ import annotations

import math

import pytest

from polsp import (ConfigError, GeometryError, SpeciesError,
                   TransverseWavenumber, TruncationError, validate)
from conftest import make_config


def test_validate_returns_config_unchanged():
    cfg = make_config()
    assert validate(cfg) is cfg
    assert validate(validate(cfg)) is cfg


def test_geometry_errors():
    with pytest.raises(GeometryError):
        validate(make_config(L=0.0))
    with pytest.raises(GeometryError):
        validate(make_config(l=0.0))
    with pytest.raises(GeometryError):
        validate(make_config(L=1.0, l=1.5))
    with pytest.raises(GeometryError):
        validate(make_config(c=-1.0))
    # non-finite values must not slip through the comparisons
    for bad in ({"L": math.inf}, {"L": math.inf, "l": math.inf},
                {"c": math.inf}, {"c": math.nan}):
        with pytest.raises(GeometryError):
            validate(make_config(**bad))


def test_slab_filling_cavity_is_legal():
    validate(make_config(L=1.0, l=1.0))


def test_species_errors():
    with pytest.raises(SpeciesError):
        validate(make_config(species=()))
    with pytest.raises(SpeciesError):
        validate(make_config(species=((0.0, 1.0),)))
    with pytest.raises(SpeciesError):
        validate(make_config(species=((4.0, -0.5),)))
    for bad in ((math.inf, 1.0), (4.0, math.inf), (math.nan, 1.0), (4.0, math.nan)):
        with pytest.raises(SpeciesError):
            validate(make_config(species=(bad,)))


def test_zero_coupling_is_legal():
    # the decoupling limit must be representable
    validate(make_config(species=((4.0, 0.0),)))


def test_truncation_errors():
    with pytest.raises(TruncationError):
        validate(make_config(photon=0))
    with pytest.raises(TruncationError):
        validate(make_config(exciton=-1))


def test_solver_setting_errors():
    with pytest.raises(ConfigError):
        validate(make_config(method="shooting"))
    with pytest.raises(ConfigError):
        validate(make_config(root_tol=0.0))
    with pytest.raises(ConfigError):
        validate(make_config(pole_exclusion=-1e-6))
    with pytest.raises(ConfigError):
        validate(make_config(scan_points=1))
    with pytest.raises(ConfigError):
        validate(make_config(omega_max=0.0))
    for key in ("root_tol", "pole_exclusion", "omega_max"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError):
                validate(make_config(**{key: bad}))


def test_with_truncation_copies():
    cfg = make_config(photon=8, exciton=2)
    other = cfg.with_truncation(photon_mode_count=16)
    assert other.photon_mode_count == 16
    assert other.exciton_mode_count == 2
    assert cfg.photon_mode_count == 8
    both = cfg.with_truncation(photon_mode_count=4, exciton_mode_count=7)
    assert (both.photon_mode_count, both.exciton_mode_count) == (4, 7)


def test_species_count():
    cfg = make_config(species=((4.0, 1.0), (6.0, 0.5)))
    assert cfg.species_count() == 2


def test_transverse_wavenumber():
    assert float(TransverseWavenumber(1.5)) == 1.5
    assert float(TransverseWavenumber(0.0)) == 0.0
    with pytest.raises(ConfigError):
        TransverseWavenumber(-0.1)
    with pytest.raises(ConfigError):
        TransverseWavenumber(float("nan"))


def test_config_is_frozen():
    cfg = make_config()
    with pytest.raises(AttributeError):
        cfg.L = 2.0
    with pytest.raises(AttributeError):
        cfg.solver.root_tol = 1.0
    with pytest.raises(AttributeError):
        cfg.oscillators[0].G = 2.0
