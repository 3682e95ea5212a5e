"""Config invariants and the validation taxonomy."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from polsp import (CavityConfig, ConfigError, GeometryError, OscillatorSpecies,
                   SolverSettings, SpeciesError, TruncationError, validate)
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
                {"c": math.inf}, {"c": math.nan},
                # lengths must be real numbers, and a bool is not one
                {"L": "1.0"}, {"l": "0.5"}, {"c": True}, {"L": True, "l": True}):
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
    for bad in ((math.inf, 1.0), (4.0, math.inf), (math.nan, 1.0), (4.0, math.nan),
                ("4.0", 1.0), (4.0, "1.0"), (True, 1.0), (4.0, True)):
        with pytest.raises(SpeciesError):
            validate(make_config(species=(bad,)))
    # every entry must be a species, not a bare (omega, G) pair
    with pytest.raises(SpeciesError):
        CavityConfig(L=1.0, l=0.5, oscillators=((4.0, 1.0),))
    # a list that is not iterable at all
    for bad in (None, 5):
        with pytest.raises(SpeciesError, match="sequence of OscillatorSpecies"):
            CavityConfig(L=1.0, l=0.5, oscillators=bad)


@pytest.mark.parametrize("species, field", [((4.0, 1.0e200), "G"), ((1.0e200, 1.0), "omega"),
                                            ((10 ** 400, 1.0), "omega")])
def test_species_whose_square_overflows_are_refused(species, field):
    # every route squares omega and G, which overflowed to a bare
    # OverflowError before; the field is named
    with pytest.raises(SpeciesError, match=rf"oscillators\[0\]\.{field} .* finite square"):
        make_config(species=(species,))
    validate(make_config(species=((1.0e154, 1.0e154),)))


@pytest.mark.parametrize("c", [1.0e-200, 1.0e200])
def test_light_speed_whose_square_or_inverse_square_overflows_is_refused(c):
    with pytest.raises(GeometryError, match="light speed"):
        make_config(c=c)
    validate(make_config(c=1.0e-150))
    validate(make_config(c=1.0e150))


def test_zero_coupling_is_legal():
    # the decoupling limit must be representable
    validate(make_config(species=((4.0, 0.0),)))


def test_truncation_errors():
    with pytest.raises(TruncationError):
        validate(make_config(photon=0))
    with pytest.raises(TruncationError):
        validate(make_config(exciton=-1))
    for bad in ({"photon": 2.5}, {"exciton": 2.0}, {"photon": "8"},
                {"photon": True}, {"exciton": np.bool_(True)}):
        with pytest.raises(TruncationError):
            validate(make_config(**bad))
    # numpy integers are integers
    cfg = make_config(photon=np.int64(8), exciton=np.int32(2))
    assert (cfg.photon_mode_count, cfg.exciton_mode_count) == (8, 2)


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
        for bad in (math.inf, math.nan, "1e-3", True):
            with pytest.raises(ConfigError):
                validate(make_config(**{key: bad}))
    for bad in (100.5, 400.0, "400", True):
        with pytest.raises(ConfigError):
            validate(make_config(scan_points=bad))
    with pytest.raises(ConfigError):
        replace(make_config(), solver=None)


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


@pytest.mark.parametrize("kwargs,error", [
    ({"L": 0.0}, GeometryError),
    ({"species": ()}, SpeciesError),
    ({"exciton": 0}, TruncationError),
    ({"scan_points": 1}, ConfigError),
], ids=["geometry", "species", "truncation", "solver"])
def test_construction_validates(kwargs, error):
    # no validate call: building the config is enough to raise
    with pytest.raises(error):
        make_config(**kwargs)


def test_copies_validate():
    cfg = make_config()
    with pytest.raises(GeometryError):
        replace(cfg, l=2.0)
    with pytest.raises(SpeciesError):
        replace(cfg, oscillators=(OscillatorSpecies(omega=-1.0, G=1.0),))
    with pytest.raises(ConfigError):
        replace(cfg, solver=SolverSettings(method="shooting"))
    with pytest.raises(TruncationError):
        cfg.with_truncation(photon_mode_count=0)
    with pytest.raises(TruncationError):
        cfg.with_truncation(exciton_mode_count=0)


def test_species_list_is_stored_as_tuple():
    species = [OscillatorSpecies(omega=4.0, G=1.0)]
    cfg = CavityConfig(L=1.0, l=0.5, oscillators=species)
    assert cfg.oscillators == (OscillatorSpecies(omega=4.0, G=1.0),)
    assert isinstance(cfg.oscillators, tuple)
    # a species appended to the caller's list never reaches the config
    species.append(OscillatorSpecies(omega=-1.0, G=1.0))
    assert len(cfg.oscillators) == 1


def test_config_is_frozen():
    cfg = make_config()
    with pytest.raises(AttributeError):
        cfg.L = 2.0
    with pytest.raises(AttributeError):
        cfg.solver.root_tol = 1.0
    with pytest.raises(AttributeError):
        cfg.oscillators[0].G = 2.0
