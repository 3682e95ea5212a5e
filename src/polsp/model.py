"""Domain types, configuration, and validation shared by all solvers.

Conventions fixed here and assumed everywhere else:

* natural units with hbar = 1; eigenfrequencies never depend on hbar,
* s-polarization only, so fields are scalars,
* the in-plane wave vector enters only through its magnitude q >= 0,
* the cavity occupies |z| <= L/2 with perfect mirrors, the slab |z| <= l/2.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from .errors import ConfigError, GeometryError, SpeciesError, TruncationError

#: Solver methods accepted by SolverSettings.method.
METHODS = ("dynamical", "secular", "green", "one_exciton", "two_exciton", "classical")


@dataclass(frozen=True)
class OscillatorSpecies:
    """One matter-oscillator species.

    Parameters
    ----------
    omega : float
        Resonance frequency (rad/time), strictly positive.
    G : float
        Effective light-matter coupling (rad/time).  Zero is allowed and
        means the species is transparent; the decoupling limit is exercised
        by tests and must validate.
    """

    omega: float
    G: float


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs for the frequency-domain root searches.

    Parameters
    ----------
    method : str
        One of ``METHODS``; which solver the CLI dispatches to.
    root_tol : float
        Relative tolerance of bisection refinement.
    pole_exclusion : float
        Half-width (rad/time) of the neighborhood excluded around every
        pole of a secular or transcendental function.
    scan_points : int
        Samples per pole-free subinterval in the classical sign scan, the
        only route that reads it; the counted secular, closed-form and
        Green routes do not.
    omega_max : float
        Upper edge of the default search window (rad/time).
    """

    method: str = "dynamical"
    root_tol: float = 1e-10
    pole_exclusion: float = 1e-6
    scan_points: int = 400
    omega_max: float = 50.0


@dataclass(frozen=True)
class CavityConfig:
    """Full problem statement: geometry, matter content, truncations, solver.

    Construction validates (see ``validate``), and so does every copy made
    by ``dataclasses.replace`` or ``with_truncation``: a CavityConfig that
    exists is a valid one.

    Parameters
    ----------
    L : float
        Cavity length.
    l : float
        Slab thickness, 0 < l <= L.
    c : float
        Vacuum light speed; free parameter so dimensionful checks stay
        possible (default 1).
    oscillators : tuple of OscillatorSpecies
        Non-empty sequence of independent matter species, stored as a tuple;
        anything that is not iterable raises SpeciesError.
    photon_mode_count : int
        Photon basis truncation N >= 1.
    exciton_mode_count : int
        Matter basis truncation per species, Xi >= 1.
    solver : SolverSettings
    """

    L: float
    l: float
    c: float = 1.0
    oscillators: tuple[OscillatorSpecies, ...] = ()
    photon_mode_count: int = 1
    exciton_mode_count: int = 1
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        if not isinstance(self.oscillators, Iterable):
            raise SpeciesError("oscillators must be a sequence of OscillatorSpecies, "
                               f"got {self.oscillators!r}")
        # a tuple, so no species can be added once the config has validated
        object.__setattr__(self, "oscillators", tuple(self.oscillators))
        validate(self)

    def species_count(self) -> int:
        return len(self.oscillators)

    def with_truncation(self, photon_mode_count: int | None = None,
                        exciton_mode_count: int | None = None) -> CavityConfig:
        """Copy with replaced truncation counts (convergence studies)."""
        out = self
        if photon_mode_count is not None:
            out = replace(out, photon_mode_count=photon_mode_count)
        if exciton_mode_count is not None:
            out = replace(out, exciton_mode_count=exciton_mode_count)
        return out


def _real(value) -> bool:
    # a real number; bool is an int subclass but never a length or a rate
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    # an integer, numpy's included, that is not a bool
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite_square(value) -> bool:
    # value squared is a finite float, as the routes square omega, G, c and 1/c
    try:
        return math.isfinite(float(value) ** 2)
    except OverflowError:
        return False


def check_scan_points(value) -> None:
    """ConfigError unless value is an integer >= 2, as a sign scan needs."""
    if not (_integer(value) and value >= 2):
        raise ConfigError(f"scan_points must be an integer >= 2, got {value!r}")


def check_positive(name: str, value) -> None:
    """ConfigError unless value is a real number in (0, inf)."""
    if not (_real(value) and 0.0 < value < math.inf):
        raise ConfigError(f"{name} must be > 0 and finite, got {value!r}")


def validate(config: CavityConfig) -> CavityConfig:
    """Check every type invariant; return the config unchanged if all hold.

    Idempotent.  Construction calls this (CavityConfig.__post_init__), so
    an invalid config fails with the same error taxonomy before any
    operation sees it.  A bool is neither a real number nor an integer here.

    Raises
    ------
    GeometryError
        Nonpositive, non-finite or non-real lengths, l > L, or c not a real
        > 0 with c^2 and 1/c^2 finite.
    SpeciesError
        Empty species list, an entry that is not an OscillatorSpecies,
        omega not a real > 0 or G not a real >= 0, each with a finite square.
    TruncationError
        photon_mode_count or exciton_mode_count not an integer >= 1.
    ConfigError
        A solver that is not a SolverSettings, or settings of the wrong
        type, out of range or non-finite.
    """
    if not (_real(config.L) and 0.0 < config.L < math.inf):
        raise GeometryError(f"cavity length must be positive and finite, got L={config.L}")
    if not (_real(config.l) and 0.0 < config.l <= config.L):
        raise GeometryError(f"slab thickness must satisfy 0 < l <= L, got l={config.l}, L={config.L}")
    if not (_real(config.c) and config.c > 0.0 and _finite_square(max(config.c, 1 / config.c))):
        raise GeometryError(f"light speed must be > 0 with finite c^2 and 1/c^2, got c={config.c}")

    if len(config.oscillators) == 0:
        raise SpeciesError("at least one oscillator species is required")
    for k, sp in enumerate(config.oscillators):
        if not isinstance(sp, OscillatorSpecies):
            raise SpeciesError(f"oscillators[{k}] must be an OscillatorSpecies, got {sp!r}")
        if not (_real(sp.omega) and sp.omega > 0.0 and _finite_square(sp.omega)):
            raise SpeciesError(f"oscillators[{k}].omega must be > 0 with a finite square, "
                               f"got {sp.omega}")
        if not (_real(sp.G) and sp.G >= 0.0 and _finite_square(sp.G)):
            raise SpeciesError(f"oscillators[{k}].G must be >= 0 with a finite square, got {sp.G}")

    for name in ("photon_mode_count", "exciton_mode_count"):
        count = getattr(config, name)
        if not (_integer(count) and count >= 1):
            raise TruncationError(f"{name} must be an integer >= 1, got {count!r}")

    s = config.solver
    if not isinstance(s, SolverSettings):
        raise ConfigError(f"solver must be a SolverSettings, got {s!r}")
    if s.method not in METHODS:
        raise ConfigError(f"unknown solver method {s.method!r}; expected one of {METHODS}")
    for name in ("root_tol", "pole_exclusion", "omega_max"):
        check_positive(name, getattr(s, name))
    check_scan_points(s.scan_points)
    return config


def transverse_wavenumber(q) -> float:
    """The in-plane wavenumber q as a float; ConfigError unless q >= 0 with q^2 finite."""
    qv = float(q)
    if not (qv >= 0.0 and _finite_square(qv)):
        raise ConfigError(f"transverse wavenumber must be >= 0 with a finite square, got q={qv}")
    return qv
