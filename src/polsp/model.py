"""Domain types, configuration, and validation shared by all solvers.

Conventions fixed here and assumed everywhere else:

* natural units with hbar = 1; eigenfrequencies never depend on hbar,
* s-polarization only, so fields are scalars,
* the in-plane wave vector enters only through its magnitude q >= 0,
* the cavity occupies |z| <= L/2 with perfect mirrors, the slab |z| <= l/2.
"""

from __future__ import annotations

import math
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
        Number of samples per pole-free subinterval in the sign-change scan.
    omega_max : float
        Upper edge of the default search window (rad/time).
    allow_evanescent : bool
        Enable the hyperbolic continuation for q > Omega/c.  Off by
        default; the propagating-wave formulas are the ones the model
        guarantees, the continuation is an extension.
    """

    method: str = "dynamical"
    root_tol: float = 1e-10
    pole_exclusion: float = 1e-6
    scan_points: int = 400
    omega_max: float = 50.0
    allow_evanescent: bool = False


@dataclass(frozen=True)
class TransverseWavenumber:
    """Magnitude of the in-plane wave vector (rad/length)."""

    q: float

    def __post_init__(self) -> None:
        if not (self.q >= 0.0):
            raise ConfigError(f"transverse wavenumber must be >= 0, got {self.q}")

    def __float__(self) -> float:
        return float(self.q)


@dataclass(frozen=True)
class CavityConfig:
    """Full problem statement: geometry, matter content, truncations, solver.

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
        Non-empty list of independent matter species.
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


def validate(config: CavityConfig) -> CavityConfig:
    """Check every type invariant; return the config unchanged if all hold.

    Idempotent by construction.  Every solver entry point calls this, so an
    invalid config fails with the same error taxonomy no matter which
    operation sees it first.

    Raises
    ------
    GeometryError
        Nonpositive or non-finite lengths, l > L, or c not in (0, inf).
    SpeciesError
        Empty species list, omega not in (0, inf), or G not in [0, inf).
    TruncationError
        photon_mode_count or exciton_mode_count below 1.
    ConfigError
        Solver settings out of range or non-finite.
    """
    if not (0.0 < config.L < math.inf):
        raise GeometryError(f"cavity length must be positive and finite, got L={config.L}")
    if not (0.0 < config.l <= config.L):
        raise GeometryError(f"slab thickness must satisfy 0 < l <= L, got l={config.l}, L={config.L}")
    if not (0.0 < config.c < math.inf):
        raise GeometryError(f"light speed must be positive and finite, got c={config.c}")

    if len(config.oscillators) == 0:
        raise SpeciesError("at least one oscillator species is required")
    for k, sp in enumerate(config.oscillators):
        if not (0.0 < sp.omega < math.inf):
            raise SpeciesError(f"oscillators[{k}].omega must be > 0 and finite, got {sp.omega}")
        if not (0.0 <= sp.G < math.inf):
            raise SpeciesError(f"oscillators[{k}].G must be >= 0 and finite, got {sp.G}")

    if config.photon_mode_count < 1:
        raise TruncationError(f"photon_mode_count must be >= 1, got {config.photon_mode_count}")
    if config.exciton_mode_count < 1:
        raise TruncationError(f"exciton_mode_count must be >= 1, got {config.exciton_mode_count}")

    s = config.solver
    if s.method not in METHODS:
        raise ConfigError(f"unknown solver method {s.method!r}; expected one of {METHODS}")
    if not (0.0 < s.root_tol < math.inf):
        raise ConfigError(f"root_tol must be > 0 and finite, got {s.root_tol}")
    if not (0.0 < s.pole_exclusion < math.inf):
        raise ConfigError(f"pole_exclusion must be > 0 and finite, got {s.pole_exclusion}")
    if s.scan_points < 2:
        raise ConfigError(f"scan_points must be >= 2, got {s.scan_points}")
    if not (0.0 < s.omega_max < math.inf):
        raise ConfigError(f"omega_max must be > 0 and finite, got {s.omega_max}")
    return config
