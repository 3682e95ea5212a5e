"""Exception taxonomy shared by all solver modules.

Every error raised by the library derives from :class:`PolspError`, so
callers can catch one base class at the CLI boundary.  Configuration
problems and solver problems are kept in separate sub-hierarchies because
they map to different process exit codes.
"""

from __future__ import annotations


class PolspError(Exception):
    """Base class for all library errors."""


class ConfigError(PolspError):
    """Base class for configuration and input errors."""


class GeometryError(ConfigError):
    """Cavity or slab geometry is not real or violates 0 < l <= L, c > 0."""


class SpeciesError(ConfigError):
    """A species entry is not an OscillatorSpecies, or has omega <= 0 or G < 0."""


class TruncationError(ConfigError):
    """A basis truncation count is not an integer >= 1."""


class ParseError(ConfigError):
    """A config or data file failed strict-schema parsing."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


class GridError(ConfigError):
    """A sampled frequency grid is empty, non-ascending, or negative."""


class SolverError(PolspError):
    """Base class for numerical failures during a solve."""


class DimensionError(SolverError):
    """Matrix dimensions inconsistent with the configured truncations."""


class NormalizationError(SolverError):
    """An eigenmode has non-positive or indefinite symplectic norm."""


class ConvergenceError(SolverError):
    """An iterative routine failed to converge."""


class BracketError(SolverError):
    """Sign-change scan too coarse: refinement changed the root count."""


class PoleError(SolverError):
    """Evaluation requested exactly at a pole of the model."""


class BranchMatchError(SolverError):
    """Branch assignment across adjacent q points was ambiguous."""


class TruncatedSpectrumWarning(UserWarning):
    """Finite-grid truncation is expected to bias a Hilbert transform."""
