"""Photon and matter mode bases and their overlap matrices.

Photon basis on the cavity interval |z| <= L/2, vanishing at the mirrors:

    phi_m(z) = sqrt(2/L) sin[m pi (z/L + 1/2)],  m = 1, 2, ...

Matter basis on the slab interval |z| <= l/2, vanishing at the slab faces
and identically zero outside:

    chi_xi(z) = sqrt(2/l) sin[(xi+1) pi (z/l + 1/2)],  xi = 0, 1, ...

Both families are orthonormal on their interval.  All overlap integrals
reduce to the product-to-sum antiderivative and are evaluated in closed
form through sinc, which carries the removable equal-wavenumber limit
without a branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError
from .model import CavityConfig, _finite_square, transverse_wavenumber


def sine_half_integral(k: np.ndarray | float, half_width: float) -> np.ndarray | float:
    """Return sin(k h)/k for h = half_width, continuous through k = 0.

    Equals the integral of cos(k z) over [0, h], so the symmetric integral
    over [-h, h] is twice this.  np.sinc supplies the k -> 0 limit exactly,
    so commensurate-wavenumber overlaps need no special case.
    """
    return half_width * np.sinc(np.asarray(k) * half_width / np.pi)


def photon_parity_even(m: int | np.ndarray) -> bool | np.ndarray:
    """phi_m is even about z = 0 exactly when m is odd."""
    return np.asarray(m) % 2 == 1


def exciton_parity_even(xi: int | np.ndarray) -> bool | np.ndarray:
    """chi_xi is even about z = 0 exactly when xi is even."""
    return np.asarray(xi) % 2 == 0


def _sector_masks(photon_count: int, exciton_count: int, species_count: int,
                  couplings: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    # Non-empty masks of the mirror-parity sectors over photons m = 1..N,
    # then matter modes (j, xi) species-major: odd-m photons with even-xi
    # matter, even-m with odd-xi.  A coupling's rows index a leading, its
    # columns a trailing stretch (K: photons x xi; A, B: all x all).  If
    # any coupling is non-zero across the sectors, one mask holds all.
    even = np.concatenate([photon_parity_even(np.arange(1, photon_count + 1)),
                           np.tile(exciton_parity_even(np.arange(exciton_count)),
                                   species_count)])
    for coupling in couplings:
        rows, cols = even[:coupling.shape[0]], even[len(even) - coupling.shape[1]:]
        if coupling[np.ix_(rows, ~cols)].any() or coupling[np.ix_(~rows, cols)].any():
            return [np.ones_like(even)]
    return [mask for mask in (even, ~even) if mask.any()]


@dataclass(frozen=True)
class PhotonMode:
    """One cavity photon mode phi_m, zero outside the cavity.

    overlap_K and classical_D never evaluate it: it is the reference profile
    integrated by the quadrature checks of their closed forms in
    tests/test_modes.py, the unit-level side of acceptance criterion 5.
    """

    m: int
    L: float

    def profile(self, z: np.ndarray | float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) <= self.L / 2
        val = np.sqrt(2.0 / self.L) * np.sin(self.m * np.pi * (z / self.L + 0.5))
        return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class ExcitonMode:
    """One slab matter mode chi_xi, zero outside the slab.

    Like PhotonMode, the reference wavefunction for the quadrature checks
    of the overlap closed forms; no solver evaluates it.
    """

    xi: int
    l: float

    def wavefunction(self, z: np.ndarray | float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) <= self.l / 2
        val = np.sqrt(2.0 / self.l) * np.sin((self.xi + 1) * np.pi * (z / self.l + 0.5))
        return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class OverlapSet:
    """Overlap matrix K[m, xi] and photon self-coupling D = K K^T.

    K.shape holds the truncations.  D is built on first read, by the
    dynamical route or SecularOperator.matrix.  Arrays are frozen read-only
    so the set can be shared across workers.
    """

    K: np.ndarray
    L: float
    l: float

    def __post_init__(self) -> None:
        self.K.flags.writeable = False

    @cached_property
    def D(self) -> np.ndarray:
        D = self.K @ self.K.T
        D.flags.writeable = False
        return D

    def check_shape(self, config: CavityConfig) -> None:
        """Raise DimensionError on other truncations, ConfigError on other L, l."""
        n, xi = config.photon_mode_count, config.exciton_mode_count
        if self.K.shape != (n, xi):
            raise DimensionError(
                f"overlap set has K of shape {self.K.shape}; "
                f"config wants N={n}, Xi={xi}")
        if (self.L, self.l) != (config.L, config.l):
            raise ConfigError(
                f"overlap set built for L={self.L}, l={self.l}; "
                f"config has L={config.L}, l={config.l}")


def photon_frequencies(config: CavityConfig, q) -> np.ndarray:
    """All Omega_m(q) = c sqrt((pi m / L)^2 + q^2) for m = 1..N as a vector.

    ConfigError where (c q)^2 is not finite, as the routes square Omega_m.
    """
    qv = transverse_wavenumber(q)
    if not _finite_square(config.c * qv):
        raise ConfigError(f"photon frequency c q = {config.c * qv:.3g} at q={qv} "
                          "has no finite square")
    Q = np.pi * np.arange(1, config.photon_mode_count + 1) / config.L
    return config.c * np.hypot(Q, qv)


def overlap_K(config: CavityConfig) -> OverlapSet:
    """Closed-form overlap matrix K[m, xi] = int phi_m chi_xi dz.

    With a = m pi / L, b = (xi+1) pi / l, h = l/2 the product-to-sum
    antiderivative over the slab gives

        K = (2/sqrt(L l)) [cos((aL - bl)/2) sinc-int(a-b, h)
                           - cos((aL + bl)/2) sinc-int(a+b, h)].
    """
    L, l = config.L, config.l
    n, xi_count = config.photon_mode_count, config.exciton_mode_count
    h = l / 2.0
    a = (np.pi * np.arange(1, n + 1) / L)[:, None]
    b = (np.pi * (np.arange(xi_count) + 1) / l)[None, :]
    K = (2.0 / np.sqrt(L * l)) * (
        np.cos((a * L - b * l) / 2.0) * sine_half_integral(a - b, h)
        - np.cos((a * L + b * l) / 2.0) * sine_half_integral(a + b, h))
    # the mirror-parity selection rule is exact; zero the entries the
    # closed form leaves at roundoff size so decoupling stays exact too
    m_idx = np.arange(1, n + 1)[:, None]
    xi_idx = np.arange(xi_count)[None, :]
    K[photon_parity_even(m_idx) != exciton_parity_even(xi_idx)] = 0.0
    return OverlapSet(K=K, L=L, l=l)


def classical_D(config: CavityConfig) -> np.ndarray:
    """Complete-basis limit of D: D[n, m] = int_{-l/2}^{l/2} phi_n phi_m dz.

    This is the matrix the truncated D(Xi) increases toward in the Loewner
    order; the frequency-domain classical limit uses it implicitly.
    """
    L, l = config.L, config.l
    n = config.photon_mode_count
    h = l / 2.0
    a = np.pi * np.arange(1, n + 1) / L
    Ai, Aj = np.meshgrid(a, a, indexing="ij")
    minus = Ai - Aj
    plus = Ai + Aj
    D = (2.0 / L) * (
        np.cos(minus * L / 2.0) * sine_half_integral(minus, h)
        - np.cos(plus * L / 2.0) * sine_half_integral(plus, h))
    # enforce exact symmetry against roundoff in the two cos branches
    return 0.5 * (D + D.T)
