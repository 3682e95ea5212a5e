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

import numpy as np

from .errors import ConfigError, DimensionError
from .model import CavityConfig, transverse_wavenumber


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

    K.shape holds the truncations.  Arrays are frozen read-only so the set
    can be shared across workers.
    """

    K: np.ndarray
    D: np.ndarray
    L: float
    l: float

    def __post_init__(self) -> None:
        self.K.flags.writeable = False
        self.D.flags.writeable = False

    def check_shape(self, config: CavityConfig) -> None:
        """Raise DimensionError on other truncations, ConfigError on other L, l."""
        n, xi = config.photon_mode_count, config.exciton_mode_count
        if self.K.shape != (n, xi) or self.D.shape != (n, n):
            raise DimensionError(
                f"overlap set has K of shape {self.K.shape} and D of shape "
                f"{self.D.shape}; config wants N={n}, Xi={xi}")
        if (self.L, self.l) != (config.L, config.l):
            raise ConfigError(
                f"overlap set built for L={self.L}, l={self.l}; "
                f"config has L={config.L}, l={config.l}")


def photon_frequencies(config: CavityConfig, q) -> np.ndarray:
    """All Omega_m(q) = c sqrt((pi m / L)^2 + q^2) for m = 1..N as a vector."""
    Q = np.pi * np.arange(1, config.photon_mode_count + 1) / config.L
    return config.c * np.hypot(Q, transverse_wavenumber(q))


def overlap_K(config: CavityConfig) -> OverlapSet:
    """Closed-form overlap matrix K[m, xi] = int phi_m chi_xi dz and D = K K^T.

    With a = m pi / L, b = (xi+1) pi / l, h = l/2 the product-to-sum
    antiderivative over the slab gives

        K = (2/sqrt(L l)) [cos((aL - bl)/2) sinc-int(a-b, h)
                           - cos((aL + bl)/2) sinc-int(a+b, h)].
    """
    L, l = config.L, config.l
    n, xi_count = config.photon_mode_count, config.exciton_mode_count
    h = l / 2.0
    a = np.pi * np.arange(1, n + 1) / L
    b = np.pi * (np.arange(xi_count) + 1) / l
    A, B = np.meshgrid(a, b, indexing="ij")
    phase_minus = (A * L - B * l) / 2.0
    phase_plus = (A * L + B * l) / 2.0
    K = (2.0 / np.sqrt(L * l)) * (
        np.cos(phase_minus) * sine_half_integral(A - B, h)
        - np.cos(phase_plus) * sine_half_integral(A + B, h))
    # the mirror-parity selection rule is exact; zero the entries the
    # closed form leaves at roundoff size so decoupling stays exact too
    m_idx = np.arange(1, n + 1)[:, None]
    xi_idx = np.arange(xi_count)[None, :]
    K[photon_parity_even(m_idx) != exciton_parity_even(xi_idx)] = 0.0
    D = K @ K.T
    return OverlapSet(K=K, D=D, L=L, l=l)


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
