"""Reference definitions that the counted routes are tested against.

Every route of polsp finds its roots by multisecting an exact count of
them (W. H. Wittrick and F. W. Williams, Q. J. Mech. Appl. Math. 24, 263
(1971)), and none evaluates the determinant whose zeros those roots are.
The determinants live here, outside the package, as the definitions the
counts are checked against:

* ``SecularOperator``: the N x N operator M(Omega) of the secular route,
  with det(I - M) through its (Xi x Xi) reduced matrix;
* ``one_exciton_value`` and ``two_exciton_value``: the closed-form
  relations at Xi = 1 and 2 with one species;
* ``green_matching_matrix`` and ``green_determinant``: the
  Green-function matching system, one block per mirror-parity sector,
  with ``green_matrices`` stacking one sector's blocks over frequencies.

It also holds the helpers that several test modules share.  pytest does
not collect it, since its name does not start with ``test_``; the tests
import it by bare name, as they import conftest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from polsp import OverlapSet, PoleError, photon_frequencies
from polsp.dispersion import (_check_closed_form, _coupling_strength_sum, _green_sectors,
                              _resonances, _secular_counts, _sigma, _SlabModes, _two_exciton)
from polsp.model import CavityConfig, transverse_wavenumber


class NotFiniteError(ArithmeticError):
    """The Green matching matrix is not finite at some frequency."""


def all_poles(cfg: CavityConfig, q) -> np.ndarray:
    # the photon frequencies at q, then the species frequencies
    return np.concatenate([photon_frequencies(cfg, q),
                           [sp.omega for sp in cfg.oscillators]])


def drop_near_poles(values, poles, exclusion):
    # the values farther than exclusion from every pole
    values = np.asarray(values)
    if len(values) == 0:
        return values
    dist = np.min(np.abs(values[:, None] - np.asarray(poles)[None, :]), axis=1)
    return values[dist > exclusion]


def refuse_poles(config: CavityConfig, photon_freqs: np.ndarray, omega: float,
                 name: str) -> None:
    # PoleError where omega_j^2 - Omega^2 or Omega_m^2 - Omega^2 is exactly 0
    species = np.array([sp.omega for sp in config.oscillators])
    for kind, poles in (("species", species), ("photon", photon_freqs)):
        hit = poles[poles ** 2 - omega ** 2 == 0.0]
        if len(hit):
            raise PoleError(f"{name} evaluated at {kind} pole {hit[0]}")


# --------------------------------------------------------------------------
# secular determinant
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SecularOperator:
    """The frequency-dependent photon-block operator M(Omega).

    M[m, k] = Omega^2 S(Omega) D[m, k] / (Omega_m^2 - Omega^2); polariton
    frequencies solve det(I - M) = 0.  Because D = K K^T has rank <= Xi,
    the determinant is evaluated as det(I_Xi - Omega^2 S(Omega) K^T W K)
    with W = diag(1/(Omega_m^2 - Omega^2)), identical in exact arithmetic
    but (Xi x Xi) instead of (N x N).
    """

    config: CavityConfig
    overlaps: OverlapSet
    q: float

    @cached_property
    def photon_poles(self) -> np.ndarray:
        return photon_frequencies(self.config, self.q)

    @property
    def species_poles(self) -> np.ndarray:
        return np.array([sp.omega for sp in self.config.oscillators])

    def all_poles(self) -> np.ndarray:
        return np.sort(np.concatenate([self.photon_poles, self.species_poles]))

    def matrix(self, omega: float) -> np.ndarray:
        """The literal N x N operator."""
        refuse_poles(self.config, self.photon_poles, omega, "secular operator")
        weights = 1.0 / (self._photon_poles_sq - omega ** 2)
        s_val = _coupling_strength_sum(self.config.oscillators, omega)
        return (omega ** 2 * s_val) * weights[:, None] * self.overlaps.D

    @cached_property
    def _photon_poles_sq(self) -> np.ndarray:
        return self.photon_poles ** 2

    @cached_property
    def _identity(self) -> np.ndarray:
        return np.eye(self.overlaps.K.shape[1])

    def _reduced(self, omega: float) -> np.ndarray:
        weights = 1.0 / (self._photon_poles_sq - omega ** 2)
        s_val = _coupling_strength_sum(self.config.oscillators, omega)
        K = self.overlaps.K
        core = K.T @ (weights[:, None] * K)
        return self._identity - (omega ** 2 * s_val) * core

    @property
    def _parity_sectors(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        # the overlap set's parity sectors of the reduced matrix, each a
        # (photon mask, pair products, unpack index); its determinant is the
        # product of theirs
        return self.overlaps._sector_pairs

    def sector_counts(self, sector: int, omegas) -> np.ndarray:
        """polsp's count of one parity sector's roots below every frequency.

        ``sector`` indexes _parity_sectors; the count is the package's
        _secular_counts at this operator's q.
        """
        omegas = np.asarray(omegas, dtype=float)
        return _secular_counts(self.config, self._parity_sectors[sector], self.photon_poles[None],
                               omegas, np.zeros(len(omegas), dtype=np.intp))

    def determinant(self, omega: float) -> float:
        refuse_poles(self.config, self.photon_poles, omega, "secular determinant")
        sign, logdet = np.linalg.slogdet(self._reduced(omega))
        return sign * math.exp(min(logdet, 700.0))


# --------------------------------------------------------------------------
# closed-form few-exciton relations (single species)
# --------------------------------------------------------------------------

def one_exciton_value(config: CavityConfig, overlaps: OverlapSet,
                      omega: float, q) -> float:
    """1 - G^2 Omega^2/(w0^2 - Omega^2) sum_m K[m,0]^2/(Omega_m^2 - Omega^2)."""
    _check_closed_form("one_exciton_value", 1, config, overlaps)
    freqs = photon_frequencies(config, q)
    refuse_poles(config, freqs, omega, "one_exciton_value")
    return float(1.0 - _sigma(config, overlaps, freqs, omega, 0, 0))


def two_exciton_value(config: CavityConfig, overlaps: OverlapSet,
                      omega: float, q) -> float:
    """(1 - Sigma_00)(1 - Sigma_11) - Sigma_01^2 for the two-mode relation."""
    _check_closed_form("two_exciton_value", 2, config, overlaps)
    freqs = photon_frequencies(config, q)
    refuse_poles(config, freqs, omega, "two_exciton_value")
    return float(_two_exciton(config, overlaps, freqs, omega)[0])


# --------------------------------------------------------------------------
# Green-function matching
# --------------------------------------------------------------------------
# The field inside the slab solves an integral equation with the outgoing
# kernel g(z, z') = -sine_solution(|z - z'|, s)/2, which obeys
# (d^2/dz^2 + s) g = -delta(z - z').  The matching system couples the
# matter-projection coefficients c_xi to the interior fundamental solutions
# and one exterior solution per vacuum gap; its determinant vanishes
# exactly at the polariton frequencies with no photon truncation.  The
# centred slab splits it into two mirror-parity sectors: the even slab
# modes couple only to the interior C and the odd ones only to S, and the
# sum and difference of the two gaps' solutions match at z = +h alone.
#
# Every slab quantity follows from Green's identity.  With Y the sector's
# interior fundamental solution (C even, S odd), Z the other one,
# chi' = chi_xi'(h), den = b_xi^2 - s and phi = Y(h)/den, the moments are
# int chi_xi Y dz = -2 chi' phi.  Solving (d^2/dz^2 + s) y = -chi_eta with
# g gives y = chi_eta/den_eta plus a homogeneous correction fixed at z = +h;
# C and S have Wronskian 1, so the kernel int int chi_xi g chi_eta is
#     K[xi, eta] = -2 sigma Z(h) (phi_xi - phi_eta) chi'_xi chi'_eta
#                  / (b_eta^2 - b_xi^2)                      (xi != eta)
#     K[eta, eta] = (1 - 2 sigma Z(h) chi'^2 phi)/den,
# and nothing exponentially large cancels below the light line.  Where
# |Delta| < 1/4, phi and K[eta, eta] take the limits that polsp's
# _resonances computes, as described above polsp.dispersion._SlabModes.

def fundamental_pairs(x, s) -> tuple[np.ndarray, np.ndarray]:
    # (cosine_solution, sine_solution) elementwise over the broadcast arrays
    # x and s; the masks for s = 0 and s < 0 are built only where such an s
    # occurs
    x, s = np.asarray(x, dtype=float), np.asarray(s, dtype=float)
    positive = s.min() > 0.0
    r = np.sqrt(s if positive else np.abs(s))
    rx = r * x
    if positive:
        return np.cos(rx), np.sin(rx) / r
    x, s, r = np.broadcast_arrays(x, s, r)
    cos, sin = np.cos(rx), x.copy()
    for part, fn in ((s > 0.0, np.sin), (s < 0.0, np.sinh)):
        sin[part] = fn(rx[part]) / r[part]
    neg = s < 0.0
    cos[neg] = np.cosh(rx[neg])
    return cos, sin


def green_kernel(modes: _SlabModes, s, y_h, z_h) -> tuple[np.ndarray, np.ndarray]:
    """phi = Y(h)/(b^2 - s), (n, P), and the (n, P, P) kernel stack.

    s, ``y_h`` = Y(h) and ``z_h`` = sigma Z(h) are (n, 1) columns.  Both
    results are closed forms at every s: where |Delta| < 1/4 phi and the
    diagonal take their limits in Delta, and den is set to 1 there before
    dividing, so no division by zero occurs.
    """
    den = modes.b_sq - s
    rows, cols, res_phi, res_diag = _resonances(modes, np.sqrt(np.maximum(s[:, 0], 0.0)))
    den[rows, cols] = 1.0
    phi = y_h / den
    diag = (1.0 - 2.0 * z_h * phi * modes.grad_pf ** 2) / den
    phi[rows, cols], diag[rows, cols] = res_phi, res_diag
    twice_zh_phi = 2.0 * z_h * phi
    # chi_xi'(h) chi_eta'(h)/(b_eta^2 - b_xi^2), the Omega-independent
    # factor of the off-diagonal kernel; its diagonal is overwritten below
    weight = (np.outer(modes.grad_pf, modes.grad_pf)
              / (modes.b_sq - modes.b_sq[:, None] + np.eye(len(modes.b))))
    out = (twice_zh_phi[:, None, :] - twice_zh_phi[:, :, None]) * weight
    out.reshape(len(out), -1)[:, ::len(modes.b) + 1] = diag
    return phi, out


def green_matrices(config: CavityConfig, modes: _SlabModes, omegas: np.ndarray,
                   qv: float) -> np.ndarray:
    """One sector's (n, P+2, P+2) matching matrices at an (n, 1) column of frequencies.

    Arithmetic only: a frequency below the light line is continued, one on
    a species pole or whose hyperbolic functions overflow gives a matrix
    that is not finite, and no warning is raised.  green_matching_matrix
    refuses such a frequency before it builds.
    """
    # Unknowns: the sector's P matter-projection coefficients, the amplitude
    # of its interior fundamental solution Y (C in the even sector, S in the
    # odd one) and that of the gap solution S(L/2 - |z|), times sign(z) in
    # the odd sector.  Rows: P self-consistency rows, then value and
    # derivative continuity at z = +h; z = -h repeats them by symmetry
    count = len(modes.b)
    s = (omegas / config.c) ** 2 - qv ** 2
    widths = np.array([modes.h, (config.L - config.l) / 2.0])
    with np.errstate(all="ignore"):
        beta = _coupling_strength_sum(config.oscillators, omegas) * omegas ** 2 / config.c ** 2
        # the fundamental pair at the slab half-width and at the gap width
        cos, sin = fundamental_pairs(widths, s)
        ch, sh = cos[:, :1], sin[:, :1]
        # Y's value and slope at h, then sigma Z(h) and sigma Z'(h)
        value, slope, z_h, z_slope = ((sh, ch, -ch, s * sh) if modes.parity
                                      else (ch, -s * sh, sh, ch))
        phi, kernel_m = green_kernel(modes, s, value, z_h)
        # chi'(h) phi = -u/2 for the moments u; the kernel solution's value
        # and derivative at z = +h are sigma Z(h) and sigma Z'(h) times it
        chi_phi = modes.grad_pf * phi
        mats = np.zeros((len(s), count + 2, count + 2))
        # self-consistency: c_xi = beta (sum_eta M[xi,eta] c_eta + Y amplitude u_xi)
        mats[:, :count, :count] = np.eye(count) - beta[:, :, None] * kernel_m
        mats[:, :count, count] = 2.0 * beta * chi_phi
        # continuity at z = +h: [value, Y(h), S(d)] and [derivative, Y'(h), -C(d)]
        mats[:, count:] = np.concatenate(
            (z_h * chi_phi, value, sin[:, 1:], z_slope * chi_phi, slope, -cos[:, 1:]),
            axis=1).reshape(-1, 2, count + 2)
    return mats


def green_matching_matrix(config: CavityConfig, omega: float, q) -> np.ndarray:
    """The (Xi+4) homogeneous system whose determinant zeroes are eigenmodes.

    Block diagonal, even parity sector first, each block that sector's
    matrix of green_matrices: the two-face system after sums and
    differences of the faces' rows and of the two gaps' amplitudes.  A
    frequency below the light line is continued through cosh and sinh; one
    on a species pole raises PoleError, and a matrix that is not finite, as
    where a hyperbolic function overflows, NotFiniteError.
    """
    qv = transverse_wavenumber(q)
    for sp in config.oscillators:
        if abs(sp.omega ** 2 - omega ** 2) <= 1e-300:
            raise PoleError(f"green system evaluated at species pole {sp.omega}")
    omegas = np.full((1, 1), omega, dtype=float)
    even, odd = (green_matrices(config, modes, omegas, qv)[0]
                 for modes in _green_sectors(config))
    mat = np.zeros((config.exciton_mode_count + 4,) * 2)
    mat[:len(even), :len(even)], mat[len(even):, len(even):] = even, odd
    if not np.isfinite(mat).all():
        raise NotFiniteError(
            f"green matching matrix not finite at Omega={omega:.6g}, q={qv:.6g}")
    return mat


def green_determinant(config: CavityConfig, omega: float, q) -> float:
    """Determinant of the matching system; its sign changes bracket roots."""
    return float(np.linalg.det(green_matching_matrix(config, omega, q)))
