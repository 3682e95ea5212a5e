"""Frequency-domain dispersion solvers and branch tracking.

Four independent routes to the same eigenfrequencies live here:

* ``secular_roots``: zeros of det(I - M(Omega)) for the N-photon secular
  operator, evaluated through the equivalent (Xi x Xi) determinant so the
  cost scales with the matter truncation, not the photon one.
* ``one_exciton_roots`` / ``two_exciton_roots``: the scalar and 2x2
  closed-form factorizations available at Xi = 1, 2 with one species.
* ``green_roots``: sign changes of the determinant of the Green-function
  matching system, which never truncates the photon field at all.
* ``classical_roots``: the transcendental relation of the classical slab
  problem, the Xi -> infinity limit of the secular method.

Uncoupled lines (a photon mode with a zero overlap column, or leftover
degenerate matter modes) sit exactly on poles of the secular and
closed-form functions.  They are reported by the dynamical method only;
the scanners here never search inside pole_exclusion neighborhoods, which
is what makes cross-method comparison well defined.

All root finding is bracketing plus bisection on the sign, never
derivative-based: the functions have poles and near-vertical branches, and
a sign is trustworthy where a Newton step is not.  Every scan is repeated
at doubled density; a changed bracket count raises BracketError instead of
silently returning a short list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import hopfield
from .errors import (BracketError, BranchMatchError, ConfigError,
                     EvanescentError, PoleError, QuadratureError)
from .kk import LorentzSet
from .model import CavityConfig, transverse_wavenumber
from .modes import (OverlapSet, exciton_parity_even, overlap_K,
                    photon_frequencies, photon_parity_even)

# --------------------------------------------------------------------------
# branch-free fundamental solutions
# --------------------------------------------------------------------------
# The two solutions of y'' + s y = 0 normalized by y(0)=1, y'(0)=0 and
# y(0)=0, y'(0)=1.  Written in terms of s rather than sqrt(s) they are
# entire, so the propagating and evanescent regimes share one code path.

_RESCALE_LIMIT = 350.0  # cosh argument beyond which the pair is damped


def cosine_solution(x: float, s: float) -> float:
    """cos(sqrt(s) x) for s >= 0, cosh(sqrt(-s) x) for s < 0."""
    if s >= 0.0:
        return math.cos(math.sqrt(s) * x)
    return math.cosh(math.sqrt(-s) * x)


def sine_solution(x: float, s: float) -> float:
    """sin(sqrt(s) x)/sqrt(s), continued through s = 0 (value x) and s < 0."""
    if s > 0.0:
        r = math.sqrt(s)
        return math.sin(r * x) / r
    if s == 0.0:
        return x
    r = math.sqrt(-s)
    return math.sinh(r * x) / r


def cosine_solutions(x, s) -> np.ndarray:
    """cosine_solution elementwise over the broadcast arrays x and s."""
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
    rx = np.sqrt(np.abs(s)) * x
    out = np.cos(rx)
    neg = s < 0.0
    out[neg] = np.cosh(rx[neg])
    return out


def sine_solutions(x, s) -> np.ndarray:
    """sine_solution elementwise over the broadcast arrays x and s."""
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
    r = np.sqrt(np.abs(s))
    out = x.copy()
    for part, fn in ((s > 0.0, np.sin), (s < 0.0, np.sinh)):
        out[part] = fn(r[part] * x[part]) / r[part]
    return out


def _longitudinal_sq(config: CavityConfig, omega: float, qv: float) -> float:
    # s = (Omega/c)^2 - q^2, refused below the light line unless the
    # evanescent continuation is enabled
    s = (omega / config.c) ** 2 - qv ** 2
    if s < 0.0 and not config.solver.allow_evanescent:
        raise EvanescentError(
            f"q={qv} exceeds Omega/c={omega / config.c}; set allow_evanescent")
    return s


def _propagating_window(config: CavityConfig, qv: float,
                        window: tuple[float, float]) -> tuple[float, float]:
    # the window clamped to Omega > q c unless the continuation is enabled
    lo, hi = window
    if not config.solver.allow_evanescent:
        lo = max(lo, qv * config.c * (1.0 + 1e-12))
    return lo, hi


def _damped_pair(x: float, s: float) -> tuple[float, float]:
    # (cosine_solution, sine_solution) jointly rescaled by exp(-(t - limit))
    # once the hyperbolic argument t = sqrt(-s) x would overflow.  Joint
    # rescaling multiplies any expression linear in the pair by a positive
    # factor, so signs and zeros are preserved.
    if s >= 0.0 or math.sqrt(-s) * x <= _RESCALE_LIMIT:
        return cosine_solution(x, s), sine_solution(x, s)
    r = math.sqrt(-s)
    half = 0.5 * math.exp(_RESCALE_LIMIT)
    return half, half / r


# --------------------------------------------------------------------------
# scanning and bisection
# --------------------------------------------------------------------------

def pole_free_segments(window: tuple[float, float], poles, exclusion: float):
    """Split the window at the given poles, removing exclusion half-widths."""
    lo, hi = window
    segments = []
    prev = lo
    for p in sorted(p for p in poles if lo - exclusion < p < hi + exclusion):
        if p - exclusion > prev:
            segments.append((prev, p - exclusion))
        prev = max(prev, p + exclusion)
    if hi > prev:
        segments.append((prev, hi))
    return segments


def _bisect_sign(f, lo: float, hi: float, sign_lo: float, rel_tol: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            return mid
        sign_mid = np.sign(f(mid))
        if sign_mid == 0.0:
            return mid
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_changes(xs: np.ndarray, signs: np.ndarray):
    # (lo, hi, sign at lo) per bracket, ascending: a point where the sign is
    # exactly zero is a bracket of width zero, else a cell whose ends differ
    zero = signs == 0.0
    crossing = np.zeros_like(zero)
    crossing[:-1] = signs[:-1] * signs[1:] < 0.0
    return [(xs[i], xs[i], 0.0) if zero[i] else (xs[i], xs[i + 1], signs[i])
            for i in np.flatnonzero(zero | crossing)]


def _brackets(f, lo: float, hi: float, n: int, grid_signs=None):
    """Sign-change brackets of f on n and on 2n - 1 equispaced points.

    linspace(lo, hi, n) equals linspace(lo, hi, 2n - 1)[::2] bit for bit,
    so f is evaluated once on the fine grid and the coarse brackets reuse
    every other sample.  ``grid_signs``, when given, evaluates the sign of
    f on the whole grid array in one call instead.
    """
    xs = np.linspace(lo, hi, 2 * n - 1)
    if grid_signs is None:
        signs = np.sign(np.array([f(x) for x in xs]))
    else:
        signs = np.sign(grid_signs(xs))
    return _sign_changes(xs[::2], signs[::2]), _sign_changes(xs, signs)


def scan_roots(f, window: tuple[float, float], poles, *, exclusion: float,
               scan_points: int, rel_tol: float, grid_signs=None) -> np.ndarray:
    """All roots of f in the window, excluding pole neighborhoods.

    Each pole-free segment is bracketed twice, at scan_points and at double
    density; a differing bracket count means the grid cannot be trusted and
    raises BracketError rather than guessing.  ``grid_signs(xs)``, if
    given, must return the sign of f at every point of the array xs; it
    replaces the per-point calls on the scan grid only, and bisection
    always calls the scalar f.
    """
    roots = []
    for seg in pole_free_segments(window, poles, exclusion):
        lo, hi = seg
        coarse, fine = _brackets(f, lo, hi, scan_points, grid_signs)
        if len(coarse) != len(fine):
            raise BracketError(
                f"scan with {scan_points} points found {len(coarse)} sign changes "
                f"on ({lo:.6g}, {hi:.6g}) but {len(fine)} at doubled density; "
                "increase scan_points, or widen pole_exclusion if roots "
                "accumulate against a resonance")
        for a, b, sign_a in fine:
            if a == b:
                roots.append(a)
            else:
                roots.append(_bisect_sign(f, a, b, sign_a, rel_tol))
    return np.array(sorted(roots))


def _scan(config: CavityConfig, f, window: tuple[float, float], poles,
          grid_signs=None) -> np.ndarray:
    """scan_roots with the configured exclusion, scan density and tolerance."""
    settings = config.solver
    return scan_roots(f, window, poles, exclusion=settings.pole_exclusion,
                      scan_points=settings.scan_points, rel_tol=settings.root_tol,
                      grid_signs=grid_signs)


# --------------------------------------------------------------------------
# secular determinant
# --------------------------------------------------------------------------

# doubles held by one chunk's stacked arrays in determinant_signs and
# _green_determinants
_SIGN_CHUNK_DOUBLES = 32768


def _coupling_strength_sum(config: CavityConfig, omega):
    # S(Omega) = sum_j G_j^2 / (omega_j^2 - Omega^2); the lossless
    # susceptibility of the configured species set, for a float or an array
    total = 0.0
    for sp in config.oscillators:
        total += sp.G ** 2 / (sp.omega ** 2 - omega ** 2)
    return total


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
        """The literal N x N operator; prefer determinant() for root scans."""
        om2 = self.photon_poles ** 2
        weights = 1.0 / (om2 - omega ** 2)
        s_val = _coupling_strength_sum(self.config, omega)
        return (omega ** 2 * s_val) * weights[:, None] * self.overlaps.D

    @cached_property
    def _photon_poles_sq(self) -> np.ndarray:
        return self.photon_poles ** 2

    @cached_property
    def _identity(self) -> np.ndarray:
        return np.eye(self.overlaps.K.shape[1])

    def _reduced(self, omega: float) -> np.ndarray:
        weights = 1.0 / (self._photon_poles_sq - omega ** 2)
        s_val = _coupling_strength_sum(self.config, omega)
        K = self.overlaps.K
        core = K.T @ (weights[:, None] * K)
        return self._identity - (omega ** 2 * s_val) * core

    def determinant_sign(self, omega: float) -> float:
        sign, _ = np.linalg.slogdet(self._reduced(omega))
        return sign

    @cached_property
    def _parity_sectors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        # (K block, its squared photon poles) for odd-m photons with even-xi
        # matter modes and for even-m photons with odd-xi ones.  overlap_K
        # zeroes K exactly between them, so the reduced matrix is block
        # diagonal and its determinant the product of the blocks'; a K with
        # cross-parity entries becomes one sector holding every row and column
        K = self.overlaps.K
        rows = photon_parity_even(np.arange(1, K.shape[0] + 1))
        cols = exciton_parity_even(np.arange(K.shape[1]))
        if K[np.ix_(rows, ~cols)].any() or K[np.ix_(~rows, cols)].any():
            parts = [(np.full_like(rows, True), np.full_like(cols, True))]
        else:
            parts = [(rows, cols), (~rows, ~cols)]
        return tuple((K[np.ix_(r, c)], self._photon_poles_sq[r]) for r, c in parts)

    def determinant_signs(self, omegas: np.ndarray) -> np.ndarray:
        """The sign of det(I - M) at every frequency of an array, in batches.

        Agrees with np.sign(determinant_sign(omega)) point by point.  Each
        chunk of frequencies builds the reduced matrix of every parity
        sector with one stacked matmul and multiplies the sector signs from
        one batched slogdet each; a chunk's stacked arrays hold about
        _SIGN_CHUNK_DOUBLES doubles whatever the truncation.
        """
        omegas = np.asarray(omegas, dtype=float)
        signs = np.ones(len(omegas))
        omegas_sq = omegas ** 2
        factor = omegas_sq * _coupling_strength_sum(self.config, omegas)
        per_point = sum(block.size for block, _ in self._parity_sectors)
        step = max(1, _SIGN_CHUNK_DOUBLES // per_point)
        for start in range(0, len(omegas), step):
            part = slice(start, start + step)
            for block, poles_sq in self._parity_sectors:
                weights = 1.0 / (poles_sq - omegas_sq[part, None])
                core = block.T[None] @ (weights[:, :, None] * block[None])
                reduced = np.eye(block.shape[1]) - factor[part, None, None] * core
                signs[part] *= np.linalg.slogdet(reduced)[0]
        return signs

    def determinant(self, omega: float) -> float:
        sign, logdet = np.linalg.slogdet(self._reduced(omega))
        return sign * math.exp(min(logdet, 700.0))


def secular_roots(config: CavityConfig, overlaps: OverlapSet, q,
                  window: tuple[float, float]) -> np.ndarray:
    """Zeros of the secular determinant in the window, pole-split and bisected."""
    overlaps.check_shape(config)
    op = SecularOperator(config=config, overlaps=overlaps, q=transverse_wavenumber(q))
    return _scan(config, op.determinant_sign, window, op.all_poles(),
                 grid_signs=op.determinant_signs)


# --------------------------------------------------------------------------
# closed-form few-exciton relations (single species)
# --------------------------------------------------------------------------

def _closed_form_roots(value, name: str, needed_modes: int, config: CavityConfig,
                       overlaps: OverlapSet, q, window) -> np.ndarray:
    # the scan shared by both closed forms; value(config, overlaps, freqs,
    # omega) is the relation itself, given the photon frequencies at q
    overlaps.check_shape(config)
    if config.species_count() != 1:
        raise ConfigError(f"{name} requires exactly one species")
    if config.exciton_mode_count != needed_modes:
        raise ConfigError(
            f"{name} requires exciton_mode_count == {needed_modes}, "
            f"got {config.exciton_mode_count}")
    freqs = photon_frequencies(config, q)
    poles = np.concatenate([freqs, [config.oscillators[0].omega]])
    return _scan(config, lambda w: value(config, overlaps, freqs, w), window, poles)


def _weighted_column_sum(overlaps: OverlapSet, photon_freqs: np.ndarray,
                         omega: float, a: int, b: int) -> float:
    weights = 1.0 / (photon_freqs ** 2 - omega ** 2)
    return float(np.sum(overlaps.K[:, a] * overlaps.K[:, b] * weights))


def _one_exciton(config: CavityConfig, overlaps: OverlapSet,
                 freqs: np.ndarray, omega: float) -> float:
    # one_exciton_value at the photon frequencies freqs, which a scan
    # computes once
    sp = config.oscillators[0]
    factor = sp.G ** 2 * omega ** 2 / (sp.omega ** 2 - omega ** 2)
    return 1.0 - factor * _weighted_column_sum(overlaps, freqs, omega, 0, 0)


def one_exciton_value(config: CavityConfig, overlaps: OverlapSet,
                      omega: float, q) -> float:
    """1 - G^2 Omega^2/(w0^2 - Omega^2) sum_m K[m,0]^2/(Omega_m^2 - Omega^2)."""
    return _one_exciton(config, overlaps, photon_frequencies(config, q), omega)


def one_exciton_roots(config: CavityConfig, overlaps: OverlapSet, q,
                      window: tuple[float, float]) -> np.ndarray:
    """Roots of the scalar single-matter-mode dispersion relation."""
    return _closed_form_roots(_one_exciton, "one_exciton_roots", 1,
                              config, overlaps, q, window)


def _two_exciton(config: CavityConfig, overlaps: OverlapSet,
                 freqs: np.ndarray, omega: float) -> float:
    # two_exciton_value at the photon frequencies freqs
    sp = config.oscillators[0]
    factor = sp.G ** 2 * omega ** 2 / (sp.omega ** 2 - omega ** 2)
    s00 = factor * _weighted_column_sum(overlaps, freqs, omega, 0, 0)
    s11 = factor * _weighted_column_sum(overlaps, freqs, omega, 1, 1)
    s01 = factor * _weighted_column_sum(overlaps, freqs, omega, 0, 1)
    return (1.0 - s00) * (1.0 - s11) - s01 ** 2


def two_exciton_value(config: CavityConfig, overlaps: OverlapSet,
                      omega: float, q) -> float:
    """(1 - Sigma_00)(1 - Sigma_11) - Sigma_01^2 for the two-mode relation."""
    return _two_exciton(config, overlaps, photon_frequencies(config, q), omega)


def two_exciton_roots(config: CavityConfig, overlaps: OverlapSet, q,
                      window: tuple[float, float]) -> np.ndarray:
    """Roots of the two-matter-mode product-minus-cross-term relation."""
    return _closed_form_roots(_two_exciton, "two_exciton_roots", 2,
                              config, overlaps, q, window)


# --------------------------------------------------------------------------
# Green-function matching
# --------------------------------------------------------------------------
# The field inside the slab solves an integral equation with the outgoing
# kernel g(z, z') = -sine_solution(|z - z'|, s)/2, which obeys
# (d^2/dz^2 + s) g = -delta(z - z').  The matching system couples the
# matter-projection coefficients c_xi to the two interior fundamental
# solutions and one exterior solution per vacuum gap; its determinant
# vanishes exactly at the polariton frequencies with no photon truncation.

_RESONANT_RTOL = 1e-4  # switch to quadrature when |b^2 - s| is this small


class _SlabModes:
    """The Omega-independent arrays of the Xi slab modes chi_xi.

    chi_xi(z) = sqrt(2/l) sin(b_xi (z + l/2)) with b_xi = (xi + 1) pi / l.
    A scan builds one and every evaluation of the matching matrix reads it,
    so none of these arrays is rebuilt per frequency.
    """

    def __init__(self, l: float, count: int):
        self.h, self.norm = l / 2.0, math.sqrt(2.0 / l)
        idx = np.arange(count)
        self.b = (idx + 1) * np.pi / l
        self.b_sq = self.b ** 2
        bh = (idx + 1) * np.pi / 2.0
        self.sinbh, self.cosbh = np.sin(bh), np.cos(bh)
        self.sgn = (-1.0) ** (idx + 1)
        self.eye = np.eye(count)


def _sinc_integral(k, h: float):
    # sin(k h)/k, continued through k = 0
    return h * np.sinc(k * h / np.pi)


def _propagating_moments(modes: _SlabModes, qz):
    # _slab_moments at s = qz^2 > 0 by the form that holds for qz h >= 0.5;
    # qz is a float, or an (n, 1) column giving one row of moments per entry
    sum_int = _sinc_integral(modes.b + qz, modes.h)
    diff_int = _sinc_integral(modes.b - qz, modes.h)
    uc = modes.norm * modes.sinbh * (sum_int + diff_int)
    us = modes.norm * modes.cosbh * (diff_int - sum_int) / qz
    return uc, us


def _small_qz_moment(modes: _SlabModes, s, qz, cos_qzh):
    # us of _propagating_moments for qz h < 0.5: the same antiderivative
    # rearranged to avoid the 0/0 at qz -> 0; the denominator b^2 - s stays
    # bounded away from zero because qz h < 0.5 < b h.  The caller passes
    # cos(qz h) from math for one s and from numpy for a column, so the
    # scalar bytes do not depend on numpy's cos
    return modes.norm * modes.cosbh * 2.0 * (
        modes.sinbh * cos_qzh
        - modes.b * modes.cosbh * _sinc_integral(qz, modes.h)) / (modes.b_sq - s)


def _slab_moments(modes: _SlabModes, s: float) -> tuple[np.ndarray, np.ndarray]:
    # moments uC[xi] = int chi_xi cos-solution, uS[xi] = int chi_xi sin-solution
    h, norm, b, b_sq = modes.h, modes.norm, modes.b, modes.b_sq
    sinbh, cosbh, sgn = modes.sinbh, modes.cosbh, modes.sgn
    if s > 0.0:
        qz = math.sqrt(s)
        uc, us = _propagating_moments(modes, qz)
        if qz * h < 0.5:
            us = _small_qz_moment(modes, s, qz, math.cos(qz * h))
        return uc, us
    if s == 0.0:
        uc = norm * sinbh * 2.0 * _sinc_integral(b, h)
        us = norm * cosbh * 2.0 * (sinbh - b * cosbh * h) / b_sq
        return uc, us
    kappa = math.sqrt(-s)
    den = kappa ** 2 + b_sq
    uc = norm * b * (1.0 - sgn) * math.cosh(kappa * h) / den
    us = -norm * b * (1.0 + sgn) * (math.sinh(kappa * h) / kappa) / den
    return uc, us


def _boundary_kernel_values(uc: np.ndarray, us: np.ndarray, s, ch, sh):
    # particular solution y_xi(z) = int g(z, z') chi_xi(z') dz' and its
    # derivative, evaluated at the slab faces z = +-h, from the fundamental
    # pair ch, sh at z = h; s, ch, sh are (n, 1) columns for (n, Xi) moments
    sh_uc, ch_us = sh * uc, ch * us
    ch_uc, s_sh_us = ch * uc, s * sh * us
    value_plus = -0.5 * (sh_uc - ch_us)
    value_minus = -0.5 * (sh_uc + ch_us)
    deriv_plus = -0.5 * (ch_uc + s_sh_us)
    deriv_minus = 0.5 * (ch_uc - s_sh_us)
    return value_plus, value_minus, deriv_plus, deriv_minus


@lru_cache(maxsize=32)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _double_integral_quadrature(modes: _SlabModes, eta: int, s: float) -> np.ndarray:
    # column eta of the kernel double integral by nested Gauss-Legendre,
    # splitting the inner integral at the |z - z'| kink; used only near
    # the removable resonance of the closed form
    h, norm, b_eta = modes.h, modes.norm, modes.b[eta]
    x, w = _gauss_nodes(min(160, 48 + 8 * (eta + 1)))
    z = h * x
    wz = h * w

    def chi_eta(zz):
        return norm * np.sin(b_eta * (zz + h))

    # inner integral at every outer node z_i, over (-h, z_i) and (z_i, h)
    lo = np.stack([np.full_like(z, -h), z], axis=1)[:, :, None]
    hi = np.stack([z, np.full_like(z, h)], axis=1)[:, :, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    zp = mid + half * x
    kernel = -0.5 * sine_solutions(np.abs(z[:, None, None] - zp), s)
    parts = half[:, :, 0] * np.sum(w * kernel * chi_eta(zp), axis=2)
    inner = parts[:, 0] + parts[:, 1]
    chi_all = norm * np.sin(np.outer(modes.b, z + h))
    return chi_all @ (wz * inner)


def _resonant_columns(modes: _SlabModes, s) -> np.ndarray:
    # where the partial-fraction denominator b_eta^2 - s is too small for
    # the closed form, per row of the (n, 1) column s
    return np.abs(modes.b_sq - s) <= _RESONANT_RTOL * np.maximum(modes.b_sq, np.abs(s))


def _kernel_double_integrals(modes: _SlabModes, s, uc: np.ndarray, us: np.ndarray,
                             value_plus: np.ndarray, deriv_plus: np.ndarray,
                             ch, sh) -> np.ndarray:
    """Matrices of int int chi_xi(z) g(z, z') chi_eta(z') dz dz', closed form.

    Solving (d^2/dz^2 + s) y = -chi_eta with the kernel gives
    y = chi_eta/(b_eta^2 - s) plus a homogeneous correction fixed by the
    known boundary values of the kernel solution; projecting back onto
    chi_xi needs only the slab moments ``uc, us``, the kernel solution's
    value and derivative at z = +h and the fundamental pair ``ch, sh`` at
    z = h, which the caller has already computed.  Every argument holds one
    row per frequency (s, ch and sh as (n, 1) columns) and the result is
    the (n, Xi, Xi) stack.  Near b_eta^2 = s the subtraction cancels
    catastrophically and that single column falls back to nested
    Gauss-Legendre quadrature, which is exact there.
    """
    b = modes.b
    den = modes.b_sq - s
    resonant = _resonant_columns(modes, s)
    safe_den = np.where(resonant, 1.0, den)
    # derivative of the partial-fraction term chi_eta/(b^2 - s) at z = +h
    grad_pf = modes.norm * b * modes.sgn / safe_den
    delta_deriv = deriv_plus - grad_pf
    coeff_cos = ch * value_plus - sh * delta_deriv
    coeff_sin = s * sh * value_plus + ch * delta_deriv
    out = uc[:, :, None] * coeff_cos[:, None, :] + us[:, :, None] * coeff_sin[:, None, :]
    out.reshape(len(out), len(b) ** 2)[:, ::len(b) + 1] += 1.0 / safe_den
    for row, eta in zip(*np.nonzero(resonant)):
        out[row, :, eta] = _double_integral_quadrature(modes, int(eta), float(s[row, 0]))
    return out


def _matching_matrices(modes: _SlabModes, s, beta, uc: np.ndarray, us: np.ndarray,
                       slab_pair, gap_pair) -> np.ndarray:
    # the (n, Xi+4, Xi+4) stack of matching matrices; s, beta and the
    # fundamental pairs at the slab half-width and at the gap width are
    # (n, 1) columns, uc and us the (n, Xi) slab moments
    ch, sh = slab_pair
    cg, sg = gap_pair
    count = len(modes.b)
    vp, vm, dp, dm = _boundary_kernel_values(uc, us, s, ch, sh)
    kernel_m = _kernel_double_integrals(modes, s, uc, us, vp, dp, ch, sh)
    mats = np.zeros((len(s), count + 4, count + 4))
    # self-consistency: c_xi = beta (sum_eta M[xi,eta] c_eta + A uc + B us)
    mats[:, :count, :count] = modes.eye - beta[:, :, None] * kernel_m
    mats[:, :count, count] = -beta * uc
    mats[:, :count, count + 1] = -beta * us
    # value and derivative continuity at z = -h against the left exterior
    # solution, then at z = +h against the right one
    mats[:, count:, :count] = np.concatenate((vm, dm, vp, dp), axis=1).reshape(-1, 4, count)
    zero = np.zeros_like(ch)
    mats[:, count:, count:] = np.concatenate((ch, -sh, -sg, zero,
                                              s * sh, ch, -cg, zero,
                                              ch, sh, zero, sg,
                                              -s * sh, ch, zero, -cg), axis=1).reshape(-1, 4, 4)
    return mats


def _green_matrix(config: CavityConfig, modes: _SlabModes, omega: float,
                  qv: float) -> np.ndarray:
    # green_matching_matrix on slab-mode arrays that a scan builds once
    s = _longitudinal_sq(config, omega, qv)
    for sp in config.oscillators:
        if abs(sp.omega ** 2 - omega ** 2) <= 1e-300:
            raise PoleError(f"green system evaluated at species pole {sp.omega}")

    gap = (config.L - config.l) / 2.0
    beta = _coupling_strength_sum(config, omega) * omega ** 2 / config.c ** 2
    uc, us = _slab_moments(modes, s)

    # every scalar as a (1, 1) column of a one-row stack
    s_col, beta_col, ch, sh, cg, sg = np.array(
        [s, beta, cosine_solution(modes.h, s), sine_solution(modes.h, s),
         cosine_solution(gap, s), sine_solution(gap, s)]).reshape(6, 1, 1)
    mat = _matching_matrices(modes, s_col, beta_col, uc[None], us[None],
                             (ch, sh), (cg, sg))[0]
    if not np.isfinite(mat).all():
        raise QuadratureError(
            f"green matching matrix not finite at Omega={omega:.6g}, q={qv:.6g}")
    return mat


def _green_determinants(config: CavityConfig, modes: _SlabModes, omegas: np.ndarray,
                        qv: float, scalar_det) -> np.ndarray:
    """det of the matching matrix at every frequency of an array, in batches.

    Rows with s > 0, no resonant column and no species pole are built as
    stacked matrices and share one np.linalg.det per chunk; a chunk's
    stacks hold about _SIGN_CHUNK_DOUBLES doubles whatever the truncation.
    Every other row (s <= 0 included), and any row whose stacked matrix is
    not finite, goes through ``scalar_det(omega)`` in ascending order, so
    the first frequency the scalar evaluator refuses raises its error.
    """
    omegas = np.asarray(omegas, dtype=float)
    dets = np.empty(len(omegas))
    gap = (config.L - config.l) / 2.0
    step = max(1, _SIGN_CHUNK_DOUBLES // (2 * (len(modes.b) + 4) ** 2))
    for start in range(0, len(omegas), step):
        w = omegas[start:start + step, None]
        with np.errstate(all="ignore"):
            s = (w / config.c) ** 2 - qv ** 2
            batch = (s > 0.0) & ~_resonant_columns(modes, s).any(axis=1, keepdims=True)
            for sp in config.oscillators:
                batch &= np.abs(sp.omega ** 2 - w ** 2) > 1e-300
            rows = np.flatnonzero(batch)
            s, w = s[rows], w[rows]
            qz = np.sqrt(s)
            beta = _coupling_strength_sum(config, w) * w ** 2 / config.c ** 2
            uc, us = _propagating_moments(modes, qz)
            us = np.where(qz * modes.h < 0.5,
                          _small_qz_moment(modes, s, qz, np.cos(qz * modes.h)), us)
            mats = _matching_matrices(
                modes, s, beta, uc, us,
                (cosine_solutions(modes.h, s), sine_solutions(modes.h, s)),
                (cosine_solutions(gap, s), sine_solutions(gap, s)))
        finite = np.isfinite(mats).all(axis=(1, 2))
        chunk = dets[start:start + step]
        chunk[rows[finite]] = np.linalg.det(mats[finite])
        scalar_rows = np.ones(len(chunk), dtype=bool)
        scalar_rows[rows[finite]] = False
        for i in np.flatnonzero(scalar_rows):
            chunk[i] = scalar_det(omegas[start + i])
    return dets


def green_matching_matrix(config: CavityConfig, omega: float, q) -> np.ndarray:
    """The (Xi+4) homogeneous system whose determinant zeroes are eigenmodes.

    Unknowns: the Xi matter-projection coefficients, the two interior
    fundamental-solution amplitudes, and the two exterior amplitudes that
    already satisfy the mirror conditions.  Rows: Xi self-consistency rows,
    then value and derivative continuity at each slab face.
    """
    modes = _SlabModes(config.l, config.exciton_mode_count)
    return _green_matrix(config, modes, omega, transverse_wavenumber(q))


def green_determinant(config: CavityConfig, omega: float, q) -> float:
    """Determinant of the matching system; its sign changes bracket roots."""
    return float(np.linalg.det(green_matching_matrix(config, omega, q)))


def _green_evaluators(config: CavityConfig, qv: float):
    # (det, green_signs) at one q over one set of slab-mode arrays: the
    # scalar determinant for bisection and its batched form for a scan grid
    modes = _SlabModes(config.l, config.exciton_mode_count)

    def det(omega: float) -> float:
        return float(np.linalg.det(_green_matrix(config, modes, omega, qv)))

    def green_signs(xs: np.ndarray) -> np.ndarray:
        return _green_determinants(config, modes, xs, qv, det)

    return det, green_signs


def green_roots(config: CavityConfig, q, window: tuple[float, float]) -> np.ndarray:
    """Sign-change roots of the Green-function determinant in the window.

    The scan grid is evaluated in batches; bisection calls the scalar
    determinant.
    """
    qv = transverse_wavenumber(q)
    det, green_signs = _green_evaluators(config, qv)
    poles = [sp.omega for sp in config.oscillators]
    return _scan(config, det, _propagating_window(config, qv, window), poles,
                 grid_signs=green_signs)


# --------------------------------------------------------------------------
# classical transcendental relation
# --------------------------------------------------------------------------

def _resolve_susceptibility(susceptibility):
    if susceptibility is None:
        return lambda omega: 0.0
    if callable(susceptibility):
        return susceptibility
    return susceptibility.chi_prime


def classical_branch_values(config: CavityConfig, susceptibility,
                            omega: float, q) -> tuple[float, float]:
    """Values of the two matching functions whose zeros are eigenmodes.

    With s, s' the squared longitudinal wavenumbers in vacuum and medium,
    C/S the fundamental pair and h, d the slab and gap half-extents:

        branch 1 (even field, odd empty-cavity index):
            s' S(h, s') S(d, s) - C(d, s) C(h, s')
        branch 2 (odd field, even empty-cavity index):
            S(d, s) C(h, s') + C(d, s) S(h, s')

    Both are entire in (s, s'), so spatial tangent poles never appear; the
    only frequency poles come through the susceptibility at the species
    resonances.  The equivalent tan/cot form places a double pole exactly
    on the even-index empty-cavity roots at l = L/2, which this form
    avoids by construction.
    """
    qv = transverse_wavenumber(q)
    chi = _resolve_susceptibility(susceptibility)
    s = _longitudinal_sq(config, omega, qv)
    s_med = (1.0 + chi(omega)) * (omega / config.c) ** 2 - qv ** 2
    h = config.l / 2.0
    gap = (config.L - config.l) / 2.0
    c_gap, s_gap = _damped_pair(gap, s)
    c_slab, s_slab = _damped_pair(h, s_med)
    branch1 = s_med * s_slab * s_gap - c_gap * c_slab
    branch2 = s_gap * c_slab + c_gap * s_slab
    return branch1, branch2


def classical_roots(config: CavityConfig, susceptibility, q,
                    window: tuple[float, float],
                    poles=()) -> tuple[np.ndarray, np.ndarray]:
    """Roots of both classical branches in the window.

    ``susceptibility`` is either an object with a ``chi_prime(omega)``
    method, a plain callable, or None for vacuum.  ``poles`` lists the
    frequencies where the susceptibility diverges (the species resonances
    for a lorentz set); segments around them are excluded exactly like
    secular poles.  Roots accumulate just below each resonance, so a
    finite scan reports only the ones it can separate; the doubled-density
    check turns an under-resolved accumulation into BracketError.
    """
    qv = transverse_wavenumber(q)
    window = _propagating_window(config, qv, window)
    chi = _resolve_susceptibility(susceptibility)

    def branch(which):
        def f(omega):
            return classical_branch_values(config, chi, omega, qv)[which]
        return f

    return tuple(_scan(config, branch(which), window, poles) for which in (0, 1))


def _lorentz_classical_roots(config: CavityConfig, q,
                             window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    # both classical branches for the configured species, resonances excluded
    model = LorentzSet.from_config(config)
    return classical_roots(config, model, q, window, poles=model.poles())


# --------------------------------------------------------------------------
# q sweeps and branch tracking
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionCurve:
    """Branch-resolved (q, Omega) samples from one method at one truncation."""

    method: str
    branches: tuple[np.ndarray, ...]

    def branch_count(self) -> int:
        return len(self.branches)


def _roots_for_method(config: CavityConfig, overlaps, method: str, q: float,
                      window: tuple[float, float]) -> np.ndarray:
    if method == "dynamical":
        # module attribute lookups at call time, so wrappers rebound on
        # polsp.hopfield see every call
        dyn = hopfield.build_dynamical_matrix(config, overlaps, q)
        return np.array([mode.Omega for mode in hopfield.diagonalize(dyn)])
    if method == "secular":
        return secular_roots(config, overlaps, q, window)
    if method == "one_exciton":
        return one_exciton_roots(config, overlaps, q, window)
    if method == "two_exciton":
        return two_exciton_roots(config, overlaps, q, window)
    if method == "green":
        return green_roots(config, q, window)
    if method == "classical":
        return np.sort(np.concatenate(_lorentz_classical_roots(config, q, window)))
    raise ConfigError(f"unknown sweep method {method!r}")


def _match_indices(previous: np.ndarray, current: np.ndarray, cap: float):
    # order-preserving assignment between two sorted root lists
    if len(previous) == len(current) and np.all(np.abs(previous - current) <= cap):
        # equal counts with every index pair inside the cap: index pairing
        # is the unique order-preserving perfect matching, degeneracies
        # included
        return [(k, k) for k in range(len(previous))]
    pairs = []
    i = j = 0
    while i < len(previous) and j < len(current):
        if abs(previous[i] - current[j]) <= cap:
            # a *distinct* competing candidate inside the cap means the
            # assignment is a guess; exact degeneracies pair by index
            def distinct(a, b):
                return abs(a - b) > 1e-12 * max(1.0, abs(a))
            crowded_prev = (i + 1 < len(previous)
                            and abs(previous[i + 1] - current[j]) <= cap
                            and distinct(previous[i + 1], previous[i]))
            crowded_curr = (j + 1 < len(current)
                            and abs(previous[i] - current[j + 1]) <= cap
                            and distinct(current[j + 1], current[j]))
            if crowded_prev or crowded_curr:
                raise BranchMatchError(
                    f"branch assignment ambiguous near Omega={current[j]:.6g}: "
                    "multiple candidates inside the slope cap")
            pairs.append((i, j))
            i += 1
            j += 1
        elif previous[i] < current[j]:
            i += 1
        else:
            j += 1
    return pairs


def sweep(config: CavityConfig, q_values, method: str | None = None,
          mapper=map) -> DispersionCurve:
    """Run the configured method over ascending q and label branches.

    Matching across adjacent q uses the physical slope cap c|dq| plus the
    root tolerance: polariton group velocity never exceeds c, so a larger
    jump is a different branch.  ``mapper`` is any order-preserving map
    (e.g. ThreadPoolExecutor.map); every per-q solve is independent, so
    the assembled curve is identical for any worker count.
    """
    qs = np.asarray([transverse_wavenumber(q) for q in q_values], dtype=float)
    if len(qs) == 0:
        raise ConfigError("q grid is empty")
    if np.any(np.diff(qs) <= 0) and len(qs) > 1:
        raise ConfigError("q grid must be strictly ascending")
    chosen = method or config.solver.method
    window = (0.0, config.solver.omega_max)
    overlaps = overlap_K(config)

    per_q = list(mapper(
        lambda q: _roots_for_method(config, overlaps, chosen, q, window), qs))

    branches: list[list[tuple[float, float]]] = [[(qs[0], w)] for w in per_q[0]]
    open_ids = list(range(len(per_q[0])))
    for step in range(1, len(qs)):
        cap = config.c * (qs[step] - qs[step - 1]) + config.solver.root_tol
        prev_roots = np.array([branches[b][-1][1] for b in open_ids])
        cur_roots = per_q[step]
        pairs = _match_indices(prev_roots, cur_roots, cap)
        matched_cur = {j for _, j in pairs}
        next_open = []
        for i, j in pairs:
            branches[open_ids[i]].append((qs[step], cur_roots[j]))
            next_open.append(open_ids[i])
        for j in range(len(cur_roots)):
            if j not in matched_cur:
                branches.append([(qs[step], cur_roots[j])])
                next_open.append(len(branches) - 1)
        # branches whose index is not matched simply stop extending
        next_open.sort(key=lambda b: (branches[b][-1][0], branches[b][-1][1]))
        open_ids = next_open

    arrays = tuple(np.array(b) for b in branches)
    return DispersionCurve(method=chosen, branches=arrays)
