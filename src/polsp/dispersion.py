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
at doubled density, and a changed bracket count raises BracketError; two
roots of one function in one cell of both grids still cancel unseen.  So
the secular and two-exciton scans take each mirror-parity factor alone,
while the Green scan, of the whole determinant, can miss two roots of
opposite parity in one scan cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from . import hopfield
from .errors import (BracketError, BranchMatchError, ConfigError,
                     EvanescentError, PoleError, QuadratureError)
from .kk import LorentzSet
from .model import CavityConfig, check_scan_points, transverse_wavenumber
from .modes import (OverlapSet, _sector_masks, overlap_K, photon_frequencies,
                    sine_half_integral)

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


def _fundamental_pairs(x, s) -> tuple[np.ndarray, np.ndarray]:
    # (cosine_solutions, sine_solutions) of the broadcast arrays x and s;
    # the masks for s = 0 and s < 0 are built only where such an s occurs
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


def cosine_solutions(x, s) -> np.ndarray:
    """cosine_solution elementwise over the broadcast arrays x and s."""
    return _fundamental_pairs(x, s)[0]


def sine_solutions(x, s) -> np.ndarray:
    """sine_solution elementwise over the broadcast arrays x and s."""
    return _fundamental_pairs(x, s)[1]


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
    always calls the scalar f.  ``scan_points`` must be an integer >= 2.
    """
    check_scan_points(scan_points)
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


def _at_one_point(grid):
    # the scalar evaluator that bisection calls: a grid evaluator on a
    # one-point array, so grid and bisection share their arithmetic
    return lambda omega: grid(np.array([omega]))[0]


# --------------------------------------------------------------------------
# secular determinant
# --------------------------------------------------------------------------

# doubles held by one chunk's stacked arrays: the reduced sector matrices of
# sector_signs, and in _green_determinants the matching matrices and
# kernel stack of one _green_matrices call (bisection builds single rows)
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

    @cached_property
    def _parity_sectors(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        # The sectors of _sector_masks: odd-m photons with even-xi matter
        # modes, even-m photons with odd-xi ones.  overlap_K zeroes K
        # exactly between them, so the reduced matrix is block diagonal and
        # its determinant the product of the blocks'; a K with cross-parity
        # entries becomes one sector holding every row and column.  A
        # sector without photons or matter modes has reduced determinant 1
        # and is left out.  Per sector:
        # P[m, p] = K[m, a] K[m, b] over the packed upper triangle
        # (a, b) = triu_indices, the squared photon poles, and the index
        # U[a, b] = U[b, a] = p that unpacks a row of W @ P into the
        # symmetric K^T W K.  P is filled one matter mode a at a time, so
        # no full-size temporary exists
        K = self.overlaps.K
        n = K.shape[0]
        sectors = []
        for mask in _sector_masks(n, K.shape[1], 1, (K,)):
            photons = mask[:n]
            block = K[np.ix_(photons, mask[n:])]
            if block.size == 0:
                continue
            count = block.shape[1]
            rows, cols = np.triu_indices(count)
            products = np.empty((block.shape[0], len(rows)))
            for a in range(count):
                products[:, rows == a] = block[:, a:a + 1] * block[:, a:]
            unpack = np.empty((count, count), dtype=np.intp)
            unpack[rows, cols] = unpack[cols, rows] = np.arange(len(rows))
            sectors.append((products, self._photon_poles_sq[photons], unpack))
        return tuple(sectors)

    def sector_signs(self, sector: int, omegas) -> np.ndarray:
        """The sign of one parity sector's reduced determinant at every frequency.

        ``sector`` indexes _parity_sectors; the product over the sectors is
        the sign of det(I - M).  Per chunk of frequencies the sector takes
        one matrix product of the scaled pole weights with its pair
        products, unpacks it into stacked symmetric reduced matrices and
        takes their signs from one batched slogdet; a chunk's arrays hold
        about _SIGN_CHUNK_DOUBLES doubles whatever the truncation.
        """
        omegas = np.asarray(omegas, dtype=float)
        omegas_sq = omegas ** 2
        factor = omegas_sq * _coupling_strength_sum(self.config, omegas)
        products, poles_sq, unpack = self._parity_sectors[sector]
        count = len(unpack)
        signs = np.empty(len(omegas))
        step = max(1, _SIGN_CHUNK_DOUBLES
                   // (len(poles_sq) + products.shape[1] + count * count))
        for start in range(0, len(omegas), step):
            part = slice(start, start + step)
            weights = -factor[part, None] / (poles_sq - omegas_sq[part, None])
            reduced = (weights @ products)[:, unpack]
            reduced.reshape(len(reduced), count * count)[:, ::count + 1] += 1.0
            signs[part] = np.linalg.slogdet(reduced)[0]
        return signs

    def determinant(self, omega: float) -> float:
        sign, logdet = np.linalg.slogdet(self._reduced(omega))
        return sign * math.exp(min(logdet, 700.0))


def secular_roots(config: CavityConfig, overlaps: OverlapSet, q,
                  window: tuple[float, float]) -> np.ndarray:
    """Zeros of the secular determinant in the window, pole-split and bisected.

    Each parity sector is scanned on its own, excluding the poles of both,
    so roots of the two sectors in one scan cell cannot cancel.
    """
    overlaps.check_shape(config)
    op = SecularOperator(config=config, overlaps=overlaps, q=transverse_wavenumber(q))
    poles = op.all_poles()
    sectors = [partial(op.sector_signs, k) for k in range(len(op._parity_sectors))]
    return np.sort(np.concatenate([
        _scan(config, _at_one_point(signs), window, poles, grid_signs=signs)
        for signs in sectors]))


# --------------------------------------------------------------------------
# closed-form few-exciton relations (single species)
# --------------------------------------------------------------------------

def _closed_form_roots(name: str, needed_modes: int, config: CavityConfig,
                       overlaps: OverlapSet, q, window) -> np.ndarray:
    # the scan shared by both closed forms.  Sigma_01 is exactly 0 when no
    # photon couples to both matter modes, as for every overlap_K, and the
    # relation is then the product of the factors 1 - Sigma_aa: each is
    # scanned on its own, so roots of both in one scan cell cannot cancel
    overlaps.check_shape(config)
    if config.species_count() != 1:
        raise ConfigError(f"{name} requires exactly one species")
    if config.exciton_mode_count != needed_modes:
        raise ConfigError(
            f"{name} requires exciton_mode_count == {needed_modes}, "
            f"got {config.exciton_mode_count}")
    K = overlaps.K
    if np.any(K[:, :1] * K[:, 1:]):
        relations = [_two_exciton]
    else:
        relations = [partial(_one_exciton, column=a) for a in range(needed_modes)]
    freqs = photon_frequencies(config, q)
    poles = np.concatenate([freqs, [config.oscillators[0].omega]])
    return np.sort(np.concatenate([
        _scan(config, lambda w, value=value: value(config, overlaps, freqs, w),
              window, poles) for value in relations]))


def _weighted_column_sum(overlaps: OverlapSet, photon_freqs: np.ndarray,
                         omega: float, a: int, b: int) -> float:
    weights = 1.0 / (photon_freqs ** 2 - omega ** 2)
    return float(np.sum(overlaps.K[:, a] * overlaps.K[:, b] * weights))


def _one_exciton(config: CavityConfig, overlaps: OverlapSet,
                 freqs: np.ndarray, omega: float, column: int = 0) -> float:
    # one_exciton_value of matter mode column at the photon frequencies
    # freqs, which a scan computes once
    sp = config.oscillators[0]
    factor = sp.G ** 2 * omega ** 2 / (sp.omega ** 2 - omega ** 2)
    return 1.0 - factor * _weighted_column_sum(overlaps, freqs, omega, column, column)


def one_exciton_value(config: CavityConfig, overlaps: OverlapSet,
                      omega: float, q) -> float:
    """1 - G^2 Omega^2/(w0^2 - Omega^2) sum_m K[m,0]^2/(Omega_m^2 - Omega^2)."""
    return _one_exciton(config, overlaps, photon_frequencies(config, q), omega)


def one_exciton_roots(config: CavityConfig, overlaps: OverlapSet, q,
                      window: tuple[float, float]) -> np.ndarray:
    """Roots of the scalar single-matter-mode dispersion relation."""
    return _closed_form_roots("one_exciton_roots", 1, config, overlaps, q, window)


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
    return _closed_form_roots("two_exciton_roots", 2, config, overlaps, q, window)


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
        self.norm_sinbh, self.norm_cosbh = self.norm * np.sin(bh), self.norm * np.cos(bh)
        self.sgn = (-1.0) ** (idx + 1)
        self.eye = np.eye(count)
        self.grad_pf = self.norm * self.b * self.sgn  # chi_xi'(h)
        # b + qz and b - qz as one row, b_pm + qz pm
        self.b_pm, self.pm = np.concatenate((self.b, self.b)), np.repeat([1.0, -1.0], count)
        # s below which qz h < 0.5, where the moments take the b^2 - s form
        self.near_s = (0.5 / self.h) ** 2


def _slab_moments(modes: _SlabModes, s) -> tuple[np.ndarray, np.ndarray]:
    # moments uC[xi] = int chi_xi C(z, s) dz and uS[xi] = int chi_xi S(z, s) dz
    # of the fundamental pair, one row per entry of the (n, 1) column s.
    # Rows with qz h >= 0.5 integrate cos(qz z) against the sines of b +- qz.
    # Every other row (small qz, s = 0 and s < 0) takes the closed form
    # norm b (C(h) or S(h))/(b^2 - s), the parity of chi_xi picking C or S;
    # its denominator stays away from zero there because qz h < 0.5 < b h
    count = len(modes.b)
    qz = np.sqrt(np.maximum(s, modes.near_s))
    ints = sine_half_integral(modes.b_pm + qz * modes.pm, modes.h)
    plus, minus = ints[:, :count], ints[:, count:]
    uc = modes.norm_sinbh * (plus + minus)
    us = modes.norm_cosbh * (minus - plus) / qz
    if s.min() < modes.near_s:
        near = s[:, 0] < modes.near_s
        s_near = s[near]
        ch, sh = _fundamental_pairs(modes.h, s_near)
        scale = modes.norm * modes.b / (modes.b_sq - s_near)
        uc[near] = scale * (1.0 - modes.sgn) * ch
        us[near] = -scale * (1.0 + modes.sgn) * sh
    return uc, us


def _boundary_kernel_values(uc: np.ndarray, us: np.ndarray, s, ch, sh):
    # particular solution y_xi(z) = int g(z, z') chi_xi(z') dz' and its
    # derivative, evaluated at the slab faces z = +-h, from the fundamental
    # pair ch, sh at z = h; s, ch, sh are (n, 1) columns for (n, Xi) moments.
    # The factor -1/2 of the kernel is taken into the columns, which rounds
    # no differently because it is a power of two
    half_sh, half_ch = -0.5 * sh, -0.5 * ch
    sh_uc, ch_us = half_sh * uc, half_ch * us
    ch_uc, s_sh_us = half_ch * uc, s * half_sh * us
    return sh_uc - ch_us, sh_uc + ch_us, ch_uc + s_sh_us, s_sh_us - ch_uc


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
    # where b_eta^2 - s is too small for the closed form; s <= 0 never is
    rows, cols = np.nonzero(np.abs(den) <= _RESONANT_RTOL * np.maximum(modes.b_sq, s))
    if len(rows):
        den = den.copy()
        den[rows, cols] = 1.0
    # the partial-fraction term's derivative at z = +h is grad_pf/(b^2 - s)
    delta_deriv = deriv_plus - modes.grad_pf / den
    coeff_cos = ch * value_plus - sh * delta_deriv
    coeff_sin = s * sh * value_plus + ch * delta_deriv
    out = uc[..., None] * coeff_cos[:, None] + us[..., None] * coeff_sin[:, None]
    out.reshape(len(out), len(b) ** 2)[:, ::len(b) + 1] += 1.0 / den
    for row, eta in zip(rows.tolist(), cols.tolist()):
        out[row, :, eta] = _double_integral_quadrature(modes, eta, float(s[row, 0]))
    return out


# The last four rows and columns of a matching matrix: value and derivative
# continuity at z = -h, then at z = +h, of the interior fundamental pair
# against the exterior one.  Each nonzero entry is a sign times one of
# (ch, cg, sh, sg, s sh), at a row and column counted from the end:
#     row -4:    ch   -sh   -sg     0
#     row -3:  s sh    ch   -cg     0
#     row -2:    ch    sh     0    sg
#     row -1: -s sh    ch     0   -cg
_FACE_ROWS = np.repeat([-4, -3, -2, -1], 3)
_FACE_COLS = np.array([-4, -3, -2] * 2 + [-4, -3, -1] * 2)
_FACE_ENTRIES = np.array([0, 2, 3, 4, 0, 1, 0, 2, 3, 4, 0, 1])
_FACE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0])


def _green_matrices(config: CavityConfig, modes: _SlabModes, omegas: np.ndarray,
                    qv: float) -> np.ndarray:
    """The (n, Xi+4, Xi+4) matching matrices at an (n, 1) column of frequencies.

    Every matching matrix is built here: the scan grid in chunks, bisection
    and the public entry points one row at a time.  The first row, in
    order, that lies below the light line without allow_evanescent, sits on
    a species pole or gives a matrix that is not finite raises
    EvanescentError, PoleError or QuadratureError, as evaluating the rows
    one at a time would.  A hyperbolic function that overflows makes its
    matrix not finite.
    """
    count = len(modes.b)
    s = (omegas / config.c) ** 2 - qv ** 2
    omegas_sq = omegas ** 2
    widths = np.array([modes.h, (config.L - config.l) / 2.0])
    with np.errstate(all="ignore"):
        beta = _coupling_strength_sum(config, omegas) * omegas_sq / config.c ** 2
        uc, us = _slab_moments(modes, s)
        # the fundamental pair at the slab half-width and at the gap width
        cos, sin = _fundamental_pairs(widths, s)
        ch, sh = cos[:, :1], sin[:, :1]
        vp, vm, dp, dm = _boundary_kernel_values(uc, us, s, ch, sh)
        kernel_m = _kernel_double_integrals(modes, s, uc, us, vp, dp, ch, sh)
        mats = np.zeros((len(s), count + 4, count + 4))
        # self-consistency: c_xi = beta (sum_eta M[xi,eta] c_eta + A uc + B us)
        neg_beta = -beta
        mats[:, :count, :count] = modes.eye + neg_beta[:, :, None] * kernel_m
        mats[:, :count, count] = neg_beta * uc
        mats[:, :count, count + 1] = neg_beta * us
        mats[:, count:, :count] = np.concatenate((vm, dm, vp, dp), axis=1).reshape(-1, 4, count)
        entries = np.concatenate((cos, sin, s * sh), axis=1)
        mats[:, _FACE_ROWS, _FACE_COLS] = entries[:, _FACE_ENTRIES] * _FACE_SIGNS
        # cheap supersets of the refused rows, which the loop below then
        # finds exactly: a non-finite entry makes the sum non-finite, and a
        # squared frequency within 1e-300 of a species pole's is either
        # equal to it, where beta is not finite, or below 1e-284, where
        # doubles lie that close together
        suspect = not math.isfinite(mats.sum()) or omegas_sq.min() < 1e-284
    if suspect or (not config.solver.allow_evanescent and s.min() < 0.0):
        for omega, mat in zip(omegas[:, 0].tolist(), mats):
            _longitudinal_sq(config, omega, qv)
            for sp in config.oscillators:
                if abs(sp.omega ** 2 - omega ** 2) <= 1e-300:
                    raise PoleError(f"green system evaluated at species pole {sp.omega}")
            if not np.isfinite(mat).all():
                raise QuadratureError(
                    f"green matching matrix not finite at Omega={omega:.6g}, q={qv:.6g}")
    return mats


def _green_determinants(config: CavityConfig, modes: _SlabModes, omegas: np.ndarray,
                        qv: float) -> np.ndarray:
    """det of the matching matrix at every frequency of an array, in batches.

    A chunk's stacked matrices hold about _SIGN_CHUNK_DOUBLES doubles
    whatever the truncation and share one np.linalg.det.  Chunks run in
    ascending order, so the first refused frequency raises its error.
    """
    omegas = np.asarray(omegas, dtype=float)
    dets = np.empty(len(omegas))
    step = max(1, _SIGN_CHUNK_DOUBLES // (2 * (len(modes.b) + 4) ** 2))
    for start in range(0, len(omegas), step):
        part = slice(start, start + step)
        dets[part] = np.linalg.det(_green_matrices(config, modes, omegas[part, None], qv))
    return dets


def green_matching_matrix(config: CavityConfig, omega: float, q) -> np.ndarray:
    """The (Xi+4) homogeneous system whose determinant zeroes are eigenmodes.

    Unknowns: the Xi matter-projection coefficients, the two interior
    fundamental-solution amplitudes, and the two exterior amplitudes that
    already satisfy the mirror conditions.  Rows: Xi self-consistency rows,
    then value and derivative continuity at each slab face.
    """
    modes = _SlabModes(config.l, config.exciton_mode_count)
    return _green_matrices(config, modes, np.full((1, 1), omega, dtype=float),
                           transverse_wavenumber(q))[0]


def green_determinant(config: CavityConfig, omega: float, q) -> float:
    """Determinant of the matching system; its sign changes bracket roots."""
    return float(np.linalg.det(green_matching_matrix(config, omega, q)))


def green_roots(config: CavityConfig, q, window: tuple[float, float]) -> np.ndarray:
    """Sign-change roots of the Green-function determinant in the window.

    The scan grid is evaluated in batches and bisection one frequency at a
    time, both through _green_determinants.
    """
    qv = transverse_wavenumber(q)
    dets = partial(_green_determinants, config,
                   _SlabModes(config.l, config.exciton_mode_count), qv=qv)
    poles = [sp.omega for sp in config.oscillators]
    return _scan(config, _at_one_point(dets), _propagating_window(config, qv, window),
                 poles, grid_signs=dets)


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
        return hopfield.frequencies(dyn)
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
