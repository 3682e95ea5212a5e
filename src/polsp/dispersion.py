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

from .errors import (BracketError, BranchMatchError, ConfigError,
                     EvanescentError, PoleError, QuadratureError)
from .kk import LorentzSet
from .model import CavityConfig, validate
from .modes import OverlapSet, overlap_K, photon_frequencies

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
    found = []
    for i in range(len(xs) - 1):
        if signs[i] == 0.0:
            found.append((xs[i], xs[i], 0.0))
        elif signs[i] * signs[i + 1] < 0.0:
            found.append((xs[i], xs[i + 1], signs[i]))
    if signs[-1] == 0.0:
        found.append((xs[-1], xs[-1], 0.0))
    return found


def _brackets(f, lo: float, hi: float, n: int):
    """Sign-change brackets of f on n and on 2n - 1 equispaced points.

    linspace(lo, hi, n) equals linspace(lo, hi, 2n - 1)[::2] bit for bit,
    so f is evaluated once on the fine grid and the coarse brackets reuse
    every other sample.
    """
    xs = np.linspace(lo, hi, 2 * n - 1)
    signs = np.sign(np.array([f(x) for x in xs]))
    return _sign_changes(xs[::2], signs[::2]), _sign_changes(xs, signs)


def scan_roots(f, window: tuple[float, float], poles, *, exclusion: float,
               scan_points: int, rel_tol: float) -> np.ndarray:
    """All roots of f in the window, excluding pole neighborhoods.

    Each pole-free segment is bracketed twice, at scan_points and at double
    density; a differing bracket count means the grid cannot be trusted and
    raises BracketError rather than guessing.
    """
    roots = []
    for seg in pole_free_segments(window, poles, exclusion):
        lo, hi = seg
        coarse, fine = _brackets(f, lo, hi, scan_points)
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


def _scan(config: CavityConfig, f, window: tuple[float, float], poles) -> np.ndarray:
    """scan_roots with the configured exclusion, scan density and tolerance."""
    settings = config.solver
    return scan_roots(f, window, poles, exclusion=settings.pole_exclusion,
                      scan_points=settings.scan_points, rel_tol=settings.root_tol)


# --------------------------------------------------------------------------
# secular determinant
# --------------------------------------------------------------------------

def _coupling_strength_sum(config: CavityConfig, omega: float) -> float:
    # S(Omega) = sum_j G_j^2 / (omega_j^2 - Omega^2); the lossless
    # susceptibility of the configured species set
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

    def _reduced(self, omega: float) -> np.ndarray:
        om2 = self.photon_poles ** 2
        weights = 1.0 / (om2 - omega ** 2)
        s_val = _coupling_strength_sum(self.config, omega)
        K = self.overlaps.K
        core = K.T @ (weights[:, None] * K)
        return np.eye(core.shape[0]) - (omega ** 2 * s_val) * core

    def determinant_sign(self, omega: float) -> float:
        sign, _ = np.linalg.slogdet(self._reduced(omega))
        return sign

    def determinant(self, omega: float) -> float:
        sign, logdet = np.linalg.slogdet(self._reduced(omega))
        return sign * math.exp(min(logdet, 700.0))


def secular_roots(config: CavityConfig, overlaps: OverlapSet, q,
                  window: tuple[float, float]) -> np.ndarray:
    """Zeros of the secular determinant in the window, pole-split and bisected."""
    validate(config)
    overlaps.check_shape(config)
    op = SecularOperator(config=config, overlaps=overlaps, q=float(q))
    return _scan(config, op.determinant_sign, window, op.all_poles())


# --------------------------------------------------------------------------
# closed-form few-exciton relations (single species)
# --------------------------------------------------------------------------

def _closed_form_roots(value, name: str, needed_modes: int, config: CavityConfig,
                       overlaps: OverlapSet, q, window) -> np.ndarray:
    # the scan shared by both closed forms; value is the relation itself
    validate(config)
    overlaps.check_shape(config)
    if config.species_count() != 1:
        raise ConfigError(f"{name} requires exactly one species")
    if config.exciton_mode_count != needed_modes:
        raise ConfigError(
            f"{name} requires exciton_mode_count == {needed_modes}, "
            f"got {config.exciton_mode_count}")
    poles = np.concatenate([photon_frequencies(config, float(q)),
                            [config.oscillators[0].omega]])
    return _scan(config, lambda w: value(config, overlaps, w, q), window, poles)


def _weighted_column_sum(overlaps: OverlapSet, photon_freqs: np.ndarray,
                         omega: float, a: int, b: int) -> float:
    weights = 1.0 / (photon_freqs ** 2 - omega ** 2)
    return float(np.sum(overlaps.K[:, a] * overlaps.K[:, b] * weights))


def one_exciton_value(config: CavityConfig, overlaps: OverlapSet,
                      omega: float, q) -> float:
    """1 - G^2 Omega^2/(w0^2 - Omega^2) sum_m K[m,0]^2/(Omega_m^2 - Omega^2)."""
    sp = config.oscillators[0]
    freqs = photon_frequencies(config, float(q))
    factor = sp.G ** 2 * omega ** 2 / (sp.omega ** 2 - omega ** 2)
    return 1.0 - factor * _weighted_column_sum(overlaps, freqs, omega, 0, 0)


def one_exciton_roots(config: CavityConfig, overlaps: OverlapSet, q,
                      window: tuple[float, float]) -> np.ndarray:
    """Roots of the scalar single-matter-mode dispersion relation."""
    return _closed_form_roots(one_exciton_value, "one_exciton_roots", 1,
                              config, overlaps, q, window)


def two_exciton_value(config: CavityConfig, overlaps: OverlapSet,
                      omega: float, q) -> float:
    """(1 - Sigma_00)(1 - Sigma_11) - Sigma_01^2 for the two-mode relation."""
    sp = config.oscillators[0]
    freqs = photon_frequencies(config, float(q))
    factor = sp.G ** 2 * omega ** 2 / (sp.omega ** 2 - omega ** 2)
    s00 = factor * _weighted_column_sum(overlaps, freqs, omega, 0, 0)
    s11 = factor * _weighted_column_sum(overlaps, freqs, omega, 1, 1)
    s01 = factor * _weighted_column_sum(overlaps, freqs, omega, 0, 1)
    return (1.0 - s00) * (1.0 - s11) - s01 ** 2


def two_exciton_roots(config: CavityConfig, overlaps: OverlapSet, q,
                      window: tuple[float, float]) -> np.ndarray:
    """Roots of the two-matter-mode product-minus-cross-term relation."""
    return _closed_form_roots(two_exciton_value, "two_exciton_roots", 2,
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


def _slab_moments(l: float, count: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    # moments uC[xi] = int chi_xi cos-solution, uS[xi] = int chi_xi sin-solution
    h = l / 2.0
    norm = math.sqrt(2.0 / l)
    idx = np.arange(count)
    b = (idx + 1) * np.pi / l
    bh = (idx + 1) * np.pi / 2.0
    sinbh = np.sin(bh)
    cosbh = np.cos(bh)

    def sinc_int(k):
        return h * np.sinc(k * h / np.pi)

    if s > 0.0:
        qz = math.sqrt(s)
        uc = norm * sinbh * (sinc_int(b + qz) + sinc_int(b - qz))
        if qz * h >= 0.5:
            us = norm * cosbh * (sinc_int(b - qz) - sinc_int(b + qz)) / qz
        else:
            # same antiderivative rearranged to avoid the 0/0 at qz -> 0;
            # the denominator b^2 - s stays bounded away from zero here
            # because qz h < 0.5 < b h
            us = norm * cosbh * 2.0 * (
                sinbh * math.cos(qz * h) - b * cosbh * sinc_int(qz)) / (b ** 2 - s)
        return uc, us
    if s == 0.0:
        uc = norm * sinbh * 2.0 * sinc_int(b)
        us = norm * cosbh * 2.0 * (sinbh - b * cosbh * h) / b ** 2
        return uc, us
    kappa = math.sqrt(-s)
    den = kappa ** 2 + b ** 2
    sgn = (-1.0) ** (idx + 1)
    uc = norm * b * (1.0 - sgn) * math.cosh(kappa * h) / den
    us = -norm * b * (1.0 + sgn) * (math.sinh(kappa * h) / kappa) / den
    return uc, us


def _boundary_kernel_values(uc: np.ndarray, us: np.ndarray, s: float, h: float):
    # particular solution y_xi(z) = int g(z, z') chi_xi(z') dz' and its
    # derivative, evaluated at the slab faces z = +-h
    ch = cosine_solution(h, s)
    sh = sine_solution(h, s)
    value_plus = -0.5 * (sh * uc - ch * us)
    value_minus = -0.5 * (sh * uc + ch * us)
    deriv_plus = -0.5 * (ch * uc + s * sh * us)
    deriv_minus = 0.5 * (ch * uc - s * sh * us)
    return value_plus, value_minus, deriv_plus, deriv_minus


@lru_cache(maxsize=32)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _double_integral_quadrature(l: float, count: int, eta: int, s: float) -> np.ndarray:
    # column eta of the kernel double integral by nested Gauss-Legendre,
    # splitting the inner integral at the |z - z'| kink; used only near
    # the removable resonance of the closed form
    h = l / 2.0
    n = min(160, 48 + 8 * (eta + 1))
    x, w = _gauss_nodes(n)
    z = h * x
    wz = h * w
    norm = math.sqrt(2.0 / l)
    b_eta = (eta + 1) * np.pi / l

    def chi_eta(zz):
        return norm * np.sin(b_eta * (zz + h))

    def kernel(dist: np.ndarray) -> np.ndarray:
        if s > 0.0:
            r = math.sqrt(s)
            return -0.5 * np.sin(r * dist) / r
        if s == 0.0:
            return -0.5 * dist
        r = math.sqrt(-s)
        return -0.5 * np.sinh(r * dist) / r

    inner = np.empty_like(z)
    for i, zi in enumerate(z):
        total = 0.0
        for lo, hi in ((-h, zi), (zi, h)):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            zp = mid + half * x
            total += half * np.sum(w * kernel(np.abs(zi - zp)) * chi_eta(zp))
        inner[i] = total
    idx = np.arange(count)
    b_all = (idx + 1) * np.pi / l
    chi_all = norm * np.sin(np.outer(b_all, z + h))
    return chi_all @ (wz * inner)


def _kernel_double_integrals(l: float, count: int, s: float) -> np.ndarray:
    """Matrix of int int chi_xi(z) g(z, z') chi_eta(z') dz dz', closed form.

    Solving (d^2/dz^2 + s) y = -chi_eta with the kernel gives
    y = chi_eta/(b_eta^2 - s) plus a homogeneous correction fixed by the
    known boundary values of the kernel solution; projecting back onto
    chi_xi needs only the slab moments.  Near b_eta^2 = s the subtraction
    cancels catastrophically and that single column falls back to nested
    Gauss-Legendre quadrature, which is exact there.
    """
    h = l / 2.0
    norm = math.sqrt(2.0 / l)
    uc, us = _slab_moments(l, count, s)
    vp, _, dp, _ = _boundary_kernel_values(uc, us, s, h)
    ch = cosine_solution(h, s)
    sh = sine_solution(h, s)

    idx = np.arange(count)
    b = (idx + 1) * np.pi / l
    resonant = np.abs(b ** 2 - s) <= _RESONANT_RTOL * np.maximum(b ** 2, abs(s))

    out = np.empty((count, count))
    safe_den = np.where(resonant, 1.0, b ** 2 - s)
    # derivative of the partial-fraction term chi_eta/(b^2 - s) at z = +h
    grad_pf = norm * b * ((-1.0) ** (idx + 1)) / safe_den
    delta_value = vp
    delta_deriv = dp - grad_pf
    coeff_cos = ch * delta_value - sh * delta_deriv
    coeff_sin = s * sh * delta_value + ch * delta_deriv
    for eta in range(count):
        if resonant[eta]:
            out[:, eta] = _double_integral_quadrature(l, count, eta, s)
            continue
        column = coeff_cos[eta] * uc + coeff_sin[eta] * us
        column[eta] += 1.0 / (b[eta] ** 2 - s)
        out[:, eta] = column
    return out


def green_matching_matrix(config: CavityConfig, omega: float, q) -> np.ndarray:
    """The (Xi+4) homogeneous system whose determinant zeroes are eigenmodes.

    Unknowns: the Xi matter-projection coefficients, the two interior
    fundamental-solution amplitudes, and the two exterior amplitudes that
    already satisfy the mirror conditions.  Rows: Xi self-consistency rows,
    then value and derivative continuity at each slab face.
    """
    validate(config)
    qv = float(q)
    s = (omega / config.c) ** 2 - qv ** 2
    if s < 0.0 and not config.solver.allow_evanescent:
        raise EvanescentError(
            f"q={qv} exceeds Omega/c={omega / config.c}; set allow_evanescent")
    for sp in config.oscillators:
        if abs(sp.omega ** 2 - omega ** 2) <= 1e-300:
            raise PoleError(f"green system evaluated at species pole {sp.omega}")

    count = config.exciton_mode_count
    l, big_l = config.l, config.L
    h, gap = l / 2.0, (big_l - l) / 2.0
    beta = _coupling_strength_sum(config, omega) * omega ** 2 / config.c ** 2

    uc, us = _slab_moments(l, count, s)
    vp, vm, dp, dm = _boundary_kernel_values(uc, us, s, h)
    kernel_m = _kernel_double_integrals(l, count, s)
    ch, sh = cosine_solution(h, s), sine_solution(h, s)
    cg, sg = cosine_solution(gap, s), sine_solution(gap, s)

    size = count + 4
    mat = np.zeros((size, size))
    # self-consistency: c_xi = beta (sum_eta M[xi,eta] c_eta + A uc + B us)
    mat[:count, :count] = np.eye(count) - beta * kernel_m
    mat[:count, count] = -beta * uc
    mat[:count, count + 1] = -beta * us
    # continuity at z = -h against the left exterior solution
    mat[count, :count] = vm
    mat[count, count:count + 4] = [ch, -sh, -sg, 0.0]
    mat[count + 1, :count] = dm
    mat[count + 1, count:count + 4] = [s * sh, ch, -cg, 0.0]
    # continuity at z = +h against the right exterior solution
    mat[count + 2, :count] = vp
    mat[count + 2, count:count + 4] = [ch, sh, 0.0, sg]
    mat[count + 3, :count] = dp
    mat[count + 3, count:count + 4] = [-s * sh, ch, 0.0, -cg]
    if not np.all(np.isfinite(mat)):
        raise QuadratureError(
            f"green matching matrix not finite at Omega={omega:.6g}, q={qv:.6g}")
    return mat


def green_determinant(config: CavityConfig, omega: float, q) -> float:
    """Determinant of the matching system; its sign changes bracket roots."""
    return float(np.linalg.det(green_matching_matrix(config, omega, q)))


def green_roots(config: CavityConfig, q, window: tuple[float, float]) -> np.ndarray:
    """Sign-change roots of the Green-function determinant in the window."""
    validate(config)
    qv = float(q)
    lo, hi = window
    if not config.solver.allow_evanescent:
        lo = max(lo, qv * config.c * (1.0 + 1e-12))
    poles = [sp.omega for sp in config.oscillators]
    return _scan(config, lambda w: green_determinant(config, w, q), (lo, hi), poles)


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
    validate(config)
    qv = float(q)
    chi = _resolve_susceptibility(susceptibility)
    s = (omega / config.c) ** 2 - qv ** 2
    if s < 0.0 and not config.solver.allow_evanescent:
        raise EvanescentError(
            f"q={qv} exceeds Omega/c={omega / config.c}; set allow_evanescent")
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
    validate(config)
    qv = float(q)
    lo, hi = window
    if not config.solver.allow_evanescent:
        lo = max(lo, qv * config.c * (1.0 + 1e-12))

    def branch(which):
        def f(omega):
            return classical_branch_values(config, susceptibility, omega, qv)[which]
        return f

    return tuple(_scan(config, branch(which), (lo, hi), poles) for which in (0, 1))


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
    photon_mode_count: int
    exciton_mode_count: int
    species_count: int

    def branch_count(self) -> int:
        return len(self.branches)


def _roots_for_method(config: CavityConfig, overlaps, method: str, q: float,
                      window: tuple[float, float]) -> np.ndarray:
    if method == "dynamical":
        from .hopfield import spectrum
        return spectrum(config, q)
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
    validate(config)
    qs = np.asarray([float(q) for q in q_values], dtype=float)
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
    return DispersionCurve(method=chosen, branches=arrays,
                           photon_mode_count=config.photon_mode_count,
                           exciton_mode_count=config.exciton_mode_count,
                           species_count=config.species_count())
