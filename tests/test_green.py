"""Green-function matching route against quadrature oracles.

The kernel double integrals have a closed form whose derivation is long
enough to deserve an independent check: nested adaptive quadrature of the
defining integral, split at the |z - z'| kink.  The matching determinant
itself is anchored by the empty cavity (exact eigenfrequencies known) and
by the mode-sum route at large photon truncation.  The root count that
green_roots multisects is checked against the dynamical spectrum, the
secular roots and the sign changes of the matching determinant.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from polsp import (PoleError, QuadratureError, cosine_solution, green_determinant,
                   green_matching_matrix, green_roots, one_exciton_roots,
                   overlap_K, pole_free_segments, secular_roots, sine_solution)
from polsp import dispersion, hopfield
from polsp.cli import parse_config, sweep_grid
from polsp.dispersion import (_SlabModes, _fundamental_pairs, _green_counts,
                              _green_kernel, _green_matrices, _green_sectors)
from conftest import make_config
from test_golden import CONFIGS as GOLDEN_CONFIGS


def sector_arrays(l: float, count: int, s) -> list:
    # per parity sector: its modes, the slab moments of C and of S and the
    # kernel at the (n, 1) column s, each computed exactly as the sector's
    # matching matrix computes them, from _green_kernel; a sector takes only
    # the moment u = -2 chi'(h) phi of its own interior solution, so the
    # other one is an exact 0
    ch, sh = _fundamental_pairs(l / 2.0, s)
    out = []
    for parity, y_h, z_h in ((0, ch, sh), (1, sh, -ch)):
        modes = _SlabModes(l, count, parity)
        phi, kernel = _green_kernel(modes, s, y_h, z_h)
        u = -2.0 * modes.grad_pf * phi
        other = np.zeros_like(u)
        uc, us = (other, u) if parity else (u, other)
        out.append((modes, uc, us, kernel))
    return out


def full_moments(l: float, count: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    # both sectors' moments scattered over every xi; a moment of the other
    # sector's parity is zero
    uc, us = np.zeros(count), np.zeros(count)
    for modes, sector_uc, sector_us, _ in sector_arrays(l, count, np.full((1, 1), s)):
        uc[modes.idx], us[modes.idx] = sector_uc[0], sector_us[0]
    return uc, us


def closed_form_kernel(l: float, count: int, s: float) -> np.ndarray:
    # both sectors' closed-form kernels scattered into the full matrix; an
    # entry between the sectors is zero
    out = np.zeros((count, count))
    for modes, _, _, kernel in sector_arrays(l, count, np.full((1, 1), s)):
        out[np.ix_(modes.idx, modes.idx)] = kernel[0]
    return out


def oracle_double_integral(l: float, xi: int, eta: int, s: float) -> float:
    # int chi_xi(z) dz int g(z, z') chi_eta(z') dz', kink split explicitly
    h = l / 2.0
    norm = np.sqrt(2.0 / l)

    def chi(k, z):
        return norm * np.sin((k + 1) * np.pi * (z + h) / l)

    if s > 0.0:
        r = np.sqrt(s)
        kernel = lambda d: -0.5 * np.sin(r * d) / r
    elif s == 0.0:
        kernel = lambda d: -0.5 * d
    else:
        r = np.sqrt(-s)
        kernel = lambda d: -0.5 * np.sinh(r * d) / r

    def inner(z):
        left, _ = quad(lambda zp: kernel(z - zp) * chi(eta, zp), -h, z,
                       limit=200, epsabs=1e-13, epsrel=1e-12)
        right, _ = quad(lambda zp: kernel(zp - z) * chi(eta, zp), z, h,
                        limit=200, epsabs=1e-13, epsrel=1e-12)
        return left + right

    val, err = quad(lambda z: chi(xi, z) * inner(z), -h, h,
                    limit=200, epsabs=1e-12, epsrel=1e-11)
    assert err < 1e-9
    return val


def oracle_moments(l: float, count: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    # uC[xi] = int chi_xi(z) C(z, s) dz and uS[xi] = int chi_xi(z) S(z, s) dz
    # over the slab by adaptive quadrature, with the fundamental pair
    # written out per regime
    h = l / 2.0
    norm = np.sqrt(2.0 / l)
    if s > 0.0:
        r = np.sqrt(s)
        pair = (lambda z: np.cos(r * z), lambda z: np.sin(r * z) / r)
    elif s == 0.0:
        pair = (lambda z: 1.0, lambda z: z)
    else:
        r = np.sqrt(-s)
        pair = (lambda z: np.cosh(r * z), lambda z: np.sinh(r * z) / r)
    # the moments of the wrong parity vanish, so the absolute tolerance
    # follows the size of the integrand, which C(h, s) bounds
    tol = 1e-14 * max(1.0, abs(pair[0](h)))
    out = np.empty((2, count))
    for xi in range(count):
        for k, fn in enumerate(pair):
            out[k, xi], err = quad(
                lambda z: norm * np.sin((xi + 1) * np.pi * (z + h) / l) * fn(z),
                -h, h, limit=200, epsabs=tol, epsrel=1e-13)
            assert err < 100 * tol + 1e-12 * abs(out[k, xi])
    return out[0], out[1]


# qz h = sqrt(s) h at h = 0.45: 2.7, 0.78 and 0.5001 take the sines of
# b +- qz, the first resonance b_0^2 = s among them; 0.4999, 0.3 and 1e-7
# are below the 0.5 switch; then s = 0 and two evanescent points
MOMENT_S = [37.0, 3.0, (np.pi / 0.9) ** 2, (0.5001 / 0.45) ** 2, (0.4999 / 0.45) ** 2,
            (0.3 / 0.45) ** 2, (1e-7 / 0.45) ** 2, 0.0, -11.0, -400.0]


@pytest.mark.parametrize("s", MOMENT_S)
def test_slab_moments_match_quadrature(s):
    l, count = 0.9, 5
    for got, expected in zip(full_moments(l, count, s), oracle_moments(l, count, s)):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_slab_moments_rows_are_independent():
    # every regime in one column gives each row the moments it has alone
    column = sector_arrays(0.9, 5, np.array(MOMENT_S)[:, None])
    for row, s in enumerate(MOMENT_S):
        alone = sector_arrays(0.9, 5, np.full((1, 1), s))
        for sector, sector_alone in zip(column, alone):
            for got, expected in zip(sector[1:3], sector_alone[1:3]):
                np.testing.assert_allclose(got[row], expected[0], rtol=1e-14,
                                           atol=1e-14 * np.max(np.abs(expected)))


@pytest.mark.parametrize("s", [37.0, 3.0, 0.0, -11.0])
def test_kernel_double_integrals_match_quadrature(s):
    l = 0.9
    M = closed_form_kernel(l, 3, s)
    for xi in range(3):
        for eta in range(3):
            assert M[xi, eta] == pytest.approx(
                oracle_double_integral(l, xi, eta, s), abs=2e-10)


def resonant_kernel_s(l: float, eta: int) -> list:
    # s on and near b_eta^2 = s, where Y(h) and b_eta^2 - s vanish
    # together, and just inside and outside |Delta| = 1/4, where phi and the
    # diagonal switch to their limits in Delta = (sqrt(s) - b_eta) h
    b, h = (eta + 1) * np.pi / l, l / 2.0
    return ([b * b * f for f in (1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 2e-4, 1.0 - 2e-4,
                                 1.0 + 1e-3, 1.0 - 1e-3)]
            + [(b + d / h) ** 2 for d in (0.2499, 0.2501, -0.2499, -0.2501)])


def test_kernel_double_integrals_exact_at_resonances():
    # the closed form carries the removable zero at b_eta^2 = s exactly:
    # every entry agrees with the adaptive oracle relative to the largest
    # one, for the first column of each sector and an inner one, with no
    # numpy warning on the way.  Subtracting b_eta^2 - s lost two digits
    # (1.4e-12) just outside a relative 1e-4 band
    l = 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta in range(3):
            for s in resonant_kernel_s(l, eta):
                M = closed_form_kernel(l, 3, s)
                expected = np.array([[oracle_double_integral(l, xi, col, s)
                                      for col in range(3)] for xi in range(3)])
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(M - expected)) <= 1e-13 * scale, (eta, s)


def gauss_legendre_column(modes: _SlabModes, eta: int, s: float) -> np.ndarray:
    # column eta of the sector's kernel double integrals by nested
    # Gauss-Legendre, splitting the inner integral at the |z - z'| kink and
    # sizing the rule from the mode's xi
    h, norm, b_eta = modes.h, np.sqrt(1.0 / modes.h), modes.b[eta]
    x, w = np.polynomial.legendre.leggauss(min(160, 48 + 8 * (int(modes.idx[eta]) + 1)))
    z = h * x
    wz = h * w

    def chi_eta(zz):
        return norm * np.sin(b_eta * (zz + h))

    # inner integral at every outer node z_i, over (-h, z_i) and (z_i, h)
    lo = np.stack([np.full_like(z, -h), z], axis=1)[:, :, None]
    hi = np.stack([z, np.full_like(z, h)], axis=1)[:, :, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    zp = mid + half * x
    kernel = -0.5 * _fundamental_pairs(np.abs(z[:, None, None] - zp), s)[1]
    parts = half[:, :, 0] * np.sum(w * kernel * chi_eta(zp), axis=2)
    inner = parts[:, 0] + parts[:, 1]
    chi_all = norm * np.sin(np.outer(modes.b, z + h))
    return chi_all @ (wz * inner)


@pytest.mark.parametrize("s", [-400.0, -2500.0, -10000.0])
def test_kernel_double_integrals_stay_exact_far_below_the_light_line(s):
    # kappa h = 9, 22.5 and 45 at h = 0.45: each sector's closed form has
    # one term, so no two e^(3 kappa h)-sized terms cancel; every column
    # agrees with nested Gauss-Legendre relative to its largest entry
    for modes, _, _, kernel in sector_arrays(0.9, 5, np.full((1, 1), s)):
        for eta in range(len(modes.b)):
            expected = gauss_legendre_column(modes, eta, s)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(kernel[0, :, eta] - expected)) <= 1e-12 * scale


def test_matching_matrix_shape_and_finiteness():
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=4, exciton=3)
    mat = green_matching_matrix(cfg, 2.0, 0.0)
    assert mat.shape == (7, 7)
    assert np.all(np.isfinite(mat))


def test_empty_cavity_green_roots_are_exact_lines():
    cfg = make_config(L=1.0, l=0.5, species=((5.0, 0.0),), photon=4,
                      exciton=2, omega_max=17.0, root_tol=1e-12)
    roots = green_roots(cfg, 0.0, (0.5, 17.0))
    expected = np.pi * np.arange(1, 6)
    assert len(roots) == 5
    assert np.max(np.abs(roots - expected) / expected) < 1e-10


def test_empty_cavity_green_roots_with_transverse_momentum():
    cfg = make_config(L=1.0, l=0.5, species=((5.0, 0.0),), photon=4,
                      exciton=2, omega_max=17.0, root_tol=1e-12)
    q = 2.0
    roots = green_roots(cfg, q, (0.5, 17.0))
    expected = np.hypot(np.pi * np.arange(1, 6), q)
    assert roots == pytest.approx(expected, rel=1e-10)


def test_evanescent_region_opt_in():
    # below the light line the matrix is continued through cosh and sinh
    cfg = make_config(species=((4.0, 1.0),))
    mat = green_matching_matrix(cfg, 1.0, 2.0)
    assert np.all(np.isfinite(mat))
    assert np.isfinite(green_determinant(cfg, 1.0, 2.0))


def guided_cavity(exciton):
    # one species below the light line at q = 40 and 60, where the guided
    # modes crowd just under its resonance
    return make_config(species=((4.0, 1.0),), exciton=exciton, photon=400, root_tol=1e-12)


def test_green_finds_the_guided_modes_at_kappa_h_15():
    # q = 60, kappa h = 15: the sector signs bracket exactly the two guided
    # modes the secular route counts only while the kernel stays exact
    # this far below the light line
    cfg = guided_cavity(2)
    roots = green_roots(cfg, 60.0, (0.0, 4.0))
    secular = secular_roots(cfg, overlap_K(cfg), 60.0, (0.0, 4.0))
    assert len(roots) == len(secular) == 2
    assert np.max(np.abs(roots - secular) / secular) <= 1e-8


def test_green_roots_below_the_light_line_are_secular_roots():
    # q = 40, Xi = 6: the counts find all 6 guided modes, which crowd two
    # to a cell of a 400-point scan and cancelled there
    cfg = guided_cavity(6)
    roots = green_roots(cfg, 40.0, (0.0, 4.0))
    secular = secular_roots(cfg, overlap_K(cfg), 40.0, (0.0, 4.0))
    assert len(roots) == len(secular) == 6
    assert np.max(np.abs(roots - secular) / secular) <= 1e-8


@pytest.mark.parametrize("q", [20.0, 120.0])
def test_green_counts_the_crowded_guided_modes(q):
    # the six guided modes of one sector pair lie 0.0004-0.001 apart just
    # below the resonance.  A 400-point sign scan returned 2 of them at
    # q = 20 and raised BracketError at q = 120 (kappa h = 30), where the
    # determinant's sign is rounding noise; the counts find all 6
    cfg = guided_cavity(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = green_roots(cfg, q, (0.0, 4.0))
    secular = secular_roots(cfg, overlap_K(cfg), q, (0.0, 4.0))
    assert len(roots) == len(secular) == 6
    assert np.max(np.abs(roots - secular)) <= 1e-9


def test_overflowing_evanescent_matrix_is_a_quadrature_error():
    # far below the light line cosh(sqrt(-s) h) overflows; the matrix is
    # then not finite, a typed error with no numpy warning on the way.
    # green_roots counts from ratios and builds no matrix: it returns, and
    # its roots there lie inside the default pole exclusion
    cfg = make_config(species=((4.0, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite at Omega=1, q=3000"):
            green_determinant(cfg, 1.0, 3000.0)
        assert len(green_roots(cfg, 3000.0, (0.5, 10.0))) == 0


def test_pole_within_the_square_tolerance_is_refused_where_beta_stays_finite():
    # Omega^2 lies 2e-307 from the species pole's square, inside the 1e-300
    # pole tolerance, yet G^2/(omega^2 - Omega^2) times Omega^2 stays finite
    cfg = make_config(species=((1e-150, 1.0),), photon=4, exciton=2)
    omega = 1.0000001e-150
    with pytest.raises(PoleError, match="species pole 1e-150"):
        green_determinant(cfg, omega, 0.0)


def test_green_matches_mode_sum_and_improves_with_truncation():
    # slab in a long cavity: the mode-sum route needs many photon modes
    # to represent the continuum the matching route treats exactly
    devs = []
    for photon in (250, 1000):
        cfg = make_config(L=20.0, l=0.5, species=((4.0, 1.0),),
                          photon=photon, exciton=1,
                          root_tol=1e-12, pole_exclusion=1e-5,
                          scan_points=400, omega_max=5.0)
        window = (3.0, 5.0)
        ref = green_roots(cfg, 0.0, window)
        # uncoupled photon lines appear only in the matching route; they
        # sit exactly on the mode frequencies, which the mode-sum form
        # treats as poles, so both sides are trimmed around those points
        lines = np.pi * np.arange(1, 40) * cfg.c / cfg.L
        keep = np.min(np.abs(ref[:, None] - lines[None, :]), axis=1) > 1e-5
        ref = ref[keep]
        approx = one_exciton_roots(cfg, overlap_K(cfg), 0.0, window)
        assert len(ref) == len(approx)
        devs.append(np.max(np.abs(ref - approx) / ref))
    assert devs[1] < devs[0] < 1e-6


def test_green_determinant_sign_brackets_quartic_root():
    # the matching determinant changes sign across the polariton root
    # predicted by the single-mode analysis near the first photon line
    cfg = make_config(L=1.0, l=0.5, c=1.0 / np.pi, species=((1.0, 0.35),),
                      photon=1, exciton=1, root_tol=1e-12)
    roots = green_roots(cfg, 0.0, (0.5, 1.6))
    assert len(roots) >= 2
    # lower root below both bare lines, upper above, as for any 2x2 mixing
    assert roots[0] < 1.0 < roots[-1]


# ---------------------------------------------------------------------------
# stacked matching matrices against the scalar entry points
# ---------------------------------------------------------------------------

def test_array_fundamental_pair_matches_the_scalar_one():
    # every sign of s, s = 0 included, against the math-module pair
    xs = np.array([0.0, 0.3, 1.7, 4.0])
    ss = np.array([-40.0, -1e-3, 0.0, 2e-9, 5.0, 900.0])
    cos_arr, sin_arr = _fundamental_pairs(xs[:, None], ss[None, :])
    for i, x in enumerate(xs):
        for j, s in enumerate(ss):
            assert cos_arr[i, j] == pytest.approx(cosine_solution(x, s), rel=1e-14)
            assert sin_arr[i, j] == pytest.approx(sine_solution(x, s), rel=1e-14,
                                                  abs=1e-300)


def green_grid(cfg, q):
    # the product of the sector determinants of one stack of matching
    # matrices per sector, on an array of frequencies; the even sector is
    # evaluated first
    sectors = _green_sectors(cfg)
    return lambda xs: np.prod([
        np.linalg.det(_green_matrices(cfg, modes, np.asarray(xs, dtype=float)[:, None], q))
        for modes in sectors], axis=0)


def scalar_grid_signs(cfg, q, xs):
    return np.sign([green_determinant(cfg, x, q) for x in xs])


def two_face_determinants(cfg, q, xs) -> np.ndarray:
    # det of the (Xi+4) matching system before the parity split, matched at
    # both slab faces.  Unknowns: every c_xi, the amplitudes of C and S
    # inside the slab, and those of the left and right gap solutions
    # -S(z + L/2) and S(L/2 - z).  Rows: the Xi self-consistency rows, then
    # value and derivative continuity at z = -h and at z = +h.  Only the
    # slab moments and the kernel come from the sector code, scattered
    omegas = np.asarray(xs, dtype=float)[:, None]
    s = (omegas / cfg.c) ** 2 - q ** 2
    count, n = cfg.exciton_mode_count, len(omegas)
    ch, sh = _fundamental_pairs(cfg.l / 2.0, s)
    cg, sg = _fundamental_pairs((cfg.L - cfg.l) / 2.0, s)
    beta = sum(sp.G ** 2 / (sp.omega ** 2 - omegas ** 2)
               for sp in cfg.oscillators) * omegas ** 2 / cfg.c ** 2
    uc, us, kernel = np.zeros((n, count)), np.zeros((n, count)), np.zeros((n, count, count))
    for modes, sector_uc, sector_us, sector_kernel in sector_arrays(cfg.l, count, s):
        uc[:, modes.idx], us[:, modes.idx] = sector_uc, sector_us
        kernel[:, modes.idx[:, None], modes.idx] = sector_kernel
    # the kernel solution's value and derivative at z = -h and z = +h
    half_sh, half_ch = -0.5 * sh, -0.5 * ch
    vm, vp = half_sh * uc + half_ch * us, half_sh * uc - half_ch * us
    dm, dp = s * half_sh * us - half_ch * uc, half_ch * uc + s * half_sh * us
    zero = np.zeros_like(ch)
    mats = np.zeros((n, count + 4, count + 4))
    mats[:, :count, :count] = np.eye(count) - beta[:, :, None] * kernel
    mats[:, :count, count], mats[:, :count, count + 1] = -beta * uc, -beta * us
    mats[:, count:, :count] = np.stack((vm, dm, vp, dp), axis=1)
    mats[:, count:, count:] = np.concatenate(
        (ch, -sh, -sg, zero,             # value at -h
         s * sh, ch, -cg, zero,          # derivative at -h
         ch, sh, zero, sg,               # value at +h
         -s * sh, ch, zero, -cg),        # derivative at +h
        axis=1).reshape(n, 4, 4)
    return np.linalg.det(mats)


def assert_split_keeps_the_two_face_sign(cfg, q, xs):
    # sign(two-face det) * sign(product of the sector dets) is one constant
    # at every frequency of a case: the split changes no sign change
    ratio = np.sign(two_face_determinants(cfg, q, xs)) * np.sign(green_grid(cfg, q)(xs))
    assert ratio[0] != 0.0
    np.testing.assert_array_equal(ratio, ratio[0])


def assert_green_grid_signs_match(cfg, q):
    # the batched grid against np.sign of the scalar determinant and of the
    # two-face determinant on the full 2n - 1 grid of every pole-free
    # segment of the green scan; returns the number of sign changes seen
    green_signs = green_grid(cfg, float(q))
    settings = cfg.solver
    segments = pole_free_segments((0.0, settings.omega_max),
                                  [sp.omega for sp in cfg.oscillators],
                                  settings.pole_exclusion)
    assert segments
    changes = 0
    grid = []
    for lo, hi in segments:
        xs = np.linspace(lo, hi, 2 * settings.scan_points - 1)
        expected = scalar_grid_signs(cfg, q, xs)
        np.testing.assert_array_equal(np.sign(green_signs(xs)), expected)
        changes += int(np.sum(expected[:-1] != expected[1:]))
        grid.append(xs)
    assert_split_keeps_the_two_face_sign(cfg, float(q), np.concatenate(grid))
    return changes


def golden_green_cases():
    # every golden config at both ends of its q grid, scanned by green
    for name, text in GOLDEN_CONFIGS.items():
        cfg, snapshot = parse_config(text)
        qs = sweep_grid(snapshot)
        for q in sorted({float(qs[0]), float(qs[-1])}):
            yield pytest.param(cfg, q, id=f"{name}-q{q:g}")


@pytest.mark.parametrize("cfg,q", list(golden_green_cases()))
def test_green_grid_signs_match_scalar_on_golden_configs(cfg, q):
    assert_green_grid_signs_match(cfg, q)


README_CAVITY = dict(L=1.0, l=0.5, species=((20.0, 3.0),), photon=64, exciton=16,
                     omega_max=17.0, scan_points=800)


@pytest.mark.parametrize("q", [0.0, 1.5, 4.0])
def test_green_grid_signs_match_scalar_on_readme_cavity(q):
    assert assert_green_grid_signs_match(make_config(**README_CAVITY), q) > 0


def random_green_case(rng):
    # a random cavity and q with a frequency list that holds exact
    # resonances b_eta^2 = s, s = 0, qz h < 0.5 and, in 40% of the cases,
    # evanescent points; species poles themselves are left out
    L = rng.uniform(0.6, 3.0)
    l = rng.uniform(0.2, 1.0) * L
    c = rng.choice([1.0, rng.uniform(0.5, 1.5)])
    species = [(rng.uniform(1.0, 30.0), rng.uniform(0.0, 4.0))
               for _ in range(rng.integers(1, 4))]
    if rng.random() < 0.4:
        species[0] = (species[0][0], 0.0)
    evanescent = bool(rng.random() < 0.4)
    cfg = make_config(L=L, l=l, c=c, species=tuple(species), photon=4,
                      exciton=int(rng.integers(1, 20)))
    q = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
    h = l / 2.0
    b = (np.arange(cfg.exciton_mode_count) + 1) * np.pi / l
    small_qz = np.concatenate([rng.uniform(0.0, 0.5 / h, 6), [1e-7 / h]])
    omegas = [c * np.hypot(b, q),                     # s = b_eta^2
              [q * c],                                # s = 0
              c * np.hypot(small_qz, q),              # qz h < 0.5
              rng.uniform(q * c, q * c + 40.0, 150)]  # propagating
    if evanescent:
        omegas.append(rng.uniform(0.0, q * c, 20))    # s < 0
    omegas = np.concatenate(omegas)
    poles = np.array([w for w, _ in species])
    omegas = omegas[np.min(np.abs(omegas[:, None] - poles), axis=1) > 1e-9]
    if not evanescent:
        # c hypot(0, q) / c can round to just below q
        omegas = omegas[(omegas / c) ** 2 - q ** 2 >= 0.0]
    return cfg, q, omegas


def test_green_grid_signs_match_scalar_on_random_cases():
    rng = np.random.default_rng(20261018)
    points = 0
    for _ in range(60):
        cfg, q, omegas = random_green_case(rng)
        np.testing.assert_array_equal(np.sign(green_grid(cfg, q)(omegas)),
                                      scalar_grid_signs(cfg, q, omegas))
        assert_split_keeps_the_two_face_sign(cfg, q, omegas)
        points += len(omegas)
    assert points > 8000


def scan_green(cfg, q, evaluators, scan_points=None):
    # the sign scan of every array evaluator over the green window's
    # species-pole-free segments, merged: brackets at scan_points and at
    # double density, which must agree, halved in lockstep to root_tol
    settings = cfg.solver
    points = scan_points or settings.scan_points
    segments = pole_free_segments((0.0, settings.omega_max),
                                  [sp.omega for sp in cfg.oscillators],
                                  settings.pole_exclusion)
    roots = []
    for signs in evaluators:
        brackets = []
        for lo, hi in segments:
            coarse, fine = dispersion._brackets(signs, lo, hi, points)
            assert len(coarse) == len(fine), (lo, hi)
            brackets += fine
        roots.append(dispersion._bisect_sign(signs, brackets, settings.root_tol))
    return np.sort(np.concatenate(roots))


def scalar_sector_scans(cfg, q):
    # each parity sector's determinant, one frequency at a time on the grid
    # as in bisection
    return [lambda xs, modes=modes: np.array([np.linalg.det(
        _green_matrices(cfg, modes, np.full((1, 1), w), q)[0]) for w in xs])
        for modes in _green_sectors(cfg)]


# a second config whose whole-determinant scan at 400 points lost the two
# opposite-parity roots near 6.0887 and 6.0895; 20000 points find them
CROWDED_CASE = (make_config(L=1.4, l=0.9, c=0.8,
                            species=((6.0, 1.2), (9.0, 0.0), (13.0, 0.7)),
                            photon=8, exciton=7, omega_max=16.0,
                            root_tol=1e-12, pole_exclusion=5e-2), 0.7)


def test_green_roots_equal_the_scalar_scan():
    # multisecting the sectors' counts finds the roots of each sector
    # determinant's scalar sign scan, each within root_tol: both stop once
    # their bracket is that narrow
    for cfg, q in [(make_config(L=1.0, l=0.5, species=((20.0, 3.0),), photon=24,
                                exciton=4, omega_max=12.0, scan_points=200), 2.0),
                   CROWDED_CASE,
                   (make_config(**README_CAVITY), 1.5)]:
        counted = green_roots(cfg, q, (0.0, cfg.solver.omega_max))
        scalar = scan_green(cfg, q, scalar_sector_scans(cfg, q))
        assert len(counted) == len(scalar) > 0
        assert np.all(np.abs(counted - scalar)
                      <= cfg.solver.root_tol * np.maximum(1.0, scalar))


def test_green_multisection_counts_once_per_step_per_sector(monkeypatch):
    # 11 roots in each sector.  Multisecting every interval of a sector in
    # lockstep takes one counts call for the segment ends and one per step,
    # and no matching matrix is built
    cfg = make_config(L=1.0, l=0.5, species=((100.0, 3.0),), photon=8, exciton=4,
                      omega_max=70.0)
    calls = []
    monkeypatch.setattr(dispersion, "_green_counts",
                        lambda *args: calls.append(1) or _green_counts(*args))
    monkeypatch.setattr(dispersion, "_green_matrices", None)
    roots = green_roots(cfg, 0.0, (0.0, cfg.solver.omega_max))
    settings = cfg.solver
    steps = int(np.ceil(np.log(settings.omega_max / settings.root_tol)
                        / np.log(dispersion._COUNT_SECTIONS)))
    assert len(roots) == 22
    assert 0 < len(calls) <= 2 * (1 + steps)


def test_sector_scan_finds_what_a_dense_whole_scan_finds():
    cfg, q = CROWDED_CASE
    roots = green_roots(cfg, q, (0.0, cfg.solver.omega_max))
    # one scan of the whole determinant, its grid one stack per sector
    dense = scan_green(cfg, q, [green_grid(cfg, q)], scan_points=20000)
    assert len(roots) == len(dense) == 13
    assert np.max(np.abs(roots - dense) / dense) <= cfg.solver.root_tol
    assert np.min(np.abs(roots - 6.0887018342)) < 1e-9
    assert np.min(np.abs(roots - 6.0894888954)) < 1e-9


@pytest.mark.parametrize("scan_points", [34, 60, 100, 200])
def test_opposite_parity_roots_in_one_scan_cell_are_both_found(scan_points):
    # 13.0037 (even sector) and 13.0101 (odd sector) are 0.0064 apart: a
    # scan of the whole determinant at each of these densities saw their
    # sign changes cancel and returned 6 roots.  The secular route at 400
    # photons agrees
    def cavity(photon, points):
        return make_config(L=1.0, l=0.8, species=((13.0, 0.3),), photon=photon,
                           exciton=2, omega_max=20.0, root_tol=1e-12,
                           scan_points=points)
    roots = green_roots(cavity(5, scan_points), 0.25, (0.0, 20.0))
    reference = cavity(400, 400)
    secular = secular_roots(reference, overlap_K(reference), 0.25, (0.0, 20.0))
    assert len(roots) == len(secular) == 8
    assert np.max(np.abs(roots - secular)) < 5e-11
    for root in (13.003742, 13.010113):
        assert np.min(np.abs(roots - root)) < 1e-6


def test_two_species_golden_config_scans_without_bracket_error():
    # c10_two_species at q = 0: the whole-determinant scan raised
    # BracketError at 400 points.  The counts read no scan_points, so
    # 400 and 4000 give the same roots
    cfg, _ = parse_config(GOLDEN_CONFIGS["c10_two_species"])
    window = (0.0, cfg.solver.omega_max)
    roots = green_roots(cfg, 0.0, window)
    dense = green_roots(
        replace(cfg, solver=replace(cfg.solver, scan_points=4000)), 0.0, window)
    assert cfg.solver.scan_points == 400
    assert len(roots) == len(dense) == 21
    assert np.max(np.abs(roots - dense) / dense) <= cfg.solver.root_tol


# ---------------------------------------------------------------------------
# the Wittrick-Williams count that green_roots multisects
# ---------------------------------------------------------------------------

def random_count_case(rng, k):
    # 1-2 species, the first uncoupled in every third case; every fourth
    # slab fills the cavity (l = L, no gap)
    L = rng.uniform(0.6, 2.5)
    l = L if k % 4 == 0 else rng.uniform(0.2, 1.0) * L
    species = [(rng.uniform(2.0, 11.0), rng.uniform(0.2, 3.0))
               for _ in range(rng.integers(1, 3))]
    if k % 3 == 0:
        species[0] = (species[0][0], 0.0)
    cfg = make_config(L=L, l=l, c=rng.choice([1.0, rng.uniform(0.6, 1.4)]),
                      species=tuple(species), photon=600,
                      exciton=int(rng.integers(1, 9)), pole_exclusion=1e-3)
    rng.random()  # a draw no case reads, so that every case stays as it was drawn
    return cfg, float(rng.uniform(0.0, 3.0)), (0.0, float(rng.uniform(6.0, 12.0)))


def test_green_count_rises_by_the_dynamical_modes_of_each_segment():
    # over every species-pole-free segment of the green window, the rise of
    # the two sectors' counts is the number of modes of the dynamical
    # spectrum there, uncoupled photon lines and guided modes below the
    # light line included
    rng = np.random.default_rng(20261019)
    roots = evanescent = 0
    for k in range(60):
        cfg, q, window = random_count_case(rng, k)
        spectrum = hopfield.spectrum(cfg, q)
        segments = pole_free_segments(window, [sp.omega for sp in cfg.oscillators],
                                      cfg.solver.pole_exclusion)
        ends = np.array(segments).ravel()
        rise = sum(np.diff(_green_counts(cfg, modes, q, ends).reshape(-1, 2), axis=1)[:, 0]
                   for modes in _green_sectors(cfg))
        expected = [np.sum((spectrum > lo) & (spectrum < hi)) for lo, hi in segments]
        np.testing.assert_array_equal(rise, expected, err_msg=f"case {k}")
        roots += sum(expected)
        evanescent += sum(np.sum((spectrum > lo) & (spectrum < min(hi, q * cfg.c)))
                          for lo, hi in segments)
    assert roots > 400 and evanescent >= 15


def exact_cavity():
    # l = pi/4 makes the slab wavenumbers b_xi = 4 (xi + 1) exact doubles.
    # With c = 1 and q = 0, s = Omega^2 is exactly b_xi^2 at Omega = b_xi,
    # and the species at 4 with G = 15 gives den_0 = gamma = 15 exactly at
    # Omega = 1
    return make_config(L=1.0, l=np.pi / 4, species=((4.0, 15.0),), photon=8,
                       exciton=3)


@pytest.mark.parametrize("q,omega", [
    (0.0, 1.0),
    (0.0, 12.0),
    (0.0, 8.0),
    (0.0, 16.0),
    (0.0, 20.0),
    (2.0, 2.0),
], ids=["den_eq_gamma", "projected_even_b_sq_eq_s", "projected_odd_b_sq_eq_s",
        "unprojected_odd_b_sq_eq_s", "unprojected_even_b_sq_eq_s", "s_zero"])
def test_green_count_is_exact_and_silent_at_singular_points(q, omega):
    # each count equals the counts 1e-9 to either side, where no root lies,
    # with no numpy warning on the way.  At Omega = 16 the even sector also
    # has den_0 = gamma exactly, since b_0 is the species frequency
    cfg = exact_cavity()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for modes in _green_sectors(cfg):
            at = _green_counts(cfg, modes, q, [omega])
            near = _green_counts(cfg, modes, q, omega * (1.0 + np.array([-1e-9, 1e-9])))
            assert at.dtype.kind == "i"
            assert near[0] == at[0] == near[1], modes.parity


@pytest.mark.parametrize("l,G", [(0.5, 3.0), (0.485, 3.09), (0.515, 2.91)],
                         ids=["readme", "jitter_low", "jitter_high"])
def test_green_roots_match_secular_at_400_photons(l, G):
    # the README cavity and the jittered sweep configs of its benchmark, on
    # the whole 9-point q grid: the untruncated green roots and the secular
    # roots at N = 400 agree within 1e-8
    cfg = make_config(L=1.0, l=l, species=((20.0, G),), photon=400, exciton=16,
                      omega_max=17.0)
    overlaps = overlap_K(cfg)
    for q in np.linspace(0.0, 4.0, 9):
        roots = green_roots(cfg, q, (0.0, 17.0))
        secular = secular_roots(cfg, overlaps, q, (0.0, 17.0))
        assert len(roots) == len(secular) > 0
        assert np.max(np.abs(roots - secular) / secular) <= 1e-8
