"""Green-function matching route against quadrature oracles.

The kernel double integrals have a closed form whose derivation is long
enough to deserve an independent check: nested adaptive quadrature of the
defining integral, split at the |z - z'| kink.  The matching determinant
itself is anchored by the empty cavity (exact eigenfrequencies known) and
by the mode-sum route at large photon truncation.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from polsp import (EvanescentError, green_determinant,
                   green_matching_matrix, green_roots, one_exciton_roots,
                   overlap_K)
from polsp.dispersion import (_SlabModes, _boundary_kernel_values,
                              _kernel_double_integrals, _slab_moments)
from conftest import make_config


def closed_form_kernel(l: float, count: int, s: float) -> np.ndarray:
    # the closed form fed the slab moments and boundary values exactly as
    # the matching matrix computes them once per evaluation
    modes = _SlabModes(l, count)
    uc, us = _slab_moments(modes, s)
    vp, _, dp, _ = _boundary_kernel_values(uc, us, s, modes.h)
    return _kernel_double_integrals(modes, s, uc, us, vp, dp)


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


@pytest.mark.parametrize("s", [37.0, 3.0, 0.0, -11.0])
def test_kernel_double_integrals_match_quadrature(s):
    l = 0.9
    M = closed_form_kernel(l, 3, s)
    for xi in range(3):
        for eta in range(3):
            assert M[xi, eta] == pytest.approx(
                oracle_double_integral(l, xi, eta, s), abs=2e-10)


def test_kernel_double_integrals_resonant_fallback():
    # s exactly on the eta pole of the partial-fraction form, for the
    # first column and for an inner one: the closed form is indeterminate
    # there and that column must fall back to quadrature without losing
    # accuracy, while the other columns and the diagonal keep the closed
    # form
    l = 0.9
    for eta in (0, 2):
        s = ((eta + 1) * np.pi / l) ** 2
        M = closed_form_kernel(l, 3, s)
        for xi in range(3):
            for col in range(3):
                assert M[xi, col] == pytest.approx(
                    oracle_double_integral(l, xi, col, s), abs=1e-8)
        # just outside the switching window the closed form takes over;
        # the two evaluations must agree where they meet
        for side in (1.0 - 2e-4, 1.0 + 2e-4):
            near = closed_form_kernel(l, 3, s * side)
            assert near[eta, eta] == pytest.approx(M[eta, eta], rel=1e-3)


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


def test_evanescent_region_is_refused_by_default():
    cfg = make_config(species=((4.0, 1.0),))
    with pytest.raises(EvanescentError):
        green_matching_matrix(cfg, 1.0, 2.0)
    with pytest.raises(EvanescentError):
        green_determinant(cfg, 1.0, 2.0)


def test_evanescent_region_opt_in():
    cfg = make_config(species=((4.0, 1.0),), allow_evanescent=True)
    mat = green_matching_matrix(cfg, 1.0, 2.0)
    assert np.all(np.isfinite(mat))
    # the window clamp disappears too: roots below q c are now reachable
    assert np.isfinite(green_determinant(cfg, 1.0, 2.0))


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
