"""Green-function matching route against quadrature oracles.

The kernel double integrals have a closed form whose derivation is long
enough to deserve an independent check: nested adaptive quadrature of the
defining integral, split at the |z - z'| kink.  The matching determinant
itself is anchored by the empty cavity (exact eigenfrequencies known) and
by the mode-sum route at large photon truncation.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from polsp import (EvanescentError, PoleError, QuadratureError, cosine_solution,
                   green_determinant, green_matching_matrix, green_roots,
                   one_exciton_roots, overlap_K, pole_free_segments,
                   scan_roots, sine_solution)
from polsp.cli import parse_config, sweep_grid
from polsp.dispersion import (_SIGN_CHUNK_DOUBLES, _SlabModes,
                              _boundary_kernel_values, _green_determinants,
                              _kernel_double_integrals, _propagating_window,
                              _slab_moments, cosine_solutions, sine_solutions)
from conftest import make_config
from test_golden import CONFIGS as GOLDEN_CONFIGS


def closed_form_kernel(l: float, count: int, s: float) -> np.ndarray:
    # the closed form fed the slab moments and boundary values exactly as
    # the matching matrix computes them once per evaluation
    modes = _SlabModes(l, count)
    uc, us = _slab_moments(modes, np.full((1, 1), s))
    col = np.full((1, 1), s)
    ch, sh = cosine_solutions(modes.h, col), sine_solutions(modes.h, col)
    vp, _, dp, _ = _boundary_kernel_values(uc, us, col, ch, sh)
    return _kernel_double_integrals(modes, col, uc, us, vp, dp, ch, sh)[0]


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
    uc, us = _slab_moments(_SlabModes(l, count), np.full((1, 1), s))
    for got, expected in zip((uc[0], us[0]), oracle_moments(l, count, s)):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_slab_moments_rows_are_independent():
    # every regime in one column gives each row the moments it has alone
    modes = _SlabModes(0.9, 5)
    column = _slab_moments(modes, np.array(MOMENT_S)[:, None])
    for row, s in enumerate(MOMENT_S):
        for got, alone in zip(column, _slab_moments(modes, np.full((1, 1), s))):
            np.testing.assert_allclose(got[row], alone[0], rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(alone)))


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


def test_overflowing_evanescent_matrix_is_a_quadrature_error():
    # far below the light line cosh(sqrt(-s) h) overflows; the matrix is
    # then not finite, a typed error with no numpy warning on the way
    cfg = make_config(species=((4.0, 1.0),), allow_evanescent=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite at Omega=1, q=3000"):
            green_determinant(cfg, 1.0, 3000.0)
        with pytest.raises(QuadratureError, match="not finite at Omega=0.5, q=3000"):
            green_roots(cfg, 3000.0, (0.5, 10.0))


def test_pole_within_the_square_tolerance_is_refused_where_beta_stays_finite():
    # Omega^2 lies 2e-307 from the species pole's square, inside the 1e-300
    # pole tolerance, yet G^2/(omega^2 - Omega^2) times Omega^2 stays finite
    cfg = make_config(species=((1e-150, 1.0),), photon=4, exciton=2)
    omega = 1.0000001e-150
    with pytest.raises(PoleError, match="species pole 1e-150"):
        green_determinant(cfg, omega, 0.0)
    green_signs = green_grid(cfg, 0.0)
    with pytest.raises(PoleError, match="species pole 1e-150"):
        green_signs(np.array([0.5, omega, 2.0]))


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
# batched evaluation of the scan grid
# ---------------------------------------------------------------------------

def test_array_fundamental_pair_matches_the_scalar_one():
    # every sign of s, s = 0 included, against the math-module pair
    xs = np.array([0.0, 0.3, 1.7, 4.0])
    ss = np.array([-40.0, -1e-3, 0.0, 2e-9, 5.0, 900.0])
    cos_arr = cosine_solutions(xs[:, None], ss[None, :])
    sin_arr = sine_solutions(xs[:, None], ss[None, :])
    for i, x in enumerate(xs):
        for j, s in enumerate(ss):
            assert cos_arr[i, j] == pytest.approx(cosine_solution(x, s), rel=1e-14)
            assert sin_arr[i, j] == pytest.approx(sine_solution(x, s), rel=1e-14,
                                                  abs=1e-300)


def green_grid(cfg, q):
    # the batched determinants that green_roots scans, on an array of frequencies
    modes = _SlabModes(cfg.l, cfg.exciton_mode_count)
    return lambda xs: _green_determinants(cfg, modes, xs, q)


def scalar_grid_signs(cfg, q, xs):
    return np.sign([green_determinant(cfg, x, q) for x in xs])


def assert_green_grid_signs_match(cfg, q):
    # the batched grid against np.sign of the scalar determinant on the
    # full 2n - 1 grid of every pole-free segment of the green scan; returns
    # the number of sign changes seen
    green_signs = green_grid(cfg, float(q))
    settings = cfg.solver
    window = _propagating_window(cfg, float(q), (0.0, settings.omega_max))
    segments = pole_free_segments(window, [sp.omega for sp in cfg.oscillators],
                                  settings.pole_exclusion)
    assert segments
    changes = 0
    for lo, hi in segments:
        xs = np.linspace(lo, hi, 2 * settings.scan_points - 1)
        expected = scalar_grid_signs(cfg, q, xs)
        np.testing.assert_array_equal(np.sign(green_signs(xs)), expected)
        changes += int(np.sum(expected[:-1] != expected[1:]))
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
    # resonances b_eta^2 = s, s = 0, qz h < 0.5 and, when the continuation
    # is enabled, evanescent points; species poles themselves are left out
    L = rng.uniform(0.6, 3.0)
    l = rng.uniform(0.2, 1.0) * L
    c = rng.choice([1.0, rng.uniform(0.5, 1.5)])
    species = [(rng.uniform(1.0, 30.0), rng.uniform(0.0, 4.0))
               for _ in range(rng.integers(1, 4))]
    if rng.random() < 0.4:
        species[0] = (species[0][0], 0.0)
    evanescent = bool(rng.random() < 0.4)
    cfg = make_config(L=L, l=l, c=c, species=tuple(species), photon=4,
                      exciton=int(rng.integers(1, 20)), allow_evanescent=evanescent)
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
        points += len(omegas)
    assert points > 8000


def test_green_roots_equal_the_scalar_scan():
    # the batched grid changes how the grid is evaluated, not a root
    for cfg, q in [(make_config(L=1.0, l=0.5, species=((20.0, 3.0),), photon=24,
                                exciton=4, omega_max=12.0, scan_points=200), 2.0),
                   (make_config(L=1.4, l=0.9, c=0.8, species=((6.0, 1.2), (9.0, 0.0),
                                                               (13.0, 0.7)),
                                photon=8, exciton=7, omega_max=16.0,
                                root_tol=1e-12, pole_exclusion=5e-2), 0.7),
                   (make_config(**README_CAVITY), 1.5)]:
        window = (0.0, cfg.solver.omega_max)
        scalar = scan_roots(lambda w: green_determinant(cfg, w, q),
                            _propagating_window(cfg, q, window),
                            [sp.omega for sp in cfg.oscillators],
                            exclusion=cfg.solver.pole_exclusion,
                            scan_points=cfg.solver.scan_points,
                            rel_tol=cfg.solver.root_tol)
        batched = green_roots(cfg, q, window)
        assert len(batched) > 0
        assert np.array_equal(batched, scalar)


def raised(fn):
    with pytest.raises((EvanescentError, PoleError)) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("pole_at,light_at", [(1, 2), (2, 1), (1.0, 1.1), (1.1, 1.0)],
                         ids=["pole_first", "light_first", "pole_first_one_chunk",
                              "light_first_one_chunk"])
def test_green_grid_raises_the_scalar_loops_first_error(pole_at, light_at):
    # one grid with a species pole and a point below the light line, both
    # past the first chunk, in two chunks or in one: the batched grid
    # raises the error of the first offending point in scan order, as the
    # scalar loop does
    cfg = make_config(L=1.0, l=0.5, species=((5.0, 1.0),), photon=4, exciton=3)
    q = 2.0
    chunk = _SIGN_CHUNK_DOUBLES // (2 * (cfg.exciton_mode_count + 4) ** 2)
    xs = np.linspace(2.5, 12.0, 3 * chunk)
    xs[int(pole_at * chunk) + 5] = 5.0
    xs[int(light_at * chunk) + 5] = 1.5
    green_signs = green_grid(cfg, q)
    expected = raised(lambda: scalar_grid_signs(cfg, q, xs))
    assert expected[0] is (PoleError if pole_at < light_at else EvanescentError)
    assert raised(lambda: green_signs(xs)) == expected
    assert raised(lambda: scan_roots(lambda w: green_determinant(cfg, w, q),
                                     (xs[0], xs[-1]), [], exclusion=1e-6,
                                     scan_points=2, rel_tol=1e-10,
                                     grid_signs=lambda _: green_signs(xs))) == expected
