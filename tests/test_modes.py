"""Basis functions and overlap matrices against quadrature oracles.

The closed forms for K and classical_D are the backbone of every solver,
so they are checked here against adaptive quadrature of the defining
integrals, not against any reimplementation of the same algebra.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from polsp import (ConfigError, DimensionError, ExcitonMode, PhotonMode, classical_D,
                   exciton_parity_even, overlap_K, photon_frequencies,
                   photon_parity_even, secular_roots, sine_half_integral)
from conftest import make_config


def quad_overlap(m: int, xi: int, L: float, l: float) -> float:
    # defining integral of K over the slab, independent route
    phi = PhotonMode(m=m, L=L)
    chi = ExcitonMode(xi=xi, l=l)
    val, err = quad(lambda z: phi.profile(z) * chi.wavefunction(z),
                    -l / 2.0, l / 2.0, limit=400, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    return val


def quad_photon_product(m: int, n: int, L: float, l: float) -> float:
    phi_m = PhotonMode(m=m, L=L)
    phi_n = PhotonMode(m=n, L=L)
    val, err = quad(lambda z: phi_m.profile(z) * phi_n.profile(z),
                    -l / 2.0, l / 2.0, limit=400, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    return val


def test_sine_half_integral_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = rng.uniform(-40.0, 40.0)
        h = rng.uniform(0.05, 2.0)
        exact, _ = quad(lambda z: np.cos(k * z), 0.0, h, limit=200)
        assert sine_half_integral(k, h) == pytest.approx(exact, abs=1e-13)
    # removable point
    assert sine_half_integral(0.0, 0.75) == 0.75
    assert sine_half_integral(1e-300, 0.75) == pytest.approx(0.75, rel=1e-15)


def test_parity_predicates():
    assert [photon_parity_even(m) for m in (1, 2, 3, 4)] == [True, False, True, False]
    assert [exciton_parity_even(x) for x in (0, 1, 2, 3)] == [True, False, True, False]


def test_mode_functions_are_normalized_and_vanish_at_edges():
    L, l = 1.7, 0.9
    for m in (1, 2, 5):
        phi = PhotonMode(m=m, L=L)
        norm, _ = quad(lambda z: phi.profile(z) ** 2, -L / 2, L / 2, limit=200)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert phi.profile(-L / 2) == pytest.approx(0.0, abs=1e-12)
        assert phi.profile(L / 2) == pytest.approx(0.0, abs=1e-12)
    for xi in (0, 1, 4):
        chi = ExcitonMode(xi=xi, l=l)
        norm, _ = quad(lambda z: chi.wavefunction(z) ** 2, -l / 2, l / 2, limit=200)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert chi.wavefunction(-l / 2) == pytest.approx(0.0, abs=1e-12)
        assert chi.wavefunction(l / 2) == pytest.approx(0.0, abs=1e-12)


def test_overlap_K_matches_quadrature():
    cfg = make_config(L=1.7, l=0.9, photon=8, exciton=6)
    K = overlap_K(cfg).K
    for m in range(1, 9):
        for xi in range(6):
            assert K[m - 1, xi] == pytest.approx(
                quad_overlap(m, xi, 1.7, 0.9), abs=1e-12)


def test_classical_D_matches_quadrature():
    cfg = make_config(L=1.7, l=0.9, photon=8)
    D = classical_D(cfg)
    for m in range(1, 9):
        for n in range(1, 9):
            assert D[m - 1, n - 1] == pytest.approx(
                quad_photon_product(m, n, 1.7, 0.9), abs=1e-12)


def test_classical_D_frozen_corner_value():
    # at L=1, l=1/2 the first diagonal entry integrates to 1/2 + 1/pi
    cfg = make_config(L=1.0, l=0.5, photon=2)
    D = classical_D(cfg)
    assert D[0, 0] == pytest.approx(0.5 + 1.0 / np.pi, abs=1e-14)


def test_overlap_parity_selection_rule():
    # a photon mode couples only to excitons of its own mirror parity;
    # with these index conventions every nonzero entry has m + xi odd
    cfg = make_config(L=2.3, l=1.1, photon=10, exciton=7)
    K = overlap_K(cfg).K
    for m in range(1, 11):
        for xi in range(7):
            if photon_parity_even(m) != exciton_parity_even(xi):
                assert K[m - 1, xi] == 0.0
            else:
                assert (m + xi) % 2 == 1


def test_parity_rule_converse_fails():
    # m + xi odd does not force a nonzero entry: with l = L the bases
    # coincide and all off-diagonal overlaps vanish by orthogonality
    cfg = make_config(L=1.3, l=1.3, photon=4, exciton=4)
    K = overlap_K(cfg).K
    assert K[0, 2] == pytest.approx(0.0, abs=1e-15)   # m=1, xi=2, m+xi odd
    assert K == pytest.approx(np.eye(4), abs=1e-14)


def test_overlap_full_slab_is_identity():
    cfg = make_config(L=0.8, l=0.8, photon=5, exciton=5)
    assert overlap_K(cfg).K == pytest.approx(np.eye(5), abs=1e-13)
    assert classical_D(cfg) == pytest.approx(np.eye(5), abs=1e-13)


def test_exciton_completeness_is_loewner_monotone():
    # partial sums K K^T grow toward classical_D in the semidefinite order
    cfg = make_config(L=1.0, l=0.5, photon=12, exciton=32)
    K = overlap_K(cfg).K
    D = classical_D(cfg)
    prev = np.zeros((12, 12))
    for xi in (4, 8, 16, 32):
        cur = K[:, :xi] @ K[:, :xi].T
        assert np.linalg.eigvalsh(cur - prev).min() >= -1e-12
        assert np.linalg.eigvalsh(D - cur).min() >= -1e-12
        prev = cur


def test_photon_frequency_bounds_and_values():
    cfg = make_config(L=2.0, c=3.0, photon=4)
    assert photon_frequencies(cfg, 0.0)[0] == pytest.approx(3.0 * np.pi / 2.0)
    assert photon_frequencies(cfg, 1.5)[1] == pytest.approx(
        3.0 * np.hypot(2 * np.pi / 2.0, 1.5))
    freqs = photon_frequencies(cfg, 0.7)
    assert len(freqs) == 4
    assert freqs == pytest.approx(
        [3.0 * np.hypot(m * np.pi / 2.0, 0.7) for m in (1, 2, 3, 4)])
    assert np.all(np.diff(freqs) > 0)


def test_photon_frequencies_of_a_grid_are_the_rows_of_each_q():
    # a grid gives a row per q, bit for bit the vector of that q alone, and
    # refuses a bad q with the error of a call at that q
    cfg = make_config(L=1.3, c=0.9, photon=7)
    qs = np.array([0.0, 0.3, 1.7, 40.0])
    table = photon_frequencies(cfg, qs)
    assert table.shape == (4, 7)
    for row, q in zip(table, qs):
        assert np.array_equal(row, photon_frequencies(cfg, q))
    fast = make_config(c=1e100)
    for bad in (-1.0, np.nan, 1e60):
        with pytest.raises(ConfigError) as alone:
            photon_frequencies(fast, bad)
        with pytest.raises(ConfigError) as grid:
            photon_frequencies(fast, [0.5, bad])
        assert str(grid.value) == str(alone.value)


def test_overlap_set_shape_check():
    cfg = make_config(photon=8, exciton=2)
    overlaps = overlap_K(cfg)
    overlaps.check_shape(cfg)
    # the message states the set's real shape, not the config's
    with pytest.raises(DimensionError, match=r"K of shape \(8, 2\)"):
        overlaps.check_shape(cfg.with_truncation(photon_mode_count=9))


def test_overlap_set_arrays_are_read_only():
    overlaps = overlap_K(make_config())
    with pytest.raises(ValueError):
        overlaps.K[0, 0] = 1.0
    with pytest.raises(ValueError):
        overlaps.D[0, 0] = 1.0


def test_D_is_built_only_when_read():
    # the secular route reads the rank-Xi factor K alone; D = K K^T is
    # built on first read, for the dynamical route
    cfg = make_config(photon=16, exciton=4)
    overlaps = overlap_K(cfg)
    assert len(secular_roots(cfg, overlaps, 0.5, (0.0, 12.0))) > 0
    assert "D" not in vars(overlaps)
    assert np.array_equal(overlaps.D, overlaps.K @ overlaps.K.T)
    assert "D" in vars(overlaps)


def test_converge_rungs_slice_the_top_rung_K():
    # the criterion-4 config: converge slices one K for every rung
    cfg = make_config(species=((20.0, 3.0),), photon=512, exciton=64)
    full = overlap_K(cfg).K
    for xi in (4, 8, 16, 32, 64):
        rung = overlap_K(cfg.with_truncation(exciton_mode_count=xi)).K
        assert np.array_equal(rung, full[:, :xi]), xi


@settings(max_examples=40, deadline=None)
@given(L=st.floats(0.3, 5.0), fill=st.floats(0.01, 1.0), photon=st.integers(1, 600),
       exciton=st.integers(1, 128), rung=st.integers(1, 128))
def test_overlap_K_of_fewer_matter_modes_is_a_column_slice(L, fill, photon, exciton, rung):
    # column xi of K depends on xi alone, bit for bit
    cfg = make_config(L=L, l=fill * L, photon=photon, exciton=exciton)
    xi = min(rung, exciton)
    assert np.array_equal(overlap_K(cfg.with_truncation(exciton_mode_count=xi)).K,
                          overlap_K(cfg).K[:, :xi])


@settings(max_examples=30, deadline=None)
@given(L=st.floats(0.3, 5.0), fill=st.floats(0.15, 1.0),
       photon=st.integers(1, 12), exciton=st.integers(1, 8))
def test_overlap_bounds_property(L, fill, photon, exciton):
    # Cauchy-Schwarz: |K| <= 1 entrywise; Bessel: row sums of K K^T
    # bounded by the corresponding classical_D diagonal
    cfg = make_config(L=L, l=fill * L, photon=photon, exciton=exciton)
    K = overlap_K(cfg).K
    D = classical_D(cfg)
    assert np.all(np.abs(K) <= 1.0 + 1e-12)
    assert np.all(np.sum(K ** 2, axis=1) <= np.diag(D) + 1e-12)
    assert np.all(np.diag(D) <= 1.0 + 1e-12)
    assert np.linalg.eigvalsh(D).min() >= -1e-12


@settings(max_examples=30, deadline=None)
@given(L=st.floats(0.3, 5.0), fill=st.floats(0.15, 1.0),
       exciton=st.integers(1, 8))
def test_overlap_symmetry_property(L, fill, exciton):
    cfg = make_config(L=L, l=fill * L, photon=6, exciton=exciton)
    D = classical_D(cfg)
    assert D == pytest.approx(D.T, abs=1e-15)
