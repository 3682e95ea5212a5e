"""Dynamical-matrix diagonalization against independent oracles.

The N=1, S=1, Xi=1 problem reduces on paper to a biquadratic equation,

    (omega0^2 - W^2)(Omega1^2 - W^2) = G^2 K^2 W^2,

whose two positive roots are known in closed form.  That relation is the
anchor for the coupled case; the decoupled case is anchored by the bare
frequencies themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from polsp import (CavityConfig, DimensionError, NormalizationError,
                   SolverSettings, build_dynamical_matrix, diagonalize,
                   overlap_K, photon_frequencies, spectrum, DynamicalMatrix)
from conftest import make_config


def quartic_roots(omega0: float, photon: float, gk: float) -> np.ndarray:
    # closed-form positive roots of the biquadratic relation above
    b = omega0 ** 2 + photon ** 2 + gk ** 2
    disc = np.sqrt(b ** 2 - 4.0 * (omega0 * photon) ** 2)
    return np.sqrt(np.array([(b - disc) / 2.0, (b + disc) / 2.0]))


def single_mode_config(omega0: float, gk: float) -> CavityConfig:
    # L=1, c=1/pi puts the first photon mode exactly at Omega_1 = 1;
    # G is rescaled so that G * K equals the requested product
    base = make_config(L=1.0, l=0.5, c=1.0 / np.pi,
                       species=((omega0, 1.0),), photon=1, exciton=1)
    K = overlap_K(base).K[0, 0]
    return make_config(L=1.0, l=0.5, c=1.0 / np.pi,
                       species=((omega0, gk / K),), photon=1, exciton=1)


def test_quartic_oracle_frozen_values():
    # omega0 = Omega_1 = 1, GK = 0.1: frozen from the closed form
    cfg = single_mode_config(1.0, 0.1)
    got = spectrum(cfg, 0.0)
    assert got == pytest.approx([0.95124921972504, 1.05124921972504], rel=1e-12)
    assert got == pytest.approx(quartic_roots(1.0, 1.0, 0.1), rel=1e-13)


def test_quartic_oracle_parameter_grid():
    for ratio in np.linspace(0.5, 2.0, 5):
        for gk in np.linspace(0.02, 0.8, 5):
            cfg = single_mode_config(ratio, gk)
            assert spectrum(cfg, 0.0) == pytest.approx(
                quartic_roots(ratio, 1.0, gk), rel=1e-12)


def test_decoupled_spectrum_is_bare_frequencies():
    cfg = make_config(species=((4.0, 0.0), (6.5, 0.0)), photon=12, exciton=3)
    for q in (0.0, 0.7, 2.0):
        expected = np.sort(np.concatenate([
            photon_frequencies(cfg, q),
            np.repeat([4.0, 6.5], 3)]))
        got = spectrum(cfg, q)
        assert np.max(np.abs(got - expected) / expected) < 1e-12


def test_symplectic_norms_and_mode_count():
    cfg = make_config(L=1.3, l=0.9, species=((3.0, 0.8), (5.0, 1.4)),
                      photon=6, exciton=3)
    modes = diagonalize(build_dynamical_matrix(cfg, overlap_K(cfg), 0.4))
    assert len(modes) == 6 + 2 * 3
    for mode in modes:
        assert mode.symplectic_norm() == pytest.approx(1.0, abs=1e-10)
        assert mode.q == 0.4
        # tilde phase restored: matter coefficients are purely imaginary
        assert np.max(np.abs(mode.X.real)) == 0.0
        assert np.max(np.abs(mode.Z.real)) == 0.0


def test_raw_eigenvalues_come_in_opposite_pairs():
    cfg = make_config(species=((3.0, 1.0),), photon=4, exciton=2)
    M = build_dynamical_matrix(cfg, overlap_K(cfg), 0.0).matrix
    vals = np.linalg.eigvals(M)
    assert np.max(np.abs(vals.imag)) < 1e-9 * np.max(np.abs(vals))
    vals = np.sort(vals.real)
    assert vals == pytest.approx(-vals[::-1], rel=1e-10)
    assert np.sum(vals > 0) == 4 + 2


def test_eta_m_is_symmetric():
    # the structural property behind pairing and eta-orthogonality
    cfg = make_config(species=((3.0, 1.0), (7.0, 0.3)), photon=5, exciton=2)
    dyn = build_dynamical_matrix(cfg, overlap_K(cfg), 1.1)
    M = dyn.matrix
    eta = np.concatenate([np.ones(dyn.half_dim), -np.ones(dyn.half_dim)])
    etaM = eta[:, None] * M
    assert np.max(np.abs(etaM - etaM.T)) < 1e-12 * np.max(np.abs(M))


def _raw_vectors(modes) -> np.ndarray:
    # columns (W, Xt, Y, Zt) in the real tilde convention of the matrix
    return np.array([np.concatenate([m.W, (1j * m.X).real,
                                     m.Y, (1j * m.Z).real]) for m in modes]).T


def test_eigenvectors_are_eta_orthogonal():
    # the G = 0 config has Xi-fold degenerate species lines
    for cfg in (make_config(species=((3.0, 1.0),), photon=5, exciton=2),
                make_config(species=((4.0, 0.0), (6.0, 0.0)), photon=5, exciton=3)):
        dyn = build_dynamical_matrix(cfg, overlap_K(cfg), 0.0)
        modes = diagonalize(dyn)
        eta = np.concatenate([np.ones(dyn.half_dim), -np.ones(dyn.half_dim)])
        vecs = _raw_vectors(modes)
        gram = vecs.T @ (eta[:, None] * vecs)
        assert gram == pytest.approx(np.eye(len(modes)), abs=1e-9)


def test_modes_solve_the_raw_eigenproblem():
    # independent reference: the general eigensolver on the unreduced M
    for cfg, q in ((make_config(L=1.3, l=0.9, species=((3.0, 0.8), (5.0, 1.4)),
                                photon=6, exciton=3), 0.4),
                   (make_config(species=((4.0, 0.0), (6.5, 0.7)), photon=8, exciton=2), 1.2)):
        dyn = build_dynamical_matrix(cfg, overlap_K(cfg), q)
        M, modes = dyn.matrix, diagonalize(dyn)
        scale = np.linalg.norm(M, 2)
        for mode, v in zip(modes, _raw_vectors(modes).T):
            assert np.linalg.norm(M @ v - mode.Omega * v) <= 1e-10 * scale
        raw = np.linalg.eigvals(M).real
        reference = np.sort(raw[raw > 0])
        omegas = np.array([mode.Omega for mode in modes])
        assert np.max(np.abs(omegas - reference) / reference) <= 1e-12


def test_species_order_does_not_matter():
    a = make_config(species=((3.0, 0.9), (6.0, 0.4)), photon=6, exciton=2)
    b = make_config(species=((6.0, 0.4), (3.0, 0.9)), photon=6, exciton=2)
    for q in (0.0, 1.3):
        assert spectrum(a, q) == pytest.approx(spectrum(b, q), rel=1e-12)


def test_coupling_repels_the_lowest_branch_downward():
    base = make_config(species=((3.5, 0.0),), photon=6, exciton=2)
    coupled = make_config(species=((3.5, 1.2),), photon=6, exciton=2)
    assert spectrum(coupled, 0.0)[0] < spectrum(base, 0.0)[0]


def test_degenerate_exciton_lines_are_handled():
    # G = 0 leaves each species line Xi-fold degenerate; normalization
    # must still produce unit norms via the cluster path
    cfg = make_config(species=((4.0, 0.0),), photon=4, exciton=4)
    modes = diagonalize(build_dynamical_matrix(cfg, overlap_K(cfg), 0.0))
    for mode in modes:
        assert mode.symplectic_norm() == pytest.approx(1.0, abs=1e-10)
    degenerate = [m for m in modes if abs(m.Omega - 4.0) < 1e-12]
    assert len(degenerate) == 4


def _bare(matrix) -> DynamicalMatrix:
    # one photon mode and no matter: half dimension 1
    return DynamicalMatrix(matrix=np.array(matrix, dtype=float), photon_mode_count=1,
                           species_count=0, exciton_mode_count=1, q=0.0)


def test_diagonalize_rejects_complex_spectrum():
    # a rotation (A + B negative) and an indefinite A - B: both give
    # frequencies +-i Omega
    for matrix in ([[0.0, 1.0], [-1.0, 0.0]], [[1.0, -2.0], [2.0, -1.0]]):
        with pytest.raises(NormalizationError):
            diagonalize(_bare(matrix))


def test_diagonalize_rejects_unpaired_spectrum():
    # diag(1, -2) breaks the +-Omega pairing; the other two are zero
    # modes, with A - B = 0 and with A + B = 0
    for matrix in (np.diag([1.0, -2.0]), [[1.0, -1.0], [1.0, -1.0]],
                   [[1.0, 1.0], [-1.0, -1.0]]):
        with pytest.raises(NormalizationError):
            diagonalize(_bare(matrix))
    # a 3x3 matrix cannot hold half dimension 1
    with pytest.raises(DimensionError):
        _bare(np.eye(3))


def test_matrix_is_read_only():
    cfg = make_config()
    dyn = build_dynamical_matrix(cfg, overlap_K(cfg), 0.0)
    with pytest.raises(ValueError):
        dyn.matrix[0, 0] = 1.0


def test_spectrum_deterministic_across_calls():
    cfg = make_config(species=((4.0, 1.0),), photon=8, exciton=2)
    first = spectrum(cfg, 0.3)
    second = spectrum(cfg, 0.3)
    assert np.array_equal(first, second)
