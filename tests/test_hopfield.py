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
from polsp.hopfield import frequencies
from polsp.model import transverse_wavenumber
from polsp.modes import _sector_masks
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


def test_modes_are_complete():
    # Bogoliubov completeness over all modes, U = (W, X) and V = (Y, Z)
    # with one column per mode: UU^+ - V*V^T = I and UV^+ - V*U^T = 0, so
    # the modes span the whole photon and matter space
    for cfg, q in ((make_config(species=((3.0, 1.0),), photon=5, exciton=2), 0.0),
                   (make_config(L=1.2, l=0.7, species=((3.0, 0.8), (4.5, 0.0), (6.0, 1.3)),
                                photon=6, exciton=3), 0.7)):
        modes = diagonalize(build_dynamical_matrix(cfg, overlap_K(cfg), q))
        U = np.array([np.concatenate([m.W, m.X]) for m in modes]).T
        V = np.array([np.concatenate([m.Y, m.Z]) for m in modes]).T
        assert U.shape == (len(modes), len(modes))
        identity = np.eye(len(modes))
        assert np.max(np.abs(U @ U.conj().T - V.conj() @ V.T - identity)) <= 1e-10
        assert np.max(np.abs(U @ V.conj().T - V.conj() @ U.T)) <= 1e-10


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


def _standard_form(dyn: DynamicalMatrix) -> tuple[np.ndarray, np.ndarray]:
    # A and B of the matrix with the Zt sign flipped, [[A, -B], [B, -A]]
    half, n = dyn.half_dim, dyn.photon_mode_count
    flip = np.r_[np.ones(half + n), -np.ones(half - n)]
    M = flip[:, None] * dyn.matrix * flip
    return M[:half, :half], -M[:half, half:]


def _sectors(dyn: DynamicalMatrix) -> list[np.ndarray]:
    # the parity sectors diagonalize finds in A and B
    return _sector_masks(dyn.photon_mode_count, dyn.exciton_mode_count,
                         dyn.species_count, _standard_form(dyn))


def _one_sector_frequencies(dyn: DynamicalMatrix) -> np.ndarray:
    # the standard-form reduction over the whole matrix, with no split
    A, B = _standard_form(dyn)
    L = np.linalg.cholesky(A - B)
    return np.sqrt(np.linalg.eigvalsh(L.T @ (A + B) @ L))


def _split_cases():
    # random species with G = 0 mixed in, odd Xi, l = L, and N = Xi = 1,
    # where the sector of even-m photons and odd-xi matter modes is empty
    rng = np.random.default_rng(20261018)
    cases = [(make_config(species=((4.0, 1.0),), photon=1, exciton=1), 0.3),
             (make_config(L=1.0, l=1.0, species=((3.0, 1.2), (5.0, 0.0)),
                          photon=9, exciton=5), 0.8)]
    for _ in range(10):
        L = rng.uniform(0.8, 2.5)
        species = tuple((rng.uniform(1.0, 9.0), rng.choice([0.0, rng.uniform(0.1, 2.0)]))
                        for _ in range(rng.integers(1, 4)))
        cases.append((make_config(L=L, l=rng.uniform(0.3, 1.0) * L, c=rng.uniform(0.7, 1.5),
                                  species=species, photon=int(rng.integers(1, 30)),
                                  exciton=int(rng.integers(1, 10))),
                      rng.uniform(0.0, 2.0)))
    return cases


def test_parity_split_matches_one_sector_reference():
    for cfg, q in _split_cases():
        dyn = build_dynamical_matrix(cfg, overlap_K(cfg), q)
        expected = 1 if cfg.photon_mode_count == cfg.exciton_mode_count == 1 else 2
        assert len(_sectors(dyn)) == expected
        omegas = np.array([mode.Omega for mode in diagonalize(dyn)])
        reference = _one_sector_frequencies(dyn)
        assert len(omegas) == dyn.half_dim
        assert np.all(np.diff(omegas) >= 0.0)
        assert np.max(np.abs(omegas - reference) / reference) <= 1e-12


def _cross_parity(cfg: CavityConfig, q: float) -> DynamicalMatrix:
    # one cross-parity pair A[0, 1] = A[1, 0] between the photons m = 1 and
    # m = 2, placed in the (W, W) and (Y, Y) blocks as the pairing demands
    dyn = build_dynamical_matrix(cfg, overlap_K(cfg), q)
    M = dyn.matrix.copy()
    half, extra = dyn.half_dim, 0.3 * dyn.matrix[0, 0]
    M[0, 1] = M[1, 0] = extra
    M[half, half + 1] = M[half + 1, half] = -extra
    return DynamicalMatrix(matrix=M, photon_mode_count=dyn.photon_mode_count,
                           species_count=dyn.species_count,
                           exciton_mode_count=dyn.exciton_mode_count, q=dyn.q)


def test_cross_parity_entry_takes_the_one_sector_path():
    cfg = make_config(species=((3.0, 0.8), (5.5, 1.1)), photon=6, exciton=3)
    dyn, coupled = build_dynamical_matrix(cfg, overlap_K(cfg), 0.4), _cross_parity(cfg, 0.4)
    assert len(_sectors(dyn)) == 2 and len(_sectors(coupled)) == 1
    M, modes = coupled.matrix, diagonalize(coupled)
    scale = np.linalg.norm(M, 2)
    for mode, v in zip(modes, _raw_vectors(modes).T):
        assert np.linalg.norm(M @ v - mode.Omega * v) <= 1e-10 * scale
    omegas = np.array([mode.Omega for mode in modes])
    assert np.max(np.abs(omegas - _one_sector_frequencies(coupled)) / omegas) <= 1e-12
    assert np.max(np.abs(omegas - spectrum(cfg, 0.4)) / omegas) > 1e-6


def test_frequencies_match_diagonalize():
    # random species with G = 0 mixed in and l = L in every other draw,
    # plus one matrix that only the one-sector path can take
    rng = np.random.default_rng(20261019)
    matrices = []
    for k in range(10):
        L = rng.uniform(0.8, 2.5)
        species = tuple((rng.uniform(1.0, 9.0), rng.choice([0.0, rng.uniform(0.1, 2.0)]))
                        for _ in range(rng.integers(1, 4)))
        cfg = make_config(L=L, l=L if k % 2 else rng.uniform(0.3, 1.0) * L,
                          species=species, photon=int(rng.integers(1, 30)),
                          exciton=int(rng.integers(1, 10)))
        matrices.append(build_dynamical_matrix(cfg, overlap_K(cfg), rng.uniform(0.0, 2.0)))
    coupled = _cross_parity(make_config(species=((3.0, 0.8), (5.5, 1.1)),
                                        photon=6, exciton=3), 0.4)
    assert len(_sectors(coupled)) == 1
    for dyn in [*matrices, coupled]:
        omegas = np.array([mode.Omega for mode in diagonalize(dyn)])
        got = frequencies(dyn)
        assert got.shape == (dyn.half_dim,)
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - omegas) / omegas) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solve", [diagonalize, frequencies], ids=lambda f: f.__name__)
def test_diagonalize_rejects_complex_spectrum(solve):
    # a rotation (A + B negative) and an indefinite A - B: both give
    # frequencies +-i Omega
    with pytest.raises(NormalizationError, match="unstable mode"):
        solve(_bare([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(NormalizationError, match="not positive definite"):
        solve(_bare([[1.0, -2.0], [2.0, -1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solve", [diagonalize, frequencies], ids=lambda f: f.__name__)
def test_diagonalize_rejects_unpaired_spectrum(solve):
    # diag(1, -2) breaks the +-Omega pairing; the other two are zero
    # modes, with A - B = 0 and with A + B = 0
    with pytest.raises(NormalizationError, match="not of the form"):
        solve(_bare(np.diag([1.0, -2.0])))
    with pytest.raises(NormalizationError, match="not positive definite"):
        solve(_bare([[1.0, -1.0], [1.0, -1.0]]))
    with pytest.raises(NormalizationError, match="zero-frequency"):
        solve(_bare([[1.0, 1.0], [-1.0, -1.0]]))
    # a 3x3 matrix cannot hold half dimension 1
    with pytest.raises(DimensionError):
        _bare(np.eye(3))


def test_assembly_matches_block_formula():
    # the module docstring's block formula, assembled by np.block; E and C
    # are evaluated in the order the module evaluates them, so the bytes
    # agree, signed zeros included
    cfg = make_config(L=1.3, l=0.9, species=((3.0, 0.8), (5.0, 1.4)), photon=7, exciton=3)
    overlaps = overlap_K(cfg)
    om = np.array([sp.omega for sp in cfg.oscillators])
    g = np.array([sp.G for sp in cfg.oscillators])
    for q in (0.0, 1.7):
        photon = photon_frequencies(cfg, transverse_wavenumber(q))
        P, root = np.diag(photon), np.sqrt(photon)
        E = 0.5 * np.sum(g ** 2) * overlaps.D / np.outer(root, root)
        C = np.hstack([0.5 * g[j] * np.sqrt(om[j]) / root[:, None] * overlaps.K
                       for j in range(2)])
        R = np.diag(np.repeat(om, 3))
        zero = np.zeros_like(R)
        reference = np.block([[P + E, C, -E, C],
                              [C.T, R, -C.T, zero],
                              [E, C, -(P + E), C],
                              [-C.T, zero, C.T, -R]])
        got = build_dynamical_matrix(cfg, overlaps, q).matrix
        assert got.tobytes() == reference.tobytes()


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
