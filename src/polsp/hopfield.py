"""Assembly and diagonalization of the coupled light-matter mode equations.

The quadratic Hamiltonian of N photon modes and S*Xi matter modes yields,
for the coefficient vector v = (W, Xt, Y, Zt), a first-order eigenproblem
Omega v = M v of dimension 2(N + S*Xi).  The tilde variables absorb a phase
(Xt = i X, Zt = i Z) so that every entry of M is real.

With P = diag(Omega_m), R = diag(omega_j) per matter coordinate,
E[m,k] = (1/2) (sum_j G_j^2) D[m,k] / sqrt(Omega_m Omega_k) and
C[m,(j,xi)] = (1/2) G_j sqrt(omega_j / Omega_m) K[m,xi], the blocks read

    M = [[ P+E,  C,  -E,     C ],
         [ C^T,  R,  -C^T,   0 ],
         [ E,    C,  -(P+E), C ],
         [-C^T,  0,   C^T,  -R ]].

The minus signs in the Zt row are forced by consistency: eliminating the
matter coordinates from Omega v = M v must reproduce the secular relation
with coupling weight Omega^2 / (omega_j^2 - Omega^2), and only this sign
assignment does.  The metric eta = diag(+1, -1) over the (W, Xt | Y, Zt)
split makes eta M symmetric, which is what guarantees the +-Omega pairing
and the eta-orthogonality of eigenvectors across distinct eigenvalues.

``diagonalize`` never solves this non-symmetric problem directly.  Flipping
the sign of the Zt coordinates brings M to the standard bosonic form
[[A, -B], [B, -A]] with A and B symmetric (Colpa, Physica A 93, 327
(1978)), which one Cholesky factorization and one symmetric eigenproblem
of half the size diagonalize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NormalizationError
from .model import CavityConfig, transverse_wavenumber
from .modes import OverlapSet, overlap_K, photon_frequencies

# relative scales: smallest admissible Omega^2, standard-form check,
# degenerate clusters of Omega
_ZERO_MODE_RTOL = 1e-12
_PAIRING_RTOL = 1e-10
_CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class DynamicalMatrix:
    """The real first-order evolution matrix plus its block bookkeeping."""

    matrix: np.ndarray
    photon_mode_count: int
    species_count: int
    exciton_mode_count: int
    q: float

    def __post_init__(self) -> None:
        if self.matrix.shape != (2 * self.half_dim,) * 2:
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match half dimension {self.half_dim}")
        self.matrix.flags.writeable = False

    @property
    def half_dim(self) -> int:
        return self.photon_mode_count + self.species_count * self.exciton_mode_count


@dataclass(frozen=True)
class PolaritonMode:
    """One positive-frequency polariton eigenmode.

    W, Y are the photon-like coefficient vectors; X, Z the matter-like
    ones with the i-phase of the tilde convention restored, so X and Z are
    purely imaginary.  The boson normalization is

        sum(|W|^2 - |Y|^2) + sum(|X|^2 - |Z|^2) = 1.
    """

    Omega: float
    W: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    q: float

    def symplectic_norm(self) -> float:
        return float(np.sum(np.abs(self.W) ** 2) - np.sum(np.abs(self.Y) ** 2)
                     + np.sum(np.abs(self.X) ** 2) - np.sum(np.abs(self.Z) ** 2))


def build_dynamical_matrix(config: CavityConfig, overlaps: OverlapSet, q) -> DynamicalMatrix:
    """Assemble the 2(N + S*Xi) evolution matrix at in-plane wavenumber q."""
    overlaps.check_shape(config)
    n = config.photon_mode_count
    s = config.species_count()
    xi = config.exciton_mode_count
    qv = transverse_wavenumber(q)

    om_phot = photon_frequencies(config, qv)
    om_spec = np.array([sp.omega for sp in config.oscillators])
    g_spec = np.array([sp.G for sp in config.oscillators])

    sqrt_phot = np.sqrt(om_phot)
    E = 0.5 * np.sum(g_spec ** 2) * overlaps.D / np.outer(sqrt_phot, sqrt_phot)

    # C is N x (S Xi), species blocks side by side
    C = np.empty((n, s * xi))
    for j in range(s):
        C[:, j * xi:(j + 1) * xi] = (
            0.5 * g_spec[j] * np.sqrt(om_spec[j]) / sqrt_phot[:, None] * overlaps.K)

    P = np.diag(om_phot)
    R = np.diag(np.repeat(om_spec, xi))
    Zb = np.zeros((s * xi, s * xi))

    M = np.block([
        [P + E, C, -E, C],
        [C.T, R, -C.T, Zb],
        [E, C, -(P + E), C],
        [-C.T, Zb, C.T, -R],
    ])
    return DynamicalMatrix(matrix=M, photon_mode_count=n, species_count=s,
                           exciton_mode_count=xi, q=qv)


def diagonalize(dyn: DynamicalMatrix) -> list[PolaritonMode]:
    """Return all positive-frequency modes, boson-normalized, sorted by Omega.

    Standard-form reduction (Colpa, Physica A 93, 327 (1978)): with the
    sign of the Zt coordinates flipped, M = [[A, -B], [B, -A]] with A and
    B symmetric.  Writing a mode as (x, y), r = x - y and p = x + y obey
    (A - B) p = Omega r and (A + B) r = Omega p.  The Hamiltonian is stable
    exactly when A - B = L L^T and A + B are positive definite; then Omega^2
    are the eigenvalues of the symmetric half-size matrix L^T (A + B) L
    with eigenvectors z, r = L z, p = (A + B) r / Omega and
    x, y = (p +- r) / (2 sqrt(Omega)), which makes every mode boson-
    normalized and eta-orthogonal to every other mode by construction.

    Raises NormalizationError when M is not of that form, when A - B has
    no Cholesky factor or when some Omega^2 is not positive; each signals
    an unstable parameter set or an assembly bug.  ConvergenceError means
    the symmetric eigensolver failed.
    """
    n, half = dyn.photon_mode_count, dyn.half_dim
    flip = np.ones(2 * half)
    flip[half + n:] = -1.0
    M = flip[:, None] * dyn.matrix * flip
    A, B = M[:half, :half], -M[:half, half:]
    scale = np.max(np.abs(M))
    swapped_top = np.hstack([M[:half, half:], M[:half, :half]])
    etaM = np.vstack([M[:half], -M[half:]])
    if max(np.max(np.abs(M[half:] + swapped_top)),
           np.max(np.abs(etaM - etaM.T))) > _PAIRING_RTOL * scale:
        raise NormalizationError("matrix is not of the form [[A, -B], [B, -A]] "
                                 "with A, B symmetric: eigenvalues are not +-Omega paired")
    try:
        L = np.linalg.cholesky(A - B)
    except np.linalg.LinAlgError as exc:
        raise NormalizationError(
            "A - B is not positive definite: the Hamiltonian is unstable") from exc
    try:
        omega2, z = np.linalg.eigh(L.T @ (A + B) @ L)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    # a zero mode shows up as Omega^2 at round-off level, an unstable one
    # as a negative Omega^2
    if omega2[0] <= _ZERO_MODE_RTOL * omega2[-1]:
        raise NormalizationError("zero-frequency or unstable mode encountered")

    omegas = np.sqrt(omega2)
    r = L @ z
    p = (A + B) @ r / omegas
    V = flip[:, None] * np.vstack([p + r, p - r]) / (2.0 * np.sqrt(omegas))

    # deterministic basis: inside each cluster of degenerate Omega, order
    # by dominant coordinate index (ties keep the eigensolver's order);
    # then make every dominant coefficient positive, first index winning
    cluster = np.cumsum(np.r_[0, np.diff(omegas) > _CLUSTER_RTOL * omegas[1:]])
    dominant = np.argmax(np.abs(V), axis=0)
    order = np.lexsort((dominant, cluster))
    V, dominant = V[:, order], dominant[order]
    V *= np.where(V[dominant, np.arange(half)] < 0, -1.0, 1.0)

    modes = []
    for k in range(half):
        v = V[:, k]
        mode = PolaritonMode(
            Omega=float(omegas[k]),
            W=v[:n].copy(),
            X=-1j * v[n:half],
            Y=v[half:half + n].copy(),
            Z=-1j * v[half + n:],
            q=dyn.q)
        norm = mode.symplectic_norm()
        if abs(norm - 1.0) > 1e-8:
            raise NormalizationError(f"mode at Omega={mode.Omega:.6g} has norm {norm}")
        modes.append(mode)
    return modes


def spectrum(config: CavityConfig, q) -> np.ndarray:
    """Sorted positive eigenfrequencies at q; convenience composition."""
    overlaps = overlap_K(config)
    dyn = build_dynamical_matrix(config, overlaps, q)
    return np.array([mode.Omega for mode in diagonalize(dyn)])
