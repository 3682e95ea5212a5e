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

Flipping the sign of the Zt coordinates brings M to the standard bosonic
form [[A, -B], [B, -A]], A = [[P+E, C], [C^T, R]], B = [[E, C], [C^T, 0]]
(Colpa, Physica A 93, 327 (1978)).  A - B = diag(P, R) is positive definite
exactly when every frequency is > 0, so the reduction to a symmetric
eigenproblem of half the size is the diagonal scaling d (A + B) d with
d = sqrt(diag(P, R)), once per mirror-parity sector.  No solver builds M:
a DynamicalMatrix holds P, R, E and C.  ``diagonalize`` also takes the
eigenvectors and returns full, ordered, boson-normalized modes;
``frequencies``, behind ``spectrum`` and the dynamical sweep, stops at the
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NormalizationError
from .model import CavityConfig, transverse_wavenumber
from .modes import OverlapSet, _sector_masks, overlap_K, photon_frequencies

# relative scales: smallest admissible Omega^2, symmetry of E, degenerate
# clusters of Omega
_ZERO_MODE_RTOL = 1e-12
_PAIRING_RTOL = 1e-10
_CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class DynamicalMatrix:
    """M's blocks at one q, read-only: diag(P), diag(R) species-major, E, C.

    DimensionError on shapes that do not fit the counts; NormalizationError
    on an asymmetric E or a frequency that is not finite and > 0.
    """

    photon: np.ndarray
    matter: np.ndarray
    E: np.ndarray
    C: np.ndarray
    photon_mode_count: int
    species_count: int
    exciton_mode_count: int
    q: float

    def __post_init__(self) -> None:
        n, m = self.photon_mode_count, self.half_dim - self.photon_mode_count
        blocks = (self.photon, self.matter, self.E, self.C)
        if tuple(block.shape for block in blocks) != ((n,), (m,), (n, n), (n, m)):
            raise DimensionError(f"blocks of shapes {[block.shape for block in blocks]} do "
                                 f"not fit {n} photon and {m} matter coordinates")
        if np.abs(self.E - self.E.T).max(initial=0) > _PAIRING_RTOL * np.abs(self.E).max(initial=0):
            raise NormalizationError("E is not symmetric: eigenvalues are not +-Omega paired")
        if not all(np.all((f > 0) & (f < np.inf)) for f in (self.photon, self.matter)):
            raise NormalizationError("A - B is not positive definite: the Hamiltonian is unstable")
        for block in blocks:
            block.flags.writeable = False

    @property
    def half_dim(self) -> int:
        return self.photon_mode_count + self.species_count * self.exciton_mode_count

    @property
    def matrix(self) -> np.ndarray:
        """M, read-only, assembled by the docstring's formula at every read."""
        P, R, E, C = np.diag(self.photon), np.diag(self.matter), self.E, self.C
        M = np.block([[P + E, C, -E, C], [C.T, R, -C.T, np.zeros_like(R)],
                      [E, C, -(P + E), C], [-C.T, np.zeros_like(R), C.T, -R]])
        M.flags.writeable = False
        return M


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
    """The blocks of the 2(N + S*Xi) evolution matrix at in-plane wavenumber q."""
    overlaps.check_shape(config)
    n, s, xi = config.photon_mode_count, config.species_count(), config.exciton_mode_count
    qv = transverse_wavenumber(q)

    om_phot = photon_frequencies(config, qv)
    om_spec = np.array([sp.omega for sp in config.oscillators])
    g_spec = np.array([sp.G for sp in config.oscillators])

    sqrt_phot = np.sqrt(om_phot)
    E = 0.5 * np.sum(g_spec ** 2) * overlaps.D / np.outer(sqrt_phot, sqrt_phot)

    # C is N x (S Xi), species blocks side by side
    C = np.hstack([0.5 * g_spec[j] * np.sqrt(om_spec[j]) / sqrt_phot[:, None] * overlaps.K
                   for j in range(s)])
    return DynamicalMatrix(photon=om_phot, matter=np.repeat(om_spec, xi), E=E, C=C,
                           photon_mode_count=n, species_count=s,
                           exciton_mode_count=xi, q=qv)


def _reduce(dyn: DynamicalMatrix, vectors: bool):
    """The reduction shared by diagonalize and frequencies.

    Per parity sector, solves d (A + B) d (eigenvectors z only when vectors
    is set), then rejects zero and unstable modes over all sectors.  Returns
    one (indices, A + B, d z or None) per sector and Omega^2 of all sectors
    in sector order.
    """
    n, E, C = dyn.photon_mode_count, dyn.E, dyn.C
    PE = np.diag(dyn.photon) + E
    sectors, omega2 = [], []
    # the photon rows [E, C] of A + B hold every entry that can cross sectors
    for mask in _sector_masks(n, dyn.exciton_mode_count, dyn.species_count, (np.hstack((E, C)),)):
        ph, ma = np.ix_(mask[:n], mask[:n]), np.ix_(mask[:n], mask[n:])
        # A + B block by block, (P + E) + E as that sum rounds, not P + 2E
        a_plus_b = np.block([[PE[ph] + E[ph], C[ma] + C[ma]],
                             [C[ma].T + C[ma].T, np.diag(dyn.matter[mask[n:]])]])
        d = np.sqrt(np.concatenate([dyn.photon, dyn.matter])[mask])
        H = d[:, None] * a_plus_b * d
        try:
            w2, z = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigensolver failed: {exc}") from exc
        sectors.append((np.flatnonzero(mask), a_plus_b, None if z is None else d[:, None] * z))
        omega2.append(w2)
    omega2 = np.concatenate(omega2)
    # a zero mode shows up as Omega^2 at round-off level, an unstable one
    # as a negative Omega^2; a stable spectrum wider than the rule is
    # refused too, since its smallest Omega^2 is then unresolved
    lo, hi = np.min(omega2), np.max(omega2)
    if lo <= _ZERO_MODE_RTOL * hi:
        raise NormalizationError(
            f"zero-frequency or unstable mode: smallest Omega^2 {lo:.6g} <= "
            f"{_ZERO_MODE_RTOL:g} x largest Omega^2 {hi:.6g}")
    return sectors, omega2


def diagonalize(dyn: DynamicalMatrix) -> list[PolaritonMode]:
    """Return all positive-frequency modes, boson-normalized, sorted by Omega.

    In the standard form of the module docstring, a mode (x, y) has
    r = x - y and p = x + y with (A - B) p = d^2 p = Omega r and
    (A + B) r = Omega p.  So Omega^2 are the eigenvalues of the symmetric
    half-size d (A + B) d with eigenvectors z, r = d z, p = (A + B) r / Omega
    and x, y = (p +- r) / (2 sqrt(Omega)): every mode is boson-normalized
    and eta-orthogonal to every other mode by construction.

    Each mirror-parity sector of modes._sector_masks is solved on its own
    when E and C vanish exactly between the sectors, as
    build_dynamical_matrix makes them; other blocks are one sector.
    Omega^2 of all sectors is sorted stably before the global cluster and
    sign rules below.  NormalizationError means some Omega^2 is not
    positive (unstable parameters); ConvergenceError, that the symmetric
    eigensolver failed.
    """
    n, half = dyn.photon_mode_count, dyn.half_dim
    sectors, omega2 = _reduce(dyn, vectors=True)

    # columns in sector order, rows in (x, y) coordinates with Zt flipped
    omegas = np.sqrt(omega2)
    V = np.zeros((2 * half, half))
    start = 0
    for idx, a_plus_b, r in sectors:
        cols = slice(start, start + len(idx))
        p = a_plus_b @ r / omegas[cols]
        V[idx, cols], V[half + idx, cols] = p + r, p - r
        start += len(idx)
    # flipping Zt back gives the (W, Xt, Y, Zt) coordinates
    flip = np.r_[np.ones(half + n), -np.ones(half - n)]
    V *= flip[:, None] / (2.0 * np.sqrt(omegas))
    ascending = np.argsort(omega2, kind="stable")
    omegas, V = omegas[ascending], V[:, ascending]

    # deterministic basis: inside each cluster of degenerate Omega, order
    # by dominant coordinate index (ties keep the eigensolver's order);
    # then make every dominant coefficient positive, first index winning
    cluster = np.cumsum(np.r_[0, np.diff(omegas) > _CLUSTER_RTOL * omegas[1:]])
    dominant = np.argmax(np.abs(V), axis=0)
    order = np.lexsort((dominant, cluster))
    V, dominant = V[:, order], dominant[order]
    V *= np.where(V[dominant, np.arange(half)] < 0, -1.0, 1.0)

    # one row per mode; the boson norm sum(x^2) - sum(y^2) checked at once
    rows = V.T
    norms = np.sum(rows[:, :half] ** 2, axis=1) - np.sum(rows[:, half:] ** 2, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-8)
    if bad.size:
        raise NormalizationError(f"mode at Omega={omegas[bad[0]]:.6g} has norm {norms[bad[0]]}")
    W, Y = rows[:, :n].copy(), rows[:, half:half + n].copy()
    X, Z = -1j * rows[:, n:half], -1j * rows[:, half + n:]
    return [PolaritonMode(Omega=omega, W=W[k], X=X[k], Y=Y[k], Z=Z[k], q=dyn.q)
            for k, omega in enumerate(omegas.tolist())]


def frequencies(dyn: DynamicalMatrix) -> np.ndarray:
    """Sorted positive eigenfrequencies Omega of dyn, without mode vectors.

    The same reduction and checks as diagonalize, up to the eigenvalues:
    each sector's d (A + B) d goes to the eigenvalue-only symmetric
    solver.  With no vectors there is no cluster order, sign rule or norm
    check.  Raises the same errors as diagonalize for the same matrices.
    """
    return np.sqrt(np.sort(_reduce(dyn, vectors=False)[1]))


def spectrum(config: CavityConfig, q) -> np.ndarray:
    """Sorted positive eigenfrequencies at q; convenience composition."""
    overlaps = overlap_K(config)
    dyn = build_dynamical_matrix(config, overlaps, q)
    return frequencies(dyn)
