"""Susceptibility models and numerical Kramers-Kronig transforms.

Two model variants exist.  A lorentz set is a finite list of lossless
species (omega_j, G_j) whose real susceptibility is the exact closed form

    chi'(Omega) = sum_j G_j^2 / (omega_j^2 - Omega^2);

its imaginary part is a sum of delta weights and is never put on a grid.
A sampled model carries the distributional weight density G^2(omega) >= 0
on an ascending grid and evaluates chi' through a principal-value
integral.

All PV integrals use singularity subtraction: the numerator is shifted by
its value at the pole, the remainder is an ordinary trapezoid integral,
and the subtracted part is integrated analytically.  Plain quadrature
across a PV pole does not converge; this split does, at the cost of the
edge caveat below.

The transforms evaluate that integral at every grid node at once.  Its
two sums over the nodes cost O(n log n) by FFT when the grid is uniform,
every node within _UNIFORM_RTOL h of a + i h (which admits the
12-significant-digit grids that the kk CSV writes), and O(n^2) from a
chunked dense kernel on any other grid.  Summing a grid within that
tolerance as exactly uniform moves the result by a relative amount of
order _UNIFORM_RTOL at most.

Finite grids truncate an intrinsically global transform.  When the input
has significant weight at the grid edges, the output is biased there; the
transforms emit TruncatedSpectrumWarning and attach an order-of-magnitude
tail estimate instead of returning silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridError, ParseError, PoleError, TruncatedSpectrumWarning
from .model import CavityConfig, OscillatorSpecies

_EDGE_WEIGHT_RTOL = 1e-3  # relative edge magnitude that triggers the warning
_KK_CHUNK_DOUBLES = 1 << 16  # doubles in one row chunk of the batched PV kernel
_UNIFORM_RTOL = 1e-7  # node offset from a + i h, in units of h, still summed as uniform


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LorentzSet:
    """Finite set of lossless oscillator species."""

    species: tuple[OscillatorSpecies, ...]

    @classmethod
    def from_config(cls, config: CavityConfig) -> LorentzSet:
        return cls(species=tuple(config.oscillators))

    def poles(self) -> tuple[float, ...]:
        return tuple(sp.omega for sp in self.species)

    def chi_prime(self, omega: float) -> float:
        total = 0.0
        for sp in self.species:
            den = sp.omega ** 2 - omega ** 2
            if den == 0.0:
                raise PoleError(f"chi' evaluated at resonance omega={sp.omega}")
            total += sp.G ** 2 / den
        return total


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise GridError(f"grid must be a 1-D array of >= 2 nodes, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise GridError("grid nodes must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise GridError("grid must be strictly ascending")
    if grid[0] < 0.0:
        raise GridError("grid frequencies must be nonnegative")
    return grid


@dataclass(frozen=True)
class SampledSusceptibility:
    """Weight density G^2(omega) sampled on an ascending frequency grid."""

    grid: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        grid = _check_grid(self.grid)
        weight = np.asarray(self.weight, dtype=float)
        if weight.shape != grid.shape:
            raise GridError(
                f"weight shape {weight.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(weight)):
            raise GridError("sampled weight G^2(omega) must be finite")
        if np.any(weight < 0.0):
            raise GridError("sampled weight G^2(omega) must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weight", weight)
        self.grid.flags.writeable = False
        self.weight.flags.writeable = False

    def chi_prime(self, omega: float) -> float:
        return _pv_integral(self.grid, self.weight, float(omega))


# --------------------------------------------------------------------------
# principal-value machinery
# --------------------------------------------------------------------------

def _pv_kernel_antiderivative(a: float, b: float, omega, spacing: float):
    # PV integral of 1/(w^2 - omega^2) over [a, b], at a float or an array
    # omega.  At an edge pole the true PV diverges logarithmically; the
    # cutoff of half a grid spacing is the resolution the discrete data
    # supports, and the caller warns.
    omega = np.asarray(omega, dtype=float)
    ga = np.maximum(np.abs(a - omega), 0.5 * spacing)
    gb = np.maximum(np.abs(b - omega), 0.5 * spacing)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (1.0 / (2.0 * omega)) * np.log((gb * (a + omega)) / ((b + omega) * ga))
    return np.where(omega == 0.0, 1.0 / a - 1.0 / b if a > 0.0 else np.inf, value)


def _tail_kernel_integral(b: float, omega, f_b: float, spacing: float):
    # integral of f(b) (b/w)^2 / (w^2 - omega^2) over [b, inf), the
    # inverse-square continuation of the last sample, at a float or an
    # array omega.  Its log term cancels the edge divergence of the support
    # PV exactly, so the combined transform stays bounded as omega
    # approaches the grid edge.
    omega = np.asarray(omega, dtype=float)
    gap = np.maximum(b - omega, 0.5 * spacing)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = np.log((b + omega) / gap) / (2.0 * omega) - 1.0 / b
        value = f_b * (b / omega) ** 2 * bracket
    return np.where(omega == 0.0, f_b / (3.0 * b), value)


def _pv_integral(grid: np.ndarray, numerator: np.ndarray, omega: float,
                 tail_model: bool = False) -> float:
    """PV integral of numerator(w)/(w^2 - omega^2) over the grid support.

    Inside the support the pole is subtracted and integrated analytically;
    outside, the integrand is regular and the plain trapezoid applies.
    With tail_model the numerator is continued past the last node with an
    inverse-square falloff and that tail is integrated in closed form.
    Sampled oscillator densities are compactly supported by definition and
    must not use it; globally supported response functions must, or the
    truncated transform develops a log spike against the upper edge.
    """
    a, b = grid[0], grid[-1]
    den = grid ** 2 - omega ** 2
    if omega < a or omega > b:
        return float(np.trapezoid(numerator / den, grid))

    k = int(np.argmin(np.abs(grid - omega)))
    exact_node = abs(grid[k] - omega) <= 1e-14 * max(1.0, omega)
    f_at = numerator[k] if exact_node else float(np.interp(omega, grid, numerator))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        integrand = (numerator - f_at) / den
    # off the nodes den never vanishes; at the node omega the singularity is
    # removable with limit f'(omega)/(2 omega), or at omega = 0 (the first
    # node) the neighboring value
    if exact_node and omega > 0.0:
        lo, hi = max(k - 1, 0), min(k + 1, len(grid) - 1)
        deriv = (numerator[hi] - numerator[lo]) / (grid[hi] - grid[lo])
        integrand[k] = deriv / (2.0 * omega)
    elif exact_node:
        integrand[k] = integrand[k + 1]
    if not np.all(np.isfinite(integrand)):
        raise GridError("PV integrand not finite after subtraction")

    spacing = float(np.min(np.diff(grid)))
    tail = 0.0
    if f_at != 0.0:
        tail = f_at * _pv_kernel_antiderivative(a, b, omega, spacing)
        if not np.isfinite(tail):
            raise GridError(f"PV kernel integral diverges at omega={omega}")
    if tail_model and numerator[-1] != 0.0 and b > 0.0:
        tail += _tail_kernel_integral(b, omega, float(numerator[-1]), spacing)
    return float(np.trapezoid(integrand, grid) + tail)


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    # c with sum_i c_i f(grid_i) the trapezoid rule on the grid
    weights = np.empty_like(grid)
    weights[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    weights[0] = 0.5 * (grid[1] - grid[0])
    weights[-1] = 0.5 * (grid[-1] - grid[-2])
    return weights


def _uniform_spacing(grid: np.ndarray) -> float | None:
    # the spacing h when every node lies within _UNIFORM_RTOL h of
    # grid[0] + i h, else None
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    offsets = grid - (grid[0] + h * np.arange(len(grid)))
    return h if np.max(np.abs(offsets)) <= _UNIFORM_RTOL * h else None


def _uniform_sums(grid: np.ndarray, h: float, columns: np.ndarray) -> np.ndarray:
    """sum_{i != k} X_i / (g_i^2 - g_k^2) at every node k, for each row X.

    On the uniform grid g_i = a + i h the partial fractions

        1/(g_i^2 - g_k^2) = [1/(g_i - g_k) - 1/(g_i + g_k)] / (2 g_k)

    split each sum into a Toeplitz correlation with 1/((i - k) h) and a
    Hankel convolution with 1/(2a + (i + k) h).  Each is one real-FFT
    product of length >= 2n - 1 (F. W. King, Hilbert Transforms, vol. 1,
    2009): O(n log n) arithmetic.  The k = 0 row, where g_0 may vanish, is
    summed directly.
    """
    count = grid.size
    size = 1 << (2 * count - 1).bit_length()
    steps = h * np.arange(1, count)
    toeplitz = np.zeros(size)
    toeplitz[1:count] = 1.0 / steps
    toeplitz[:size - count:-1] = -1.0 / steps
    # the index sum 0 meets only the k = 0 row, which is replaced below
    hankel = np.zeros(2 * count - 1)
    hankel[1:] = 1.0 / (2.0 * grid[0] + h * np.arange(1, 2 * count - 1))
    rfft, irfft = np.fft.rfft, np.fft.irfft
    twice = 2.0 * (grid[0] + h * np.arange(count))
    # samples near the largest double overflow here; the caller's
    # finiteness check refuses them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # t is odd, so sum_i X_i t_{i-k} is minus the convolution of X with t
        below = -irfft(rfft(columns, size) * rfft(toeplitz), size)[:, :count]
        above = irfft(rfft(columns[:, ::-1], size) * rfft(hankel, size),
                      size)[:, count - 1:2 * count - 1]
        # the Hankel sum includes i = k, whose term is X_k / (2 g_k)
        sums = (below - above + columns / twice) / twice
        sums[:, 0] = columns[:, 1:] @ np.reciprocal(grid[1:] ** 2 - grid[0] ** 2)
    return sums


def _dense_sums(grid: np.ndarray, columns: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    # the same sums at the given nodes from the kernel R[k, i] =
    # 1/(g_i^2 - g_k^2) with its diagonal zeroed, built a few rows at a
    # time so that no chunk holds more than _KK_CHUNK_DOUBLES doubles:
    # O(len(grid)^2) arithmetic in bounded memory, on any grid
    count = len(grid)
    sq = grid ** 2
    sums = np.empty((len(columns), len(nodes)))
    rows = max(1, _KK_CHUNK_DOUBLES // count)
    for start in range(0, len(nodes), rows):
        part = nodes[start:start + rows]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            kernel = np.reciprocal(sq[None, :] - sq[part, None])
            kernel[np.arange(len(part)), part] = 0.0
            sums[:, start:start + rows] = columns @ kernel.T
    return sums


def _pv_at_nodes(grid: np.ndarray, numerator: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """_pv_integral(grid, numerator, grid[k], tail_model=True) at every node k.

    With trapezoid weights c and R[k, i] = 1/(g_i^2 - g_k^2), the
    subtracted trapezoid sum at node k is

        sum_{i != k} c_i n_i R[k, i] - n_k sum_{i != k} c_i R[k, i] + c_k y_k,

    y_k the removable value of the integrand at its pole.  Both sums for
    every node come from the columns c n and c: by FFT when the grid is
    uniform (_uniform_sums), else from the dense kernel (_dense_sums).
    Agrees with the per-node integral up to summation order, and on a
    uniform grid up to the nodes' offsets from uniform.
    """
    count = len(grid)
    weights = _trapezoid_weights(grid)
    targets = grid[nodes]
    # the removable value: f'(omega)/(2 omega) from the neighbouring nodes,
    # or at omega = 0 (the first node) the neighbouring integrand value
    lo, hi = np.maximum(nodes - 1, 0), np.minimum(nodes + 1, count - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        removable = ((numerator[hi] - numerator[lo]) / (grid[hi] - grid[lo])
                     / (2.0 * targets))
        removable[targets == 0.0] = (numerator[1] - numerator[0]) / grid[1] ** 2
    columns = np.stack([weights * numerator, weights])
    spacing = _uniform_spacing(grid)
    if spacing is None:
        sums = _dense_sums(grid, columns, nodes)
    else:
        sums = _uniform_sums(grid, spacing, columns)[:, nodes]
    with np.errstate(invalid="ignore", over="ignore"):
        # every subtracted numerator n_i - n_k, the integrand's numerators,
        # is finite exactly when its two extremes are
        subtracted = (np.isfinite(numerator.max() - numerator[nodes])
                      & np.isfinite(numerator[nodes] - numerator.min()))
        pv = sums[0] - numerator[nodes] * sums[1] + weights[nodes] * removable
    if not np.all(subtracted & np.isfinite(removable) & np.isfinite(pv)):
        raise GridError("PV integrand not finite after subtraction")

    a, b = grid[0], grid[-1]
    spacing = float(np.min(np.diff(grid)))
    with np.errstate(invalid="ignore"):
        pole = np.where(numerator[nodes] != 0.0, numerator[nodes]
                        * _pv_kernel_antiderivative(a, b, targets, spacing), 0.0)
    if not np.all(np.isfinite(pole)):
        omega = targets[np.flatnonzero(~np.isfinite(pole))[0]]
        raise GridError(f"PV kernel integral diverges at omega={omega}")
    pv += pole
    if numerator[-1] != 0.0 and b > 0.0:
        pv += _tail_kernel_integral(b, targets, float(numerator[-1]), spacing)
    return pv


# --------------------------------------------------------------------------
# Kramers-Kronig transforms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KKResult:
    """Transformed samples plus the truncation-bias estimate."""

    grid: np.ndarray
    values: np.ndarray
    tail_estimate: float


def _checked_samples(grid, values, label: str) -> tuple[np.ndarray, np.ndarray]:
    # the grid and samples of a transform as float arrays, GridError unless
    # both are finite and of one shape; warns when weight sits at an edge
    grid = _check_grid(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise GridError("sample shape does not match grid")
    if not np.all(np.isfinite(values)):
        raise GridError(f"{label} samples must be finite")
    scale = float(np.max(np.abs(values)))
    # a grid that starts at zero covers the whole half line on that side,
    # so only weight stranded at a truncated edge signals bias
    edge = abs(float(values[-1]))
    if grid[0] > 0.0:
        edge = max(edge, abs(float(values[0])))
    if edge > _EDGE_WEIGHT_RTOL * scale:
        warnings.warn(
            f"{label} has weight {edge:.3g} at the grid edge (scale {scale:.3g}); "
            "the finite-support transform is biased there",
            TruncatedSpectrumWarning, stacklevel=3)
    return grid, values


def _tail_estimate(grid: np.ndarray, numerator: np.ndarray) -> float:
    # neglected tail approximated by continuing the last numerator value
    # with a 1/w^2 falloff: int_b^inf |f(b)| (b/w)^2 / w^2 dw ~ |f(b)| / b
    b = grid[-1]
    return float(abs(numerator[-1]) / b) if b > 0 else 0.0


def kk_forward(grid: np.ndarray, chi_imag: np.ndarray) -> KKResult:
    """chi'(Omega) = (2/pi) PV int w chi''(w) / (w^2 - Omega^2) dw."""
    grid, chi_imag = _checked_samples(grid, chi_imag, "chi''")
    # an overflowing product is caught as a non-finite PV integrand
    with np.errstate(over="ignore"):
        numerator = grid * chi_imag
    out = (2.0 / np.pi) * _pv_at_nodes(grid, numerator, np.arange(len(grid)))
    return KKResult(grid=grid, values=out,
                    tail_estimate=(2.0 / np.pi) * _tail_estimate(grid, numerator))


def kk_inverse(grid: np.ndarray, chi_real: np.ndarray) -> KKResult:
    """chi''(Omega) = -(2 Omega/pi) PV int chi'(w) / (w^2 - Omega^2) dw."""
    grid, chi_real = _checked_samples(grid, chi_real, "chi'")
    # the odd prefactor wins at zero frequency, where no PV is evaluated
    out = np.zeros_like(chi_real)
    nodes = np.flatnonzero(grid != 0.0)
    out[nodes] = -(2.0 * grid[nodes] / np.pi) * _pv_at_nodes(grid, chi_real, nodes)
    scale = float(grid[-1])
    return KKResult(grid=grid, values=out,
                    tail_estimate=(2.0 * scale / np.pi) * _tail_estimate(grid, chi_real))


# --------------------------------------------------------------------------
# discretization and file formats
# --------------------------------------------------------------------------

def species_from_grid(model: SampledSusceptibility) -> tuple[OscillatorSpecies, ...]:
    """Map a sampled weight density onto discrete species.

    Trapezoid nodes become resonances and trapezoid weights become squared
    couplings: omega_j = w_j, G_j^2 = weight_j * G^2(w_j).  This is one
    quadrature choice among many, recorded rather than canonical; a zero
    first node is dropped because species frequencies are strictly
    positive.
    """
    out = []
    for node, weight, density in zip(model.grid, _trapezoid_weights(model.grid),
                                     model.weight):
        if node <= 0.0:
            continue
        out.append(OscillatorSpecies(omega=float(node), G=float(np.sqrt(weight * density))))
    return tuple(out)


def load_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (omega, value) text file with '#' comments."""
    path = Path(path)
    try:
        rows = [line for line in path.read_text(encoding="utf-8").splitlines()
                if line.split("#", 1)[0].strip()]
        if not rows:
            raise ParseError(f"{path} holds no samples")
        data = np.loadtxt(rows, comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read samples from {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ParseError(f"{path} must have exactly two columns, found {data.shape[1]}")
    grid = _check_grid(data[:, 0])
    return grid, data[:, 1].copy()


def save_samples(path, grid: np.ndarray, values: np.ndarray, comment: str = "") -> None:
    """Write samples in the same two-column format the loader accepts."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for w, v in zip(grid, values):
            fh.write(f"{w:.11e} {v:.11e}\n")
