"""Frequency-domain dispersion solvers and branch tracking.

Four independent routes to the same eigenfrequencies live here:

* ``secular_roots``: zeros of det(I - M(Omega)) for the N-photon secular
  operator, evaluated through the equivalent (Xi x Xi) reduced matrix so
  the cost scales with the matter truncation, not the photon one, and
  found by multisecting an exact inertia count of its roots.
* ``one_exciton_roots`` / ``two_exciton_roots``: the scalar and 2x2
  closed-form factorizations available at Xi = 1, 2 with one species.
* ``green_roots``: roots of the Green-function matching system, which
  never truncates the photon field at all, found by multisecting an exact
  count of each mirror-parity sector's roots.
* ``classical_roots``: the transcendental relation of the classical slab
  problem, the Xi -> infinity limit of the secular method.

Uncoupled lines (a photon mode with a zero overlap column, or leftover
degenerate matter modes) sit exactly on poles of the secular and
closed-form functions.  They are reported by the dynamical method only;
the scanners here never search inside pole_exclusion neighborhoods, which
is what makes cross-method comparison well defined.

All root finding is bracketing plus bisection, never derivative-based:
the functions have poles and near-vertical branches, and a count is
trustworthy where a Newton step is not.  Every route multisects a count of
its roots below each frequency (after Wittrick and Williams: the inertia
of the reduced matrix, from one sign or from its determinant and trace in
the closed forms, and the negative eigenvalues of the half-cavity
operator, whose slab the classical route fills), which sees every root
however close two lie and ranks it, so sweep labels branches by it.  Only
classical_roots with a caller's own susceptibility scans signs, with a
repeat at doubled density that raises BracketError on a changed count.

No route evaluates the determinant whose zeros are its roots: those
reference definitions are kept with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BracketError, BranchMatchError, ConfigError
from .model import (CavityConfig, check_positive, check_scan_points,
                    transverse_wavenumber)
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
    """Split a finite window at the poles, removing exclusion half-widths > 0."""
    check_positive("exclusion", exclusion)
    # a reversed window is left empty; a NaN or infinite edge is refused
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"window edges must be finite, got ({lo}, {hi})")
    segments = []
    prev = lo
    for p in sorted(p for p in poles if lo - exclusion < p < hi + exclusion):
        if p - exclusion > prev:
            segments.append((prev, p - exclusion))
        prev = max(prev, p + exclusion)
    if hi > prev:
        segments.append((prev, hi))
    return segments


def _bisect_sign(signs, brackets, rel_tol: float) -> np.ndarray:
    # the roots of ascending sign brackets (lo, hi, sign at lo), halved in
    # lockstep by _multisect_counts: a point of bracket k has level 2k, plus
    # 1 where the sign of signs(xs) differs from the sign at its lo.  The
    # end levels are given, not evaluated, since two brackets can share an
    # endpoint; a bracket of width zero (an exact-zero sample) is done at once
    lo, hi, sign_lo = np.array(brackets, dtype=float).reshape(-1, 3).T

    def levels(xs):
        k = np.searchsorted(lo, xs, side="right") - 1
        return 2 * k + (np.sign(signs(xs)) != sign_lo[k])
    return _multisect_counts(levels, np.column_stack((lo, hi)), rel_tol,
                             np.arange(2 * len(lo)).reshape(-1, 2), sections=2)


def _sign_changes(xs: np.ndarray, signs: np.ndarray):
    # (lo, hi, sign at lo) per bracket, ascending: a point where the sign is
    # exactly zero is a bracket of width zero, else a cell whose ends differ
    zero = signs == 0.0
    crossing = np.zeros_like(zero)
    crossing[:-1] = signs[:-1] * signs[1:] < 0.0
    return [(xs[i], xs[i], 0.0) if zero[i] else (xs[i], xs[i + 1], signs[i])
            for i in np.flatnonzero(zero | crossing)]


def _brackets(signs, lo: float, hi: float, n: int):
    """Sign-change brackets of signs(xs) on n and on 2n - 1 equispaced points.

    linspace(lo, hi, n) equals linspace(lo, hi, 2n - 1)[::2] bit for bit,
    so the fine grid is evaluated in one call and the coarse brackets reuse
    every other sample.
    """
    xs = np.linspace(lo, hi, 2 * n - 1)
    fine = np.sign(signs(xs))
    return _sign_changes(xs[::2], fine[::2]), _sign_changes(xs, fine)


def scan_roots(f, window: tuple[float, float], poles, *, exclusion: float,
               scan_points: int, rel_tol: float) -> np.ndarray:
    """All roots of the scalar f in the window, excluding pole neighborhoods.

    Each pole-free segment is bracketed twice, at scan_points and at double
    density; a differing bracket count means the grid cannot be trusted and
    raises BracketError rather than guessing.  Every bracket is then halved
    in lockstep down to rel_tol.  ``scan_points`` must be an integer >= 2,
    and ``exclusion`` and ``rel_tol`` real numbers in (0, inf).
    """
    check_scan_points(scan_points)
    check_positive("rel_tol", rel_tol)

    def signs(xs):
        return np.array([f(x) for x in xs])
    brackets = []
    for lo, hi in pole_free_segments(window, poles, exclusion):
        coarse, fine = _brackets(signs, lo, hi, scan_points)
        if len(coarse) != len(fine):
            raise BracketError(
                f"scan with {scan_points} points found {len(coarse)} sign changes "
                f"on ({lo:.6g}, {hi:.6g}) but {len(fine)} at doubled density; "
                "increase scan_points, or widen pole_exclusion if roots "
                "accumulate against a resonance")
        brackets += fine
    return np.sort(_bisect_sign(signs, brackets, rel_tol))


_COUNT_SECTIONS = 8  # equal parts an interval is cut into per counting step


def _multisect_counts(counts, segments, rel_tol: float, levels=None,
                      sections: int = _COUNT_SECTIONS, owners=None):
    """Roots on the segments from a count that rises by one at each root.

    ``counts(xs)`` must return an integer per frequency of the array xs
    that, within one segment, rises by one at each root and changes
    nowhere else; ``levels``, if given, holds its values at the segments'
    ends.  Every interval whose count rises is cut into ``sections`` equal
    parts in lockstep, one counts call per step on the interior points of
    all of them; the counts are clamped to be nondecreasing across each
    interval, so a near-zero eigenvalue that rounds the wrong way cannot
    add or lose a root.  An interval with hi - lo <= rel_tol max(1, |mid|)
    reports its midpoint once for every unit its count rises.  ``owners``,
    if given, holds an integer per segment, the index of its q in a grid;
    counts is then called as counts(xs, owner of each x), and the roots
    come back with their owners as a second array.
    """
    grid = np.array(segments, dtype=float).reshape(-1, 2)
    if owners is None:
        return _multisect_counts(lambda xs, _: counts(xs), grid, rel_tol, levels, sections,
                                 np.zeros(len(grid), dtype=np.intp))[0]
    ladder, owner = np.arange(1, sections) / sections, owners
    if levels is None:
        levels = counts(grid.ravel(), np.repeat(owner, 2)).reshape(grid.shape)
    roots, found = [np.empty(0)], [np.empty(0, dtype=np.intp)]
    for _ in range(200):
        keep = levels[:, 1:] > levels[:, :-1]
        lo, hi = grid[:, :-1][keep], grid[:, 1:][keep]
        c_lo, c_hi = levels[:, :-1][keep], levels[:, 1:][keep]
        owner = np.broadcast_to(owner[:, None], keep.shape)[keep]
        mid = 0.5 * (lo + hi)
        done = hi - lo <= rel_tol * np.maximum(1.0, np.abs(mid))
        if done.any():
            rises = (c_hi - c_lo)[done]
            roots.append(np.repeat(mid[done], rises))
            found.append(np.repeat(owner[done], rises))
            active = ~done
            lo, hi, c_lo, c_hi, owner = (lo[active], hi[active], c_lo[active], c_hi[active],
                                         owner[active])
        if not len(lo):
            break
        inner = lo[:, None] + (hi - lo)[:, None] * ladder
        grid = np.column_stack((lo, inner, hi))
        inner_levels = np.minimum(counts(inner.ravel(), np.repeat(owner, sections - 1))
                                  .reshape(inner.shape), c_hi[:, None])
        levels = np.maximum.accumulate(np.column_stack((c_lo, inner_levels, c_hi)), axis=1)
    else:
        rises = np.diff(levels, axis=1)
        roots.append(np.repeat(0.5 * (grid[:, :-1] + grid[:, 1:]).ravel(), rises.ravel()))
        found.append(np.repeat(owner, rises.sum(axis=1)))
    return np.concatenate(roots), np.concatenate(found)


def _q_grid(q) -> np.ndarray:
    # one wavenumber as a grid of one point, or a grid as it stands, every
    # point checked by transverse_wavenumber; ConfigError unless the grid
    # holds a point and is strictly ascending
    qs = np.array([transverse_wavenumber(v) for v in (q if np.ndim(q) else [q])], dtype=float)
    if len(qs) == 0:
        raise ConfigError("q grid is empty")
    if np.any(np.diff(qs) <= 0):
        raise ConfigError("q grid must be strictly ascending")
    return qs


def _per_q(q, found):
    # a route's result at one wavenumber q, or the tuple of its results at
    # every point of a grid q
    return found[0] if np.ndim(q) == 0 else tuple(found)


def _segment_table(config: CavityConfig, window, size: int, poles, photon):
    # the pole-free segments of every q of _counted_roots as an (n, 2)
    # array, and the q index of each; the per-q lists die on return
    exclusion = config.solver.pole_exclusion
    if photon is None:
        per_q = [pole_free_segments(window, poles, exclusion)] * size
    else:
        per_q = [pole_free_segments(window, [*row, *poles], exclusion) for row in photon]
    return (np.array([segment for s in per_q for segment in s], dtype=float).reshape(-1, 2),
            np.repeat(np.arange(size), [len(s) for s in per_q]))


_BLOCK_ROOTS = 32  # roots multisected in one pass, unless one segment holds more


def _counted_roots(config: CavityConfig, counts, window, size: int, poles,
                   photon=None) -> list[tuple]:
    # per q of a grid of size points, a tuple with each count's ascending
    # roots there, multisected to root_tol over the window's pole-free
    # segments.  A count is called as count(omegas, q index of each); the
    # poles are those shared by every q plus, if given, row k of the photon
    # table at q index k.  One count call reads every segment's ends;
    # consecutive segments holding up to _BLOCK_ROOTS roots, of one q or of
    # many, are then multisected in one pass, so a pass's state does not
    # grow with the grid
    segments, owners = _segment_table(config, window, size, poles, photon)
    found = []
    for count in counts:
        levels = count(segments.ravel(), np.repeat(owners, 2)).reshape(-1, 2)
        rises = np.maximum(levels[:, 1] - levels[:, 0], 0)
        blocks = np.flatnonzero(np.diff((np.cumsum(rises) - rises) // _BLOCK_ROOTS)) + 1
        roots, at = (np.concatenate(part) for part in zip(*(
            _multisect_counts(count, segments[block], config.solver.root_tol, levels[block],
                              owners=owners[block])
            for block in np.split(np.arange(len(segments)), blocks))))
        found.append([np.sort(roots[at == k]) for k in range(size)])
    return list(zip(*found))


# doubles of per-frequency temporaries that one chunk of a count holds, as
# the secular count's gathered poles, pole weights, pair sums and reduced
# sector matrices.  Kept small: a chunk's temporaries add to the peak
# memory of a sweep process
_SIGN_CHUNK_DOUBLES = 8192


def _chunks(points: int, per_point: int) -> list[slice]:
    # slices of range(points), each holding at most _SIGN_CHUNK_DOUBLES
    # doubles of temporaries at per_point doubles a point, so a count's
    # memory does not grow with the number of frequencies or q points
    step = max(1, _SIGN_CHUNK_DOUBLES // per_point)
    return [slice(start, start + step) for start in range(0, max(points, 1), step)]


# --------------------------------------------------------------------------
# secular determinant
# --------------------------------------------------------------------------

def _coupling_strength_sum(species, omega):
    # S(Omega) = sum_j G_j^2 / (omega_j^2 - Omega^2); the lossless
    # susceptibility of a species set, for a float or an array
    return sum((sp.G ** 2 / (sp.omega ** 2 - omega ** 2) for sp in species), 0.0)


def _secular_counts(config: CavityConfig, sector, photon: np.ndarray,
                    omegas: np.ndarray, at: np.ndarray) -> np.ndarray:
    """A count of one parity sector's roots below every frequency of an array.

    ``sector`` is a (photon mask, pair products, unpack index) of
    OverlapSet._sector_pairs, ``photon`` the photon frequencies with a row
    per q and ``at`` each frequency's row.  With W = diag(1/(Omega_m^2 -
    Omega^2)), the sector's reduced matrix R = I - Omega^2 S K^T W K is its
    factor of the secular determinant det(I - M).  The count is the number of negative eigenvalues
    of sgn(S) R = |S| (I/S - Omega^2 K^T W K), with no division by S, plus
    the sector's matter-mode count where S > 0.  By Wittrick and Williams,
    inside one pole-free segment it differs from the number of the sector's
    polariton frequencies below Omega by a constant, so it rises by one at
    every root, however close two lie.  Each chunk of frequencies takes one
    product of the scaled pole weights with the pair products, unpacked
    into stacked matrices sgn(S) R, and one batched eigvalsh.
    """
    photons, products, unpack = sector
    omegas_sq = omegas ** 2
    strength = _coupling_strength_sum(config.oscillators, omegas)
    flip = np.copysign(1.0, strength)
    factor = omegas_sq * np.abs(strength)
    count = len(unpack)
    counts = count * (flip > 0.0)
    for part in _chunks(len(omegas), 2 * len(products) + products.shape[1] + count * count):
        poles_sq = photon[np.ix_(at[part], photons)] ** 2
        weights = -factor[part, None] / (poles_sq - omegas_sq[part, None])
        flipped = (weights @ products)[:, unpack]
        flipped.reshape(len(flipped), count * count)[:, ::count + 1] += flip[part, None]
        counts[part] += (np.linalg.eigvalsh(flipped) < 0.0).sum(axis=1)
    return counts


def secular_roots(config: CavityConfig, overlaps: OverlapSet, q,
                  window: tuple[float, float]):
    """Zeros of the secular determinant in the window, found by counting.

    ``q`` is one wavenumber, which returns the ascending roots, or a 1-D
    ascending grid, which returns a tuple with each q's roots.  Each parity
    sector's roots are multisected from its _secular_counts over the
    pole-free segments of the window, excluding the poles of both sectors,
    in one pass for every q of the grid.  A count sees every root, however
    close two lie, so no scan grid is built and ``scan_points`` is not read.
    """
    overlaps.check_shape(config)
    qs = _q_grid(q)
    photon = photon_frequencies(config, qs)
    counts = [partial(_secular_counts, config, sector, photon) for sector in overlaps._sector_pairs]
    found = _counted_roots(config, counts, window, len(qs),
                           [sp.omega for sp in config.oscillators], photon)
    return _per_q(q, [np.sort(np.concatenate(roots)) for roots in found])


# --------------------------------------------------------------------------
# closed-form few-exciton relations (single species)
# --------------------------------------------------------------------------

def _check_closed_form(name: str, needed_modes: int, config: CavityConfig,
                       overlaps: OverlapSet) -> None:
    # every closed form holds for one species at needed_modes matter modes
    overlaps.check_shape(config)
    if config.species_count() != 1:
        raise ConfigError(f"{name} requires exactly one species")
    if config.exciton_mode_count != needed_modes:
        raise ConfigError(
            f"{name} requires exciton_mode_count == {needed_modes}, "
            f"got {config.exciton_mode_count}")


def _closed_form_roots(name: str, needed_modes: int, config: CavityConfig,
                       overlaps: OverlapSet, q, window):
    # both closed forms count their roots, as secular_roots does: the
    # relation is det(I - Sigma) of the 1x1 or 2x2 reduced secular matrix,
    # and the negative eigenvalues of sgn(w0^2 - Omega^2)(I - Sigma) rise by
    # one at each root inside a pole-free segment (Wittrick and Williams),
    # however close two lie.  Every q of a grid is multisected in one pass;
    # no scan grid is built and scan_points is not read
    _check_closed_form(name, needed_modes, config, overlaps)
    qs = _q_grid(q)
    freqs = photon_frequencies(config, qs)
    found = _counted_roots(config, [partial(_closed_form_counts, config, overlaps, freqs)],
                           window, len(qs), [config.oscillators[0].omega], freqs)
    return _per_q(q, [roots for roots, in found])


def _closed_form_counts(config: CavityConfig, overlaps: OverlapSet,
                        freqs: np.ndarray, omegas: np.ndarray, at: np.ndarray) -> np.ndarray:
    # the negative eigenvalues of sgn(w0^2 - Omega^2)(I - Sigma) at every
    # frequency of an array, with the photon frequencies of row at of freqs:
    # one sign at Xi = 1; at Xi = 2 one where the determinant is negative,
    # else two or none by the sign of the trace
    counts = np.empty(len(omegas), dtype=np.int64)
    for part in _chunks(len(omegas), 4 * freqs.shape[1]):
        row, omega = freqs[at[part]], omegas[part]
        flip = np.sign(config.oscillators[0].omega ** 2 - omega ** 2)
        if overlaps.K.shape[1] == 1:
            counts[part] = flip * (1.0 - _sigma(config, overlaps, row, omega, 0, 0)) < 0.0
        else:
            det, trace = _two_exciton(config, overlaps, row, omega)
            counts[part] = np.where(det < 0.0, 1, 2 * (flip * trace < 0.0))
    return counts


def _sigma(config: CavityConfig, overlaps: OverlapSet, photon_freqs: np.ndarray,
           omega, a: int, b: int) -> np.ndarray:
    # Sigma_ab = G^2 Omega^2/(w0^2 - Omega^2) sum_m K[m,a] K[m,b]/(Omega_m^2 -
    # Omega^2) at the photon frequencies photon_freqs, for a frequency or an
    # array; photon_freqs is one vector, or a row per frequency of the array
    sp = config.oscillators[0]
    factor = sp.G ** 2 * omega ** 2 / (sp.omega ** 2 - omega ** 2)
    weights = 1.0 / (photon_freqs ** 2 - np.asarray(omega)[..., None] ** 2)
    return factor * np.sum(overlaps.K[:, a] * overlaps.K[:, b] * weights, axis=-1)


def one_exciton_roots(config: CavityConfig, overlaps: OverlapSet, q,
                      window: tuple[float, float]):
    """Roots of the scalar single-matter-mode dispersion relation, by counting.

    ``q`` is one wavenumber or a 1-D ascending grid, as for secular_roots.
    """
    return _closed_form_roots("one_exciton_roots", 1, config, overlaps, q, window)


def _two_exciton(config: CavityConfig, overlaps: OverlapSet,
                 freqs: np.ndarray, omega) -> tuple[np.ndarray, np.ndarray]:
    # the determinant (1 - Sigma_00)(1 - Sigma_11) - Sigma_01^2 and the trace
    # 2 - Sigma_00 - Sigma_11 of I - Sigma, elementwise
    s00, s11, s01 = (_sigma(config, overlaps, freqs, omega, a, b)
                     for a, b in ((0, 0), (1, 1), (0, 1)))
    return (1.0 - s00) * (1.0 - s11) - s01 ** 2, 2.0 - s00 - s11


def two_exciton_roots(config: CavityConfig, overlaps: OverlapSet, q,
                      window: tuple[float, float]):
    """Roots of the two-matter-mode product-minus-cross-term relation, by counting.

    ``q`` is one wavenumber or a 1-D ascending grid, as for secular_roots.
    """
    return _closed_form_roots("two_exciton_roots", 2, config, overlaps, q, window)


# --------------------------------------------------------------------------
# Green-function matching
# --------------------------------------------------------------------------
# The field inside the slab solves an integral equation with the outgoing
# kernel g(z, z') = -sine_solution(|z - z'|, s)/2.  Its matching system, whose
# determinant vanishes exactly at the polariton frequencies with no photon
# truncation, splits for the centred slab into two mirror-parity sectors.
# That system is a reference definition kept with the tests
# (tests/oracles.py, with the derivation of every entry); the count below
# needs only its notation and the kernel diagonal.  With Y the sector's
# interior fundamental solution (C even, S odd), Z the other one,
# chi' = chi_xi'(h), den = b_xi^2 - s and phi = Y(h)/den,
#     K[eta, eta] = (1 - 2 sigma Z(h) chi'^2 phi)/den.
# The one removable zero, Y(h) = 0 at b^2 = s, is carried exactly: with
# r = sqrt(s), Delta = (r - b) h and p = sin(b h) (even) or cos(b h) (odd),
# where |Delta| < 1/4, at most one mode per sector and row and r > 0.84 b,
#     phi = sigma h p sinc(Delta)/((r + b) r^parity)
#     K[eta, eta] = -(2b + r + 4 b^2 h q(2 Delta))/(r (r + b)^2),
# q(x) = (x - sin x)/x^2 summed from its Taylor series.

_RESONANT_DELTA = 0.25  # |Delta| below which phi and the diagonal take their limits

# (-1)^k/(2k + 3)!, k = 5..0: (x - sin x)/x^3 as a polynomial in x^2, highest
# power first for np.polyval, through the x^11/13! term of (x - sin x)/x^2;
# exact to rounding for |x| < 1/2.  np.polyval takes the same Horner steps
# as numpy.polynomial's polyval and does not import that package, whose
# import costs a process about 0.9 MiB
_SIN_TAIL = [(-1) ** k / math.factorial(2 * k + 3) for k in range(5, -1, -1)]


class _SlabModes:
    """The Omega-independent arrays of one parity sector's slab modes chi_xi.

    chi_xi(z) = sqrt(2/l) sin(b_xi (z + l/2)), b_xi = (xi + 1) pi / l, for
    xi = parity, parity + 2, ... below count, even about z = 0 for parity 0,
    with sigma = +1 (even) or -1 (odd).  A count builds one per sector, so
    no array is rebuilt per frequency.
    """

    def __init__(self, l: float, count: int, parity: int):
        # the odd sector of count 1 holds no mode
        self.h, self.parity = l / 2.0, parity
        self.idx = idx = np.arange(parity, count, 2)
        self.b = (idx + 1) * np.pi / l
        self.b_sq = self.b ** 2
        # sin(b h) in the even sector, cos(b h) in the odd one, exactly +-1
        self.p = np.where((idx + 1) // 2 % 2, -1.0, 1.0)
        self.sigma = -1.0 if parity else 1.0
        self.grad_pf = -self.sigma * math.sqrt(2.0 / l) * self.b  # chi_xi'(h)


def _resonances(modes: _SlabModes, r: np.ndarray):
    # (rows, cols, phi, diag): the entries with |Delta| < 1/4 at the
    # wavenumbers r = sqrt(max(s, 0)) of n rows, and phi and the kernel
    # diagonal there from their limits in Delta.  At most one mode per row,
    # with r > 0.84 b, Y(h) = -sigma p sin(Delta)/r^parity and
    # den = -(r + b) Delta/h
    delta = (r[:, None] - modes.b) * modes.h
    rows, cols = np.nonzero(np.abs(delta) < _RESONANT_DELTA)
    r, b, delta = r[rows], modes.b[cols], delta[rows, cols]
    phi = (modes.sigma * modes.h * modes.p[cols] * np.sinc(delta / np.pi)
           / ((r + b) * (r if modes.parity else 1.0)))
    tail = 2.0 * delta * np.polyval(_SIN_TAIL, (2.0 * delta) ** 2)
    return rows, cols, phi, -(2.0 * b + r + 4.0 * b * b * modes.h * tail) / (r * (r + b) ** 2)


def _green_sectors(config: CavityConfig) -> tuple[_SlabModes, _SlabModes]:
    # the even and the odd sector's slab modes, in that order
    return tuple(_SlabModes(config.l, config.exciton_mode_count, parity)
                 for parity in (0, 1))


def _tangent_ratio(w: float, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    # S(w, s)/C(w, s) with r = sqrt(|s|): tan(r w)/r above s = 0, tanh(r w)/r
    # below and w at s = 0; a ratio, so it never overflows
    return np.where(s == 0.0, w, np.where(s > 0.0, np.tan(r * w), np.tanh(r * w)) / r)


def _multiples_below(x: np.ndarray) -> np.ndarray:
    # #{n >= 1: n pi < x} for x >= 0, the one step at which every count of
    # the Green and classical routes becomes an integer; refused where it
    # would not be exact, as where (Omega/c)^2 or s' overflows
    if not np.all(x < 2.0 ** 53):
        raise ConfigError(f"{np.max(x) / np.pi:.3g} cavity modes below Omega cannot be counted "
                          "exactly: Omega/c is too large for the cavity")
    return np.maximum(np.ceil(x / np.pi) - 1.0, 0.0).astype(np.int64)


def _green_counts(config: CavityConfig, modes: _SlabModes, qv, omegas) -> np.ndarray:
    """One parity sector's count of its roots below every frequency of an array.

    ``qv`` is one wavenumber or one per frequency, and the frequencies are
    counted in _chunks.  Notation as in the comment above, with
    d = (L - l)/2 and chi' = chi_xi'(h).  After Wittrick and Williams: J
    counts the negative eigenvalues of
    -d^2/dz^2 - s - gamma Pi on the half cavity 0 < z < L/2, with the
    sector's condition at z = 0 (E' = 0 even, E = 0 odd), E = 0 at L/2 and
    Pi the projection on the sector's slab modes xi < Xi.  Between species
    poles s and gamma = Omega^2 S(Omega)/c^2 both rise with Omega, so J
    rises by one at each of the sector's roots, however close two lie.
    With the face z = h clamped the problem splits into the slab, whose
    modes are the chi_xi themselves, and the gap of width d; k is the face's
    dynamic stiffness:

        J = #{xi < Xi: den_xi < gamma} + #{xi >= Xi: b_xi^2 < s}
            + #{n >= 1: n pi/d < sqrt(s)} + [k < 0]
        k = Y'(h)/Y(h) - 2 gamma sum_{xi < Xi} chi'^2/(den (den - gamma)) + C(d)/S(d)

    At d = 0 the face is the wall and J is the clamped count alone, as
    C(d)/S(d) -> +inf gives.  Y'/Y and C/S are written with tan, tanh,
    cot and coth, so nothing overflows below the light line.  Where
    |Delta| < 1/4 the pole of Y'/Y cancels that mode's 2 chi'^2/den part of
    the sum; their sum is taken as Z'/Z - K[xi, xi]/(sigma Z(h) phi) from
    the limits of phi and of the kernel diagonal (the Wronskian is
    Y Z' - Z Y' = sigma), so no term divides by den.  At den = gamma
    exactly k is -inf, its limit from den > gamma, and no warning is raised.
    """
    omegas = np.asarray(omegas, dtype=float)
    qv = np.broadcast_to(qv, omegas.shape)
    gap = (config.L - config.l) / 2.0
    counts = np.empty(len(omegas), dtype=np.int64)
    for part in _chunks(len(omegas), 4 * len(modes.b) + 16):
        omega = omegas[part]
        with np.errstate(all="ignore"):
            s = (omega / config.c) ** 2 - qv[part] ** 2
            r = np.sqrt(np.abs(s))
            r_prop = np.where(s > 0.0, r, 0.0)
            gamma = (_coupling_strength_sum(config.oscillators, omega)
                     * omega ** 2 / config.c ** 2)[:, None]
            den = modes.b_sq - s[:, None]
            excess = den - gamma
            # the clamped slab: the projected modes with den < gamma, then
            # the sector's other modes below sqrt(s), m = xi + 1 < sqrt(s) l/pi
            # of the sector's parity of m
            slab = _multiples_below(r_prop * config.l)
            counts[part] = (excess < 0.0).sum(axis=1) + np.maximum(
                (slab + 1 - modes.parity) // 2 - len(modes.b), 0)
            if gap == 0.0:
                continue
            # the clamped gap, then the sign of the face's stiffness
            ratio = _tangent_ratio(modes.h, s, r)
            y_log, z_log = ((1.0 / ratio, -s * ratio) if modes.parity
                            else (-s * ratio, 1.0 / ratio))
            rows, cols, res_phi, res_diag = _resonances(modes, r_prop)
            den[rows, cols] = 1.0
            terms = -2.0 * modes.grad_pf ** 2 * (gamma / excess) / den
            res_r = r[rows]
            z_h = -np.cos(res_r * modes.h) if modes.parity else np.sin(res_r * modes.h) / res_r
            y_log[rows] = z_log[rows] - res_diag / (z_h * res_phi)
            terms[rows, cols] = -2.0 * modes.grad_pf[cols] ** 2 / excess[rows, cols]
            stiffness = y_log + terms.sum(axis=1) + 1.0 / _tangent_ratio(gap, s, r)
            counts[part] += _multiples_below(r_prop * gap) + (stiffness < 0.0)
    return counts


def green_roots(config: CavityConfig, q, window: tuple[float, float]):
    """Roots of the Green-function matching system in the window, by counting.

    ``q`` is one wavenumber, which returns the ascending roots, or a 1-D
    ascending grid, which returns a tuple with each q's roots.  Each parity
    sector's roots are multisected from its _green_counts over the
    species-pole-free segments of the window, above and below the light
    line alike, in one pass for every q of the grid.  A count sees every
    root, however close two lie, and builds no matching matrix, so nothing
    overflows far below the light line; no scan grid is built and
    ``scan_points`` is not read.
    """
    qs = _q_grid(q)
    counts = [lambda omegas, at, modes=modes: _green_counts(config, modes, qs[at], omegas)
              for modes in _green_sectors(config)]
    found = _counted_roots(config, counts, window, len(qs),
                           [sp.omega for sp in config.oscillators])
    return _per_q(q, [np.sort(np.concatenate(roots)) for roots in found])


# --------------------------------------------------------------------------
# classical transcendental relation
# --------------------------------------------------------------------------

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
    qv = transverse_wavenumber(q)
    if susceptibility is None:
        chi = 0.0
    elif callable(susceptibility):
        chi = susceptibility(omega)
    else:
        chi = susceptibility.chi_prime(omega)
    s = (omega / config.c) ** 2 - qv ** 2
    s_med = (1.0 + chi) * (omega / config.c) ** 2 - qv ** 2
    h = config.l / 2.0
    gap = (config.L - config.l) / 2.0
    c_gap, s_gap = _damped_pair(gap, s)
    c_slab, s_slab = _damped_pair(h, s_med)
    branch1 = s_med * s_slab * s_gap - c_gap * c_slab
    branch2 = s_gap * c_slab + c_gap * s_slab
    return branch1, branch2


def _classical_counts(config: CavityConfig, species, parity: int, qv, omegas) -> np.ndarray:
    # One branch's count of its roots below every frequency of an array (the
    # even field, branch 1, is parity 0), at one wavenumber qv or one per
    # frequency: the Xi -> infinity form of _green_counts, in chunks as it
    # is.  The projection covers the whole slab, so with the face clamped
    # the slab is a uniform layer at s' = s + Omega^2 chi/c^2, chi =
    # sum G^2/(omega^2 - Omega^2) over ``species``; with Y the sector's
    # interior solution at s' and m odd in the even sector, even in the odd,
    #     J = #{m: m pi/l < sqrt(s')} + #{n >= 1: n pi/d < sqrt(s)}
    #         + [Y'(h)/Y(h) + C(d)/S(d) < 0].
    # Between resonances (1 + chi) Omega^2 rises with Omega, so s and s' do
    # and J rises by one at each root of the branch (Sturm comparison).  At
    # d = 0 the face is the wall: C(d)/S(d) = +inf and J is the slab count
    omegas = np.asarray(omegas, dtype=float)
    qv = np.broadcast_to(qv, omegas.shape)
    gap = (config.L - config.l) / 2.0
    counts = np.empty(len(omegas), dtype=np.int64)
    for part in _chunks(len(omegas), 16):
        omega = omegas[part]
        with np.errstate(all="ignore"):
            s = (omega / config.c) ** 2 - qv[part] ** 2
            s_med = s + _coupling_strength_sum(species, omega) * (omega / config.c) ** 2
            r, r_med = np.sqrt(np.abs(s)), np.sqrt(np.abs(s_med))
            ratio = _tangent_ratio(config.l / 2.0, s_med, r_med)
            stiffness = ((1.0 / ratio if parity else -s_med * ratio)
                         + 1.0 / _tangent_ratio(gap, s, r))
        slab = _multiples_below(np.where(s_med > 0.0, r_med, 0.0) * config.l)
        counts[part] = ((slab + 1 - parity) // 2
                        + _multiples_below(np.where(s > 0.0, r, 0.0) * gap) + (stiffness < 0.0))
    return counts


def classical_roots(config: CavityConfig, susceptibility, q,
                    window: tuple[float, float], poles=()):
    """Roots of both classical branches in the window.

    ``q`` is one wavenumber, which returns the pair of branches' ascending
    roots, or a 1-D ascending grid, which returns a tuple with each q's
    pair.  ``susceptibility`` is None for vacuum, a kk.LorentzSet, an
    object with a ``chi_prime(omega)`` method or a plain callable.  Segments
    around ``poles``, and around a LorentzSet's resonances, are excluded
    like secular poles.  For None and a LorentzSet each branch's roots are
    multisected from its _classical_counts, in one pass for every q of the
    grid, so every root is found down to pole_exclusion below a resonance,
    where they accumulate.  Any other susceptibility is scanned for sign
    changes at ``scan_points``, q by q, which raises BracketError for an
    accumulation that it cannot resolve.  Both search the whole window,
    below the light line as above it.
    """
    from .kk import LorentzSet

    qs = _q_grid(q)
    settings = config.solver
    if susceptibility is None or isinstance(susceptibility, LorentzSet):
        species = () if susceptibility is None else susceptibility.species
        counts = [lambda omegas, at, parity=parity: _classical_counts(
            config, species, parity, qs[at], omegas) for parity in (0, 1)]
        return _per_q(q, _counted_roots(config, counts, window, len(qs),
                                        [*poles, *(sp.omega for sp in species)]))

    def branch(qv, which):
        return lambda omega: classical_branch_values(config, susceptibility, omega, qv)[which]
    return _per_q(q, [tuple(scan_roots(branch(qv, which), window, poles,
                                       exclusion=settings.pole_exclusion,
                                       scan_points=settings.scan_points,
                                       rel_tol=settings.root_tol)
                            for which in (0, 1)) for qv in qs])


def _lorentz_classical_roots(config: CavityConfig, q, window: tuple[float, float]):
    # both classical branches for the configured species, resonances
    # excluded, at one q or at every q of a grid
    from .kk import LorentzSet

    return classical_roots(config, LorentzSet.from_config(config), q, window)


# --------------------------------------------------------------------------
# q sweeps and branch labels
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionCurve:
    """Branch-resolved (q, Omega) samples from one method at one truncation."""

    method: str
    branches: tuple[np.ndarray, ...]

    def branch_count(self) -> int:
        return len(self.branches)


def _roots_for_method(config: CavityConfig, overlaps, method: str, qs: np.ndarray,
                      window: tuple[float, float], mapper=map):
    # A tuple with the method's ascending roots at each q of the ascending
    # array qs, and its count G(omegas, at) of the method's modes below each
    # frequency at q index at, up to a constant per species segment that
    # does not depend on q: the secular and closed-form counts plus the
    # photon poles below, the Green and classical counts summed over both
    # parities.  A counted route solves the whole grid in one call on this
    # thread; the dynamical route returns every mode and no count, its
    # eigensolves mapped over q by mapper.  Routes are called by module
    # attribute, so wrappers rebound on polsp.dispersion or polsp.hopfield
    # see every call
    if method == "dynamical":
        from . import hopfield  # imported here, since no other route needs it

        return tuple(mapper(lambda q: hopfield.frequencies(
            hopfield.build_dynamical_matrix(config, overlaps, q)), qs)), None
    if method == "green":
        sectors = _green_sectors(config)
        return green_roots(config, qs, window), lambda omegas, at: sum(
            _green_counts(config, modes, qs[at], omegas) for modes in sectors)
    if method == "classical":
        roots = _lorentz_classical_roots(config, qs, window)
        return tuple(np.sort(np.concatenate(pair)) for pair in roots), lambda omegas, at: sum(
            _classical_counts(config, config.oscillators, parity, qs[at], omegas)
            for parity in (0, 1))
    if method == "secular":
        roots = secular_roots(config, overlaps, qs, window)
        photon = photon_frequencies(config, qs)
        counts = lambda omegas, at: sum(_secular_counts(config, sector, photon, omegas, at)
                                        for sector in overlaps._sector_pairs)
    elif method in ("one_exciton", "two_exciton"):
        route = one_exciton_roots if method == "one_exciton" else two_exciton_roots
        roots = route(config, overlaps, qs, window)
        photon = photon_frequencies(config, qs)
        counts = partial(_closed_form_counts, config, overlaps, photon)
    else:
        raise ConfigError(f"unknown sweep method {method!r}")
    return roots, lambda omegas, at: counts(omegas, at) + _poles_below(photon, omegas, at)


def _poles_below(photon: np.ndarray, omegas: np.ndarray, at: np.ndarray) -> np.ndarray:
    # the photon poles of row at of the table below each frequency, in chunks
    below = np.empty(len(omegas), dtype=np.intp)
    for part in _chunks(len(omegas), photon.shape[1]):
        below[part] = (photon[at[part]] < omegas[part, None]).sum(axis=1)
    return below


def _labels(config: CavityConfig, roots, count):
    # (species poles below, G at Omega + root_tol max(1, |Omega|)) per root
    # of a tuple with each q's ascending roots, q by q, counted in one call:
    # the point is capped at the segment's end pole - pole_exclusion, so G
    # is never read across the next species pole; scanning down each
    # species segment of one q, a root whose G would equal the next root's,
    # closer to it than root_tol, takes one less
    at = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    roots = np.concatenate(roots)
    poles = np.sort([sp.omega for sp in config.oscillators])
    segment = np.searchsorted(poles, roots)
    end = np.append(poles, np.inf)[segment] - config.solver.pole_exclusion
    step = config.solver.root_tol * np.maximum(1.0, np.abs(roots))
    above = count(np.minimum(roots + step, end), at).tolist()
    # one q's species segment per key
    keys = (at * (len(poles) + 1) + segment).tolist()
    for k in range(len(roots) - 2, -1, -1):
        if keys[k] == keys[k + 1]:
            above[k] = min(above[k], above[k + 1] - 1)
    return list(zip(segment.tolist(), above))


def sweep(config: CavityConfig, q_values, method: str | None = None,
          mapper=map) -> DispersionCurve:
    """Run the configured method over ascending q and label branches.

    A branch is every (q, Omega) with one label: the species segment and
    the rank there from the method's count, which names one mode at every
    q, so a root leaving the window only ends its branch.  Branches are
    ordered by first q, then first Omega.  A branch moving faster than c
    (c dq plus root_tol) is a count defect and raises BranchMatchError.
    A counted method solves the whole grid in one pass and labels every
    root in one count call, on the calling thread.  ``mapper`` is any
    order-preserving map (e.g. ThreadPoolExecutor.map) and serves only the
    dynamical method's per-q eigensolves, which are independent, so the
    curve is identical for any worker count.
    """
    qs = _q_grid(list(q_values))
    chosen = method or config.solver.method
    window = (0.0, config.solver.omega_max)
    # the Green and classical routes read no overlap set
    overlaps = None if chosen in ("green", "classical") else overlap_K(config)
    roots, count = _roots_for_method(config, overlaps, chosen, qs, window, mapper)
    # without a count every mode is present, and its index is its rank
    labels = ([k for r in roots for k in range(len(r))] if count is None
              else _labels(config, roots, count))
    groups: dict = {}
    for qv, omega, label in zip(np.repeat(qs, [len(r) for r in roots]).tolist(),
                                np.concatenate(roots).tolist(), labels):
        groups.setdefault(label, []).append((qv, omega))
    branches = sorted((np.array(b) for b in groups.values()), key=lambda b: (b[0, 0], b[0, 1]))
    for b in branches:
        jump = np.abs(np.diff(b[:, 1])) - config.c * np.diff(b[:, 0])
        if np.any(jump > config.solver.root_tol):
            raise BranchMatchError(f"branch moves faster than c near Omega="
                                   f"{b[np.argmax(jump), 1]:.6g}: a count defect")
    return DispersionCurve(method=chosen, branches=tuple(branches))
