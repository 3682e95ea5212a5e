"""Secular determinant, closed-form relations, scanning, and sweeps.

The secular route is validated against the dynamical route on randomized
configs: two independently coded reductions of the same Hamiltonian must
agree on every root that is not hidden inside a pole exclusion window.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from polsp import (BracketError, ConfigError, DimensionError, OverlapSet,
                   PoleError, SecularOperator, build_dynamical_matrix,
                   classical_branch_values, classical_roots, cli, dispersion,
                   green_determinant, green_matching_matrix, green_roots,
                   hopfield, model, modes,
                   one_exciton_roots, one_exciton_value, overlap_K,
                   photon_frequencies, pole_free_segments, scan_roots,
                   secular_roots, spectrum, sweep, two_exciton_roots,
                   two_exciton_value, validate)
from polsp.cli import parse_config, sweep_grid
from conftest import make_config
from test_golden import CONFIGS as GOLDEN_CONFIGS


def all_poles(cfg, q):
    return np.concatenate([photon_frequencies(cfg, q),
                           [sp.omega for sp in cfg.oscillators]])


def drop_near_poles(values, poles, exclusion):
    values = np.asarray(values)
    if len(values) == 0:
        return values
    dist = np.min(np.abs(values[:, None] - np.asarray(poles)[None, :]), axis=1)
    return values[dist > exclusion]


def random_config(rng):
    L = rng.uniform(0.8, 3.0)
    species = []
    omegas = []
    for _ in range(rng.integers(1, 3)):
        w = rng.uniform(1.0, 8.0)
        while any(abs(w - o) < 0.4 for o in omegas):
            w = rng.uniform(1.0, 8.0)
        omegas.append(w)
        species.append((w, rng.uniform(0.1, 1.5)))
    # pole_exclusion is deliberately wide: weakly coupled matter lines
    # spawn root clusters hugging their pole closer than any fixed scan
    # can resolve, and the cross-method comparison is defined outside
    # those windows
    return make_config(
        L=L, l=rng.uniform(0.3, 0.95) * L, c=rng.uniform(0.7, 1.5),
        species=tuple(species),
        photon=int(rng.integers(2, 17)), exciton=int(rng.integers(1, 5)),
        root_tol=1e-12, scan_points=300, pole_exclusion=5e-3)


# ---------------------------------------------------------------------------
# scanning machinery
# ---------------------------------------------------------------------------

def test_pole_free_segments_clip_and_split():
    segs = pole_free_segments((0.0, 10.0), [2.0, 20.0], 0.5)
    assert segs == [(0.0, 1.5), (2.5, 10.0)]
    assert pole_free_segments((3.0, 4.0), [], 0.5) == [(3.0, 4.0)]
    # pole swallowing the whole window leaves nothing
    assert pole_free_segments((1.9, 2.1), [2.0], 0.5) == []


def test_scan_roots_finds_simple_roots():
    roots = scan_roots(np.sin, (0.5, 10.0), [], exclusion=1e-6,
                       scan_points=200, rel_tol=1e-12)
    assert roots == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi], rel=1e-11)


def test_scan_roots_respects_pole_exclusion():
    # tan has a pole at pi/2; excluding it leaves the root at pi alone
    roots = scan_roots(np.tan, (0.5, 4.0), [np.pi / 2], exclusion=0.2,
                       scan_points=300, rel_tol=1e-12)
    assert roots == pytest.approx([np.pi], rel=1e-11)


def test_scan_roots_raises_on_unresolved_cluster():
    # roots of sin(pi/(4.2 - w)) accumulate toward w = 4.2; a coarse scan
    # cannot separate them and must say so instead of returning a subset
    def crowded(w):
        return np.sin(np.pi / (4.2 - w))
    with pytest.raises(BracketError):
        scan_roots(crowded, (0.3, 4.1), [], exclusion=1e-9,
                   scan_points=60, rel_tol=1e-10)


def test_scan_roots_empty_window():
    assert len(scan_roots(np.sin, (0.5, 1.0), [], exclusion=1e-6,
                          scan_points=50, rel_tol=1e-10)) == 0


# a NaN edge at either end, an infinite upper edge and an infinite lower one
BAD_WINDOWS = ((float("nan"), 10.0), (0.5, float("nan")), (0.5, float("inf")),
               (float("-inf"), 12.0))


@pytest.mark.parametrize("setting,value", [
    *[pytest.param("scan_points", v, id=str(v)) for v in (1, 0, 2.5, True, "400")],
    *[pytest.param("exclusion", v, id=f"exclusion={v}")
      for v in (float("nan"), -0.5, 0.0, float("inf"))],
    *[pytest.param("rel_tol", v, id=f"rel_tol={v}") for v in (float("nan"), -1.0, 0.0)],
    *[pytest.param("window", v, id=f"window={v}") for v in BAD_WINDOWS],
])
def test_scan_roots_refuses_bad_scan_points(setting, value):
    # the rules SolverSettings enforces, scan_points an integer >= 2 and
    # exclusion and rel_tol reals in (0, inf), also for a direct call and
    # for a window with no roots.  A NaN or negative exclusion returned the
    # pole of tan as a root.  A NaN window edge returned no roots and an
    # infinite one failed inside the scan
    message = {"scan_points": "scan_points must be an integer >= 2",
               "window": "window edges must be finite"}.get(
                   setting, f"{setting} must be > 0 and finite")
    settings = {"exclusion": 1e-6, "scan_points": 50, "rel_tol": 1e-10}
    windows = ((0.5, 10.0), (0.5, 1.0))
    if setting == "window":
        windows = (value,)
    else:
        settings[setting] = value
    for window in windows:
        with pytest.raises(ConfigError, match=message):
            scan_roots(np.tan, window, [np.pi / 2], **settings)
    if setting in ("exclusion", "window"):
        window, exclusion = {"exclusion": ((0.5, 4.0), value),
                             "window": (value, 1e-6)}[setting]
        with pytest.raises(ConfigError, match=message):
            pole_free_segments(window, [np.pi / 2], exclusion)


def test_pole_free_segments_keep_a_reversed_window_empty():
    # lo > hi: no segment, no error
    assert pole_free_segments((5.0, 4.0), [4.5], 0.1) == []


def test_every_route_refuses_a_non_finite_window():
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 3.0),), photon=6,
                      exciton=2, omega_max=12.0)
    one = cfg.with_truncation(exciton_mode_count=1)
    ov, ov1 = overlap_K(cfg), overlap_K(one)
    routes = [lambda w: secular_roots(cfg, ov, 0.5, w),
              lambda w: one_exciton_roots(one, ov1, 0.5, w),
              lambda w: two_exciton_roots(cfg, ov, 0.5, w),
              lambda w: green_roots(cfg, 0.5, w),
              lambda w: classical_roots(cfg, None, 0.5, w)]
    for route in routes:
        for window in BAD_WINDOWS:
            with pytest.raises(ConfigError, match="window edges must be finite"):
                route(window)


def test_every_route_reports_the_guided_modes_on_a_default_config():
    # at q = 6 every mode below omega_max = 4 lies below the light line.
    # With default settings the green and classical routes continue there
    # and report the guided modes that the secular and dynamical routes find
    cfg = make_config(species=((4.0, 1.0),), photon=64, exciton=16, pole_exclusion=1e-3,
                      omega_max=4.0)
    q, window = 6.0, (0.0, 4.0)
    secular = secular_roots(cfg, overlap_K(cfg), q, window)
    green = green_roots(cfg, q, window)
    assert len(green) == len(secular) == 7
    assert np.max(np.abs(green - secular) / secular) <= 1e-8
    modes = spectrum(cfg, q)
    for roots in (secular, green):
        assert np.max(np.min(np.abs(modes - roots[:, None]), axis=1) / roots) <= 1e-8
    # the classical slab holds every matter mode: one more root, each lower
    # by the Xi-truncation gap
    classical = np.sort(np.concatenate(dispersion._lorentz_classical_roots(cfg, q, window)))
    assert len(classical) == 8
    assert classical[0] == pytest.approx(3.94458, abs=1e-5)
    assert secular[0] == pytest.approx(3.94517, abs=1e-5)


def scalar_bisect(f, lo, hi, sign_lo, rel_tol):
    # the one-bracket, one-frequency bisection that lockstep halving
    # replaced, kept as the reference for its midpoints
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            return mid
        sign_mid = np.sign(f(mid))
        if sign_mid == 0.0:
            return mid
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_scan(f, window, poles, *, exclusion, scan_points, rel_tol):
    # scan_roots with each bracket bisected on its own by scalar_bisect
    roots = []
    for lo, hi in pole_free_segments(window, poles, exclusion):
        xs = np.linspace(lo, hi, 2 * scan_points - 1)
        for a, b, sign_a in dispersion._sign_changes(xs, np.sign([f(x) for x in xs])):
            roots.append(a if a == b else scalar_bisect(f, a, b, sign_a, rel_tol))
    return np.array(sorted(roots))


@pytest.mark.parametrize("f,window,poles,scan_points,count", [
    # +, -, + at 1.5, 2.0, 2.5: two fine-grid brackets share the endpoint 2.0
    (lambda x: (x - 1.8) * (x - 2.3), (0.0, 4.0), [], 5, 2),
    # the grid sample 2.0 is an exact zero, a bracket of width zero
    (lambda x: (x - 2.0) * (x - 3.3), (0.0, 4.0), [], 5, 2),
    # brackets in the three pole-free segments around 1.0 and 2.0
    (lambda x: np.sin(5.0 * x), (0.2, 3.0), [1.0, 2.0], 40, 4),
    # no root in the window, and a window that the exclusion swallows
    (np.sin, (0.5, 1.0), [], 50, 0),
    (np.sin, (1.9, 2.1), [2.0], 50, 0),
], ids=["shared_endpoint", "exact_zero_sample", "three_segments", "empty_window",
        "swallowed_window"])
def test_lockstep_halving_equals_scalar_bisection(f, window, poles, scan_points, count):
    settings = dict(exclusion=0.1, scan_points=scan_points, rel_tol=1e-12)
    expected = scalar_scan(f, window, poles, **settings)
    assert len(expected) == count
    assert np.array_equal(scan_roots(f, window, poles, **settings), expected)


def test_count_multisection_reports_each_root_by_its_multiplicity():
    # a count rising by two at 1.25 is a double root; three segments, one
    # of them holding no root
    roots = np.array([0.4, 1.25, 1.25, 2.0, 3.5])
    found = dispersion._multisect_counts(
        lambda xs: np.searchsorted(roots, xs), [(0.0, 1.0), (1.1, 2.5), (2.6, 3.0)],
        1e-12)
    assert np.sort(found) == pytest.approx([0.4, 1.25, 1.25, 2.0], rel=1e-12)


def test_count_multisection_clamps_a_count_that_overshoots():
    # rounding at a near-zero eigenvalue can read one root too many just
    # above it; clamped between the interval's end counts, the overshoot
    # adds no root
    def counts(xs):
        xs = np.asarray(xs)
        return (xs > 1.3).astype(int) + ((xs > 1.3) & (xs < 1.31))
    found = dispersion._multisect_counts(counts, [(0.0, 2.0)], 1e-12)
    assert found == pytest.approx([1.3], rel=1e-12)


def test_scan_roots_accepts_two_scan_points_and_numpy_integers():
    for points in (2, np.int64(200)):
        roots = scan_roots(np.sin, (3.0, 3.3), [], exclusion=1e-6,
                           scan_points=points, rel_tol=1e-12)
        assert roots == pytest.approx([np.pi], rel=1e-11)


# ---------------------------------------------------------------------------
# secular vs dynamical
# ---------------------------------------------------------------------------

def test_secular_matches_dynamical_on_random_configs():
    # the secular route counts its roots, so one call finds every root of
    # the dynamical spectrum outside the pole exclusions; scan_points is
    # not read
    rng = np.random.default_rng(20260819)
    for _ in range(8):
        cfg = random_config(rng)
        q = rng.uniform(0.0, 2.0)
        dyn = spectrum(cfg, q)
        window = (0.0, float(dyn[-1]) * 1.05)
        excl = cfg.solver.pole_exclusion
        poles = all_poles(cfg, q)
        dyn_kept = drop_near_poles(dyn, poles, excl)
        sec_kept = drop_near_poles(secular_roots(cfg, overlap_K(cfg), q, window),
                                   poles, excl)
        assert len(dyn_kept) == len(sec_kept), (cfg, q)
        if len(dyn_kept):
            assert np.max(np.abs(dyn_kept - sec_kept) / dyn_kept) < 1e-8


def test_opposite_parity_roots_in_one_scan_cell_are_found():
    # the second random draw above holds roots of both parity sectors
    # within one cell of its 300-point scan, where the signs of the whole
    # determinant cancel; each sector's count sees its own root
    rng = np.random.default_rng(20260819)
    for _ in range(2):
        cfg = random_config(rng)
        q = rng.uniform(0.0, 2.0)
    dyn = spectrum(cfg, q)
    window = (0.0, float(dyn[-1]) * 1.05)
    poles = all_poles(cfg, q)
    dyn_kept = drop_near_poles(dyn, poles, cfg.solver.pole_exclusion)
    assert len(dyn_kept) == 7
    sec_kept = drop_near_poles(secular_roots(cfg, overlap_K(cfg), q, window),
                               poles, cfg.solver.pole_exclusion)
    assert len(sec_kept) == 7
    assert np.max(np.abs(dyn_kept - sec_kept) / dyn_kept) < 1e-8


def test_secular_determinant_has_pole_structure():
    cfg = make_config(species=((4.0, 1.0),), photon=3, exciton=2)
    op = SecularOperator(config=cfg, overlaps=overlap_K(cfg), q=0.0)
    poles = op.all_poles()
    assert poles == pytest.approx(
        np.sort(np.concatenate([photon_frequencies(cfg, 0.0), [4.0]])))


def test_secular_reduction_matches_full_determinant():
    # the rank-Xi reduction must equal det(I - M) of the literal N x N
    # operator; two independent evaluations of the same determinant
    cfg = make_config(species=((4.0, 1.0), (6.0, 0.7)), photon=5, exciton=3)
    op = SecularOperator(config=cfg, overlaps=overlap_K(cfg), q=0.3)
    for omega in (0.7, 2.0, 4.5, 7.2):
        full = np.linalg.det(np.eye(5) - op.matrix(omega))
        assert op.determinant(omega) == pytest.approx(full, rel=1e-10)
    assert op.matrix(2.0).shape == (5, 5)


# ---------------------------------------------------------------------------
# batched, parity-split root counts
# ---------------------------------------------------------------------------

def sector_sizes(op):
    # the matter-mode count of every parity sector of op, in sector order
    return [len(unpack) for _, _, unpack in op._parity_sectors]


def assert_count_parity_matches(cfg, overlaps, q):
    # a sector's count minus its matter-mode count has the parity of
    # nu(R), the number of negative eigenvalues of its reduced matrix, on
    # either side of the zero of S; so the product over the sectors of
    # (-1)^(count - size) must be the sign of the scalar determinant, here
    # on the full 2n - 1 scan grid of every pole-free segment.  Returns the
    # number of sign changes seen, so a caller can insist the grids are not
    # trivial
    op = SecularOperator(config=cfg, overlaps=overlaps, q=float(q))
    settings = cfg.solver
    segments = pole_free_segments((0.0, settings.omega_max), op.all_poles(),
                                  settings.pole_exclusion)
    assert segments
    changes = 0
    for lo, hi in segments:
        xs = np.linspace(lo, hi, 2 * settings.scan_points - 1)
        expected = np.sign([op.determinant(x) for x in xs])
        parities = [(-1.0) ** (op.sector_counts(k, xs) - size)
                    for k, size in enumerate(sector_sizes(op))]
        np.testing.assert_array_equal(np.prod(parities, axis=0), expected)
        changes += int(np.sum(expected[:-1] != expected[1:]))
    return changes


def golden_cases():
    # every golden config at its own truncation and q grid ends, plus the
    # converge ladder of the converge config
    for name, text in GOLDEN_CONFIGS.items():
        cfg, snapshot = parse_config(text)
        qs = sweep_grid(snapshot)
        for q in sorted({float(qs[0]), float(qs[-1])}):
            yield pytest.param(cfg, q, id=f"{name}-q{q:g}")
        if name == "converge":
            for xi in (1, 2, 4):
                yield pytest.param(cfg.with_truncation(exciton_mode_count=xi), 0.0,
                                   id=f"{name}-xi{xi}")


@pytest.mark.parametrize("cfg,q", list(golden_cases()))
def test_determinant_signs_match_scalar_on_golden_configs(cfg, q):
    # c10_weak (G = 0.001) has its roots inside the pole exclusions, so
    # its grids may show no sign change at all
    assert_count_parity_matches(cfg, overlap_K(cfg), q)


@pytest.mark.parametrize("kwargs,q", [
    (dict(photon=12, exciton=5), 0.0),  # odd Xi: sectors of 3 and 2
    (dict(photon=12, exciton=1), 0.4),  # Xi = 1: the odd sector is empty
    (dict(photon=1, exciton=3), 0.0),  # N = 1: no even-m photon
    (dict(species=((4.0, 1.0), (6.5, 0.0), (8.0, 0.6)), photon=10,
          exciton=4), 0.3),  # G = 0 species mixed with coupled ones
    (dict(L=1.0, l=1.0, photon=10, exciton=6), 0.0),  # l = L
    (dict(L=1.3, l=0.7, c=0.9, photon=14, exciton=4), 1.7),  # q > 0
    # many points per chunk; the exclusion keeps out the cluster of 26
    # roots of both sectors against the resonance
    (dict(photon=128, exciton=32, pole_exclusion=1e-2), 0.0),
], ids=["odd_xi", "xi_1", "n_1", "mixed_g0", "l_eq_L", "q_positive", "n_128_xi_32"])
def test_determinant_signs_match_scalar(kwargs, q):
    cfg = make_config(**{"omega_max": 12.0, "scan_points": 300, **kwargs})
    assert assert_count_parity_matches(cfg, overlap_K(cfg), q) > 0


def test_determinant_signs_with_cross_parity_overlaps():
    # a hand-built K coupling opposite parities: det(I - M) no longer
    # factors, and the count of the one sector must still follow the full
    # determinant
    cfg = make_config(L=1.2, l=0.7, photon=9, exciton=4, omega_max=12.0,
                      scan_points=300)
    K = overlap_K(cfg).K.copy()
    K[0, 1] = K[1, 0] = 0.35
    K[4, 3] = -0.2
    hand = OverlapSet(K=K, L=cfg.L, l=cfg.l)
    for q in (0.0, 0.8):
        assert assert_count_parity_matches(cfg, hand, q) > 0


def test_overlaps_of_another_geometry_are_refused():
    # equal truncations, different slab: the set's K would give the roots
    # of the other cavity, so every route that takes an OverlapSet refuses it
    thick = make_config(L=1.0, l=0.5, photon=8, exciton=2, omega_max=12.0)
    thin = replace(thick, l=0.3)
    foreign = overlap_K(thin)
    window = (0.0, thick.solver.omega_max)
    for solve in (lambda: secular_roots(thick, foreign, 0.0, window),
                  lambda: build_dynamical_matrix(thick, foreign, 0.0),
                  lambda: two_exciton_roots(thick, foreign, 0.0, window)):
        with pytest.raises(ConfigError, match="l=0.3"):
            solve()
    secular_roots(thin, foreign, 0.0, window)


def test_secular_roots_equal_the_scalar_scan():
    # multisecting the sectors' counts finds the roots of the scalar
    # determinant's sign scan, each within root_tol: both stop once their
    # bracket is that narrow
    for cfg, q in [(make_config(species=((4.0, 1.0), (6.0, 0.7)), photon=12,
                                exciton=5, omega_max=11.0, root_tol=1e-12,
                                pole_exclusion=1e-2), 0.6),
                   (make_config(L=1.0, l=0.5, species=((20.0, 3.0),), photon=64,
                                exciton=16, omega_max=17.0, scan_points=800), 1.5)]:
        overlaps = overlap_K(cfg)
        op = SecularOperator(config=cfg, overlaps=overlaps, q=q)
        window = (0.0, cfg.solver.omega_max)
        scalar = scan_roots(op.determinant, window, op.all_poles(),
                            exclusion=cfg.solver.pole_exclusion,
                            scan_points=cfg.solver.scan_points,
                            rel_tol=cfg.solver.root_tol)
        counted = secular_roots(cfg, overlaps, q, window)
        assert len(counted) == len(scalar) > 0
        assert np.all(np.abs(counted - scalar)
                      <= cfg.solver.root_tol * np.maximum(1.0, scalar))


def dynamical_count_from_sectors(op, omega):
    # the number of polariton frequencies below omega from the sectors'
    # counts: sum_s count_s + #{photon poles below} + Xi #{species poles
    # below} - sum_s size_s.  A sector without photons, which
    # _parity_sectors leaves out, would add its size to both sums
    cfg = op.config
    return (sum(int(op.sector_counts(k, [omega])[0]) - size
                for k, size in enumerate(sector_sizes(op)))
            + int(np.sum(op.photon_poles < omega))
            + cfg.exciton_mode_count * int(np.sum(op.species_poles < omega)))


def count_case(rng):
    # 1-3 species, some uncoupled; l = L in one draw of four
    L = rng.uniform(0.8, 2.5)
    omegas = []
    while len(omegas) < rng.integers(1, 4):
        w = rng.uniform(1.0, 8.0)
        if all(abs(w - o) > 0.3 for o in omegas):
            omegas.append(w)
    species = tuple((w, 0.0 if rng.uniform() < 0.3 else rng.uniform(0.1, 1.5))
                    for w in omegas)
    return make_config(
        L=L, l=L if rng.uniform() < 0.25 else rng.uniform(0.3, 0.95) * L,
        c=rng.uniform(0.7, 1.5), species=species,
        photon=int(rng.integers(1, 17)), exciton=int(rng.integers(1, 6)),
        pole_exclusion=1e-3)


def assert_counts_match_dynamical(cfg, q, rng, overlaps=None, points=12):
    overlaps = overlap_K(cfg) if overlaps is None else overlaps
    op = SecularOperator(config=cfg, overlaps=overlaps, q=q)
    dyn = hopfield.frequencies(build_dynamical_matrix(cfg, overlaps, q))
    window = (0.0, float(dyn[-1]) * 1.05)
    checked = 0
    for lo, hi in pole_free_segments(window, op.all_poles(), cfg.solver.pole_exclusion):
        for omega in rng.uniform(lo, hi, points):
            if np.min(np.abs(dyn - omega)) <= 1e-9 * omega:
                continue
            assert dynamical_count_from_sectors(op, omega) == np.sum(dyn < omega), \
                (cfg, q, omega)
            checked += 1
    return checked


def test_counts_match_the_dynamical_count_on_random_configs():
    # the count is exact at every frequency inside a pole-free segment,
    # on both sides of the zeros of S, with uncoupled species, l = L and
    # single-photon cavities among the draws
    rng = np.random.default_rng(11)
    checked = sum(assert_counts_match_dynamical(count_case(rng), rng.uniform(0.0, 2.0), rng)
                  for _ in range(40))
    assert checked > 1000


def test_counts_match_the_dynamical_count_on_the_secular_draws():
    # the eight draws of test_secular_matches_dynamical_on_random_configs
    rng = np.random.default_rng(20260819)
    points = np.random.default_rng(5)
    for _ in range(8):
        cfg = random_config(rng)
        assert assert_counts_match_dynamical(cfg, rng.uniform(0.0, 2.0), points) > 0


def test_counts_and_roots_with_cross_parity_overlaps():
    # the hand-built K of the parity test above makes one sector of every
    # row and column; its count still matches the dynamical count of the
    # same K, and so do its roots
    cfg = make_config(L=1.2, l=0.7, photon=9, exciton=4, omega_max=12.0,
                      pole_exclusion=1e-3)
    K = overlap_K(cfg).K.copy()
    K[0, 1] = K[1, 0] = 0.35
    K[4, 3] = -0.2
    hand = OverlapSet(K=K, L=cfg.L, l=cfg.l)
    rng = np.random.default_rng(3)
    for q in (0.0, 0.8):
        assert len(SecularOperator(config=cfg, overlaps=hand, q=q)._parity_sectors) == 1
        assert assert_counts_match_dynamical(cfg, q, rng, overlaps=hand) > 0
        window = (0.0, cfg.solver.omega_max)
        poles = all_poles(cfg, q)
        dyn = hopfield.frequencies(build_dynamical_matrix(cfg, hand, q))
        dyn = drop_near_poles(dyn[dyn < window[1]], poles, cfg.solver.pole_exclusion)
        roots = drop_near_poles(secular_roots(cfg, hand, q, window), poles,
                                cfg.solver.pole_exclusion)
        assert len(roots) == len(dyn) > 0
        assert np.max(np.abs(roots - dyn) / dyn) < 1e-8


def seeded_cross_coupling(cfg, values):
    # overlap_K(cfg) with its exact zeros replaced by values (a scalar or
    # one value per zero), so photons couple to matter modes of both parities
    K = overlap_K(cfg).K.copy()
    K[K == 0.0] = values
    return OverlapSet(K=K, L=cfg.L, l=cfg.l)


def hand_coupled_pair():
    # K[0, 1] and K[3, 0] make photons 0 and 3 couple both matter modes
    cfg = make_config(L=1.2, l=0.7, species=((4.0, 1.0),), photon=9, exciton=2,
                      pole_exclusion=1e-3)
    K = overlap_K(cfg).K.copy()
    K[0, 1], K[3, 0] = 0.35, -0.2
    return cfg, OverlapSet(K=K, L=cfg.L, l=cfg.l), (0.0, 0.8), 6


def fully_coupled_pair():
    # every photon couples both matter modes.  A 25-point sign scan of the
    # whole 2x2 relation found 3.13884 and 6.23864 and lost 7.00993 and
    # 7.06402, which share one of its cells, without an error
    cfg = make_config(L=1.0, l=0.6, species=((7.0, 0.5),), photon=2, exciton=2,
                      scan_points=25, pole_exclusion=1e-3)
    return cfg, seeded_cross_coupling(cfg, 0.3), (0.2,), 4


def test_two_exciton_scan_of_the_coupled_2x2_relation():
    # with Sigma_01 not 0 the 2x2 relation does not factor; its counted
    # roots are the dynamical frequencies of the same K once poles are dropped
    for cfg, hand, qs, count in (hand_coupled_pair(), fully_coupled_pair()):
        window = (0.0, cfg.solver.omega_max)
        for q in qs:
            poles = all_poles(cfg, q)
            dyn = hopfield.frequencies(build_dynamical_matrix(cfg, hand, q))
            dyn = drop_near_poles(dyn[dyn < window[1]], poles, cfg.solver.pole_exclusion)
            roots = drop_near_poles(two_exciton_roots(cfg, hand, q, window), poles,
                                    cfg.solver.pole_exclusion)
            assert len(roots) == len(dyn) == count, (cfg, q)
            assert np.max(np.abs(roots - dyn)) < 1e-8


def scalar_evaluators():
    # every evaluator of one frequency, as name -> (config, call(omega))
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=6, exciton=2)
    one = cfg.with_truncation(exciton_mode_count=1)
    ov, ov1 = overlap_K(cfg), overlap_K(one)
    op = SecularOperator(config=cfg, overlaps=ov, q=0.0)
    return {"SecularOperator.matrix": (cfg, op.matrix),
            "SecularOperator.determinant": (cfg, op.determinant),
            "one_exciton_value": (one, lambda w: one_exciton_value(one, ov1, w, 0.0)),
            "two_exciton_value": (cfg, lambda w: two_exciton_value(cfg, ov, w, 0.0))}


@pytest.mark.parametrize("name", sorted(scalar_evaluators()))
@pytest.mark.parametrize("pole", ["species", "photon"])
def test_scalar_evaluators_refuse_an_exact_pole(name, pole):
    # a species pole raised ZeroDivisionError and a photon pole warned and
    # returned a non-finite value; both are a typed PoleError now
    cfg, call = scalar_evaluators()[name]
    omega = 4.0 if pole == "species" else float(photon_frequencies(cfg, 0.0)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match=f"{pole} pole {omega}"):
            call(omega)


@pytest.mark.parametrize("q", [6.0, 0.5])
def test_roots_crowding_under_a_resonance_are_all_found(q):
    # 16 guided, matter-like modes crowd under the resonance at 4; the
    # sign scan at 400 points returned 4 of them at q = 6 without an error
    # and raised BracketError at q = 0.5
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=400,
                      exciton=16, omega_max=4.0, scan_points=400)
    dyn = spectrum(cfg, q)
    dyn = dyn[dyn < 4.0 - cfg.solver.pole_exclusion]
    roots = secular_roots(cfg, overlap_K(cfg), q, (0.0, 4.0))
    assert len(dyn) == len(roots) == 16
    assert np.max(np.abs(roots - dyn)) < 1e-8


def test_two_roots_of_one_sector_in_one_scan_cell_are_found():
    # the last cell of the 2n - 1 sign grid holds two roots of the even
    # sector, where its determinant has one sign at both ends, and three of
    # the odd one; the sign scan returned 4 of the 8 roots without an
    # error, and counting finds them all
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=40,
                      exciton=8, omega_max=4.0, scan_points=400)
    q = 6.0
    op = SecularOperator(config=cfg, overlaps=overlap_K(cfg), q=q)
    (lo, hi), = pole_free_segments((0.0, 4.0), op.all_poles(), cfg.solver.pole_exclusion)
    xs = np.linspace(lo, hi, 2 * cfg.solver.scan_points - 1)
    rises = [np.diff(op.sector_counts(k, xs))[-1] for k in range(len(op._parity_sectors))]
    assert rises == [2, 3]
    dyn = spectrum(cfg, q)
    dyn = dyn[dyn < hi]
    roots = secular_roots(cfg, overlap_K(cfg), q, (0.0, 4.0))
    assert len(dyn) == len(roots) == 8
    assert np.max(np.abs(roots - dyn) / dyn) < 1e-8


# ---------------------------------------------------------------------------
# closed-form few-exciton relations
# ---------------------------------------------------------------------------

def test_closed_form_scan_validates_once(monkeypatch):
    # construction is the one validation: a sweep of any scanning method
    # on a config that already exists never validates again, however many
    # evaluations its scans make
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 3.0),), photon=10,
                      exciton=2, omega_max=12.0, scan_points=120)
    one_mode = cfg.with_truncation(exciton_mode_count=1)
    calls = []

    def counting_validate(config):
        calls.append(config)
        return validate(config)

    # wherever validate is bound, so a re-imported call is counted too
    for module in (model, modes, hopfield, dispersion, cli):
        for name, value in list(vars(module).items()):
            if value is validate:
                monkeypatch.setattr(module, name, counting_validate)
    for method, config in (("secular", cfg), ("one_exciton", one_mode),
                           ("two_exciton", cfg), ("green", cfg),
                           ("classical", cfg)):
        curve = sweep(config, [0.0, 0.5, 1.0], method=method)
        assert curve.branch_count() > 0, method
    assert calls == []


def test_one_exciton_agrees_with_secular():
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=12,
                      exciton=1, root_tol=1e-12)
    window = (0.5, 12.0)
    sec = secular_roots(cfg, overlap_K(cfg), 0.0, window)
    one = one_exciton_roots(cfg, overlap_K(cfg), 0.0, window)
    assert len(sec) == len(one)
    assert np.max(np.abs(sec - one) / np.maximum(1.0, sec)) < 1e-10


def test_two_exciton_agrees_with_secular():
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=12,
                      exciton=2, root_tol=1e-12)
    window = (0.5, 12.0)
    sec = secular_roots(cfg, overlap_K(cfg), 0.0, window)
    two = two_exciton_roots(cfg, overlap_K(cfg), 0.0, window)
    assert len(sec) == len(two)
    assert np.max(np.abs(sec - two) / np.maximum(1.0, sec)) < 1e-10


def test_two_exciton_contains_one_exciton_roots():
    # the parity split zeroes the cross term, so the two-mode determinant
    # factorizes and inherits every root of the one-mode relation
    cfg1 = make_config(L=1.4, l=0.8, species=((4.0, 1.1),), photon=8,
                       exciton=1, root_tol=1e-12)
    cfg2 = cfg1.with_truncation(exciton_mode_count=2)
    window = (0.5, 10.0)
    one = one_exciton_roots(cfg1, overlap_K(cfg1), 0.0, window)
    two = two_exciton_roots(cfg2, overlap_K(cfg2), 0.0, window)
    assert len(two) >= len(one)
    for root in one:
        assert np.min(np.abs(two - root)) < 1e-9 * max(1.0, root)


def test_roots_of_both_parity_factors_in_one_scan_cell_are_found():
    # 13.0037 (one parity) and 13.0102 (the other) share a cell of this
    # 34-point scan, where the sign of the whole determinant, and of the
    # two-mode relation's product of factors, does not change
    cfg = make_config(L=1.0, l=0.8, species=((13.0, 0.3),), photon=5, exciton=2,
                      scan_points=34, omega_max=20.0)
    q, window = 0.25, (0.0, 20.0)
    dyn = spectrum(cfg, q)
    dyn = dyn[dyn < window[1]]
    assert len(dyn) == 7
    for solve in (secular_roots, two_exciton_roots):
        roots = solve(cfg, overlap_K(cfg), q, window)
        assert len(roots) == 7, solve
        assert np.max(np.abs(roots - dyn) / dyn) < 1e-8, solve


def test_two_exciton_roots_match_dynamical_on_random_draws(monkeypatch):
    # single-species cavities at Xi = 1 and 2 alternately, every third with
    # its K cross-coupled; every root away from the poles is found, however
    # close two lie, and no sign scan is built.  At the sign scan's 30 to
    # 200 points, draw 27 lost two of its four roots
    monkeypatch.setattr(dispersion, "_brackets", None)
    rng = np.random.default_rng(7)
    for k in range(30):
        L = rng.uniform(0.8, 3.0)
        cfg = make_config(L=L, l=rng.uniform(0.3, 0.95) * L,
                          species=((rng.uniform(2.0, 12.0), rng.uniform(0.1, 1.0)),),
                          photon=int(rng.integers(2, 13)), exciton=1 + k % 2,
                          scan_points=int(rng.integers(30, 201)), omega_max=15.0,
                          pole_exclusion=5e-3, root_tol=1e-12)
        overlaps = overlap_K(cfg)
        if k % 3 == 0:
            zeros = np.count_nonzero(overlaps.K == 0.0)
            overlaps = seeded_cross_coupling(cfg, rng.uniform(-0.5, 0.5, zeros))
        q = rng.uniform(0.0, 2.0)
        poles, excl = all_poles(cfg, q), cfg.solver.pole_exclusion
        dyn = hopfield.frequencies(build_dynamical_matrix(cfg, overlaps, q))
        dyn = drop_near_poles(dyn[dyn < 15.0], poles, excl)
        solve = one_exciton_roots if k % 2 == 0 else two_exciton_roots
        roots = drop_near_poles(solve(cfg, overlaps, q, (0.0, 15.0)), poles, excl)
        assert len(roots) == len(dyn), (k, cfg, q)
        if len(dyn):
            assert np.max(np.abs(roots - dyn) / dyn) < 1e-8
    # scan_points is not read: 2 and 4000 points give the same roots on
    # the closed-form golden configs
    for name, solve in (("closed_one", one_exciton_roots),
                        ("closed_two", two_exciton_roots)):
        cfg, snapshot = parse_config(GOLDEN_CONFIGS[name])
        window = (0.0, cfg.solver.omega_max)
        for q in sweep_grid(snapshot):
            sparse, dense = (
                solve(replace(cfg, solver=replace(cfg.solver, scan_points=points)),
                      overlap_K(cfg), q, window)
                for points in (2, 4000))
            assert len(sparse) > 0
            assert np.array_equal(sparse, dense)


def test_one_exciton_value_sign_structure():
    # between the exciton pole and the first photon pole the relation is
    # continuous; check a bracketed sign change around a known root
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=8,
                      exciton=1, root_tol=1e-12)
    ov = overlap_K(cfg)
    roots = one_exciton_roots(cfg, ov, 0.0, (0.5, 3.0))
    assert len(roots) == 1
    r = roots[0]
    assert (one_exciton_value(cfg, ov, r - 1e-4, 0.0)
            * one_exciton_value(cfg, ov, r + 1e-4, 0.0)) < 0


def test_closed_forms_require_matching_truncation():
    # the value functions returned the first species' or first mode's value
    # on these configs, or raised a bare IndexError at Xi = 1
    window = (0.5, 10.0)
    calls = {"one_exciton_roots": (1, lambda c, ov: one_exciton_roots(c, ov, 0.0, window)),
             "two_exciton_roots": (2, lambda c, ov: two_exciton_roots(c, ov, 0.0, window)),
             "one_exciton_value": (1, lambda c, ov: one_exciton_value(c, ov, 2.0, 0.0)),
             "two_exciton_value": (2, lambda c, ov: two_exciton_value(c, ov, 2.0, 0.0))}
    for name, (modes, call) in calls.items():
        wrong = make_config(exciton=3 - modes)
        with pytest.raises(ConfigError, match=f"{name} requires exciton_mode_count"):
            call(wrong, overlap_K(wrong))
        multi = make_config(species=((4.0, 1.0), (6.0, 0.5)), exciton=modes)
        with pytest.raises(ConfigError, match=f"{name} requires exactly one species"):
            call(multi, overlap_K(multi))
        with pytest.raises(DimensionError):
            call(make_config(exciton=modes), overlap_K(wrong))


# ---------------------------------------------------------------------------
# sweeps and branch tracking
# ---------------------------------------------------------------------------

def test_sweep_branch_count_and_monotonicity():
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=4,
                      exciton=2, omega_max=16.0)
    qs = np.linspace(0.0, 3.0, 13)
    curve = sweep(cfg, qs, method="dynamical")
    assert curve.method == "dynamical"
    full = [b for b in curve.branches if len(b) == len(qs)]
    assert len(full) == 4 + 2  # every mode stays inside the window here
    for branch in full:
        assert np.all(np.diff(branch[:, 0]) > 0)
        # branches never move faster than the light cone allows
        dq = np.diff(branch[:, 0])
        dw = np.diff(branch[:, 1])
        assert np.all(np.abs(dw) <= cfg.c * dq + 1e-6)


def assert_branches_on_dynamical_branches(cfg, qs, method, rtol):
    # every branch of the method lies on exactly one dynamical branch at each
    # of its q, and no two branches on the same one
    dynamical = [dict(b.tolist()) for b in sweep(cfg, qs, method="dynamical").branches]
    curve = sweep(cfg, qs, method=method)
    assert curve.branch_count() > 0
    hosts = []
    for branch in curve.branches:
        matches = [k for k, d in enumerate(dynamical)
                   if all(q in d and abs(d[q] - w) <= rtol * w for q, w in branch.tolist())]
        assert len(matches) == 1, branch
        hosts += matches
    assert len(set(hosts)) == len(hosts)


@pytest.mark.parametrize("method", ["secular", "green"])
def test_counted_sweep_branches_lie_on_dynamical_branches(method):
    # one of 40 random one-species cavities: the top root leaves the window
    # at omega_max while matter-like roots crowd below omega_j, closer than
    # c dq; a slope-capped matcher refused this sweep.  Labelled by the
    # count, every branch is one dynamical branch at each of its q
    cfg = make_config(L=1.0, l=0.5832410385126672, species=((3.2779113170966285,
                                                             2.2568160239458006),),
                      photon=64, exciton=8, omega_max=14.0)
    assert_branches_on_dynamical_branches(cfg, np.linspace(0.0, 6.0, 9), method, 1e-7)


@pytest.mark.parametrize("method", ["secular", "green"])
def test_labels_read_no_count_across_the_next_resonance(method):
    # pole_exclusion 1e-12 below root_tol |Omega| = 5e-6: the matter-like
    # root just below omega_j = 5 lies 4e-6 to 2e-4 under it as q varies, so
    # the count just above it, taken root_tol |Omega| higher, would be read
    # past the resonance at some q and not at others, splitting the branch
    # or joining it to another; capped at the segment's end it names one
    # dynamical branch
    cfg = make_config(species=((5.0, 0.01),), photon=8, exciton=2, omega_max=12.0,
                      pole_exclusion=1e-12, root_tol=1e-6)
    assert_branches_on_dynamical_branches(cfg, np.linspace(0.0, 6.0, 13), method, 5e-6)


def test_sweep_flat_lines_in_decoupled_limit():
    cfg = make_config(species=((4.0, 0.0),), photon=3, exciton=3,
                      omega_max=14.0)
    curve = sweep(cfg, np.linspace(0.0, 2.0, 9), method="dynamical")
    flat = [b for b in curve.branches
            if np.allclose(b[:, 1], 4.0, rtol=0, atol=1e-10)]
    assert len(flat) == 3


@pytest.mark.parametrize("method", ["green", "classical"])
def test_green_and_classical_sweeps_build_no_overlap_set(monkeypatch, method):
    # neither route reads K or D, so the sweep builds neither
    def refuse(config):
        raise AssertionError(f"{method} sweep built an overlap set")

    monkeypatch.setattr(dispersion, "overlap_K", refuse)
    assert sweep(make_config(), [0.0, 0.5], method=method).branch_count() > 0


def test_sweep_rejects_bad_grids():
    cfg = make_config()
    with pytest.raises(ConfigError):
        sweep(cfg, [])
    with pytest.raises(ConfigError):
        sweep(cfg, [0.5, 0.5, 1.0])
    with pytest.raises(ConfigError):
        sweep(cfg, [1.0, 0.5])
    for bad in ([0.0, np.nan], [0.0, np.inf], [-0.5, 0.0]):
        with pytest.raises(ConfigError):
            sweep(cfg, bad)


def single_q_entry_points():
    # every public function of one q, as name -> call(q)
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 3.0),), photon=6,
                      exciton=2, omega_max=12.0)
    one = cfg.with_truncation(exciton_mode_count=1)
    ov, ov1, window = overlap_K(cfg), overlap_K(one), (0.5, 12.0)
    return {
        "photon_frequencies": lambda q: photon_frequencies(cfg, q),
        "spectrum": lambda q: spectrum(cfg, q),
        "build_dynamical_matrix": lambda q: build_dynamical_matrix(cfg, ov, q),
        "secular_roots": lambda q: secular_roots(cfg, ov, q, window),
        "one_exciton_roots": lambda q: one_exciton_roots(one, ov1, q, window),
        "one_exciton_value": lambda q: one_exciton_value(one, ov1, 5.0, q),
        "two_exciton_roots": lambda q: two_exciton_roots(cfg, ov, q, window),
        "two_exciton_value": lambda q: two_exciton_value(cfg, ov, 5.0, q),
        "green_matching_matrix": lambda q: green_matching_matrix(cfg, 5.0, q),
        "green_determinant": lambda q: green_determinant(cfg, 5.0, q),
        "green_roots": lambda q: green_roots(cfg, q, window),
        "classical_branch_values": lambda q: classical_branch_values(cfg, None, 5.0, q),
        "classical_roots": lambda q: classical_roots(cfg, None, q, window),
    }


SINGLE_Q_ENTRY_POINTS = single_q_entry_points()


@pytest.mark.parametrize("name", sorted(SINGLE_Q_ENTRY_POINTS))
@pytest.mark.parametrize("q", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_single_q_entry_points_reject_bad_q(name, q):
    # a NaN, infinite or negative q is a configuration error at every entry
    # point, never an empty root list or a solver failure further down
    with pytest.raises(ConfigError, match="transverse wavenumber"):
        SINGLE_Q_ENTRY_POINTS[name](q)


def test_sweep_methods_agree_on_shared_branches():
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),), photon=6,
                      exciton=1, omega_max=9.0, root_tol=1e-12)
    qs = np.linspace(0.0, 2.0, 5)
    dyn_curve = sweep(cfg, qs, method="dynamical")
    sec_curve = sweep(cfg, qs, method="secular")
    # compare per-q sorted root sets away from poles
    for k, q in enumerate(qs):
        dyn_at = np.sort([b[np.searchsorted(b[:, 0], q), 1]
                          for b in dyn_curve.branches
                          if q in b[:, 0] and b[np.searchsorted(b[:, 0], q), 1] < 9.0])
        sec_at = np.sort([b[np.searchsorted(b[:, 0], q), 1]
                          for b in sec_curve.branches if q in b[:, 0]])
        poles = all_poles(cfg, q)
        dyn_at = drop_near_poles(dyn_at, poles, cfg.solver.pole_exclusion)
        sec_at = drop_near_poles(sec_at, poles, cfg.solver.pole_exclusion)
        assert len(dyn_at) == len(sec_at)
        assert dyn_at == pytest.approx(sec_at, rel=1e-8)
