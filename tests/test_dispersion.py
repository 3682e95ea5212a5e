"""Secular determinant, closed-form relations, scanning, and sweeps.

The secular route is validated against the dynamical route on randomized
configs: two independently coded reductions of the same Hamiltonian must
agree on every root that is not hidden inside a pole exclusion window.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from polsp import (BracketError, ConfigError, OverlapSet, SecularOperator,
                   build_dynamical_matrix, classical_branch_values,
                   classical_roots, cli, dispersion, green_determinant,
                   green_matching_matrix, green_roots, hopfield, model, modes,
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


@pytest.mark.parametrize("points", [1, 0, 2.5, True, "400"])
def test_scan_roots_refuses_bad_scan_points(points):
    # the rule SolverSettings enforces, an integer >= 2, also for a direct
    # call and for a window with no roots
    for window in ((0.5, 10.0), (0.5, 1.0)):
        with pytest.raises(ConfigError, match="scan_points must be an integer >= 2"):
            scan_roots(np.sin, window, [], exclusion=1e-6, scan_points=points,
                       rel_tol=1e-10)


def test_scan_roots_accepts_two_scan_points_and_numpy_integers():
    for points in (2, np.int64(200)):
        roots = scan_roots(np.sin, (3.0, 3.3), [], exclusion=1e-6,
                           scan_points=points, rel_tol=1e-12)
        assert roots == pytest.approx([np.pi], rel=1e-11)


# ---------------------------------------------------------------------------
# secular vs dynamical
# ---------------------------------------------------------------------------

def secular_with_escalation(cfg, q, window, expected_count, poles):
    # anticrossing gaps in random configs can fall below any fixed scan
    # resolution (BracketError, or a pair of roots in one cell of both
    # grids); retry with a denser scan until the count stabilizes.
    # The root values are never taken from the other method, only the
    # budget is raised.
    from dataclasses import replace
    for points in (cfg.solver.scan_points, 3000, 30000):
        dense = replace(cfg, solver=replace(cfg.solver, scan_points=points))
        try:
            sec = secular_roots(dense, overlap_K(dense), q, window)
        except BracketError:
            continue
        kept = drop_near_poles(sec, poles, cfg.solver.pole_exclusion)
        if len(kept) == expected_count:
            return kept
    return kept


def test_secular_matches_dynamical_on_random_configs():
    rng = np.random.default_rng(20260819)
    for _ in range(8):
        cfg = random_config(rng)
        q = rng.uniform(0.0, 2.0)
        dyn = spectrum(cfg, q)
        window = (0.0, float(dyn[-1]) * 1.05)
        excl = cfg.solver.pole_exclusion
        poles = all_poles(cfg, q)
        dyn_kept = drop_near_poles(dyn, poles, excl)
        sec_kept = secular_with_escalation(cfg, q, window, len(dyn_kept), poles)
        assert len(dyn_kept) == len(sec_kept), (cfg, q)
        if len(dyn_kept):
            assert np.max(np.abs(dyn_kept - sec_kept) / dyn_kept) < 1e-8


def test_opposite_parity_roots_in_one_scan_cell_are_found():
    # the second random draw above holds roots of both parity sectors
    # within one cell of its 300-point scan, where the signs of the whole
    # determinant cancel; each sector's scan sees its own root
    rng = np.random.default_rng(20260819)
    for _ in range(2):
        cfg = random_config(rng)
        q = rng.uniform(0.0, 2.0)
    dyn = spectrum(cfg, q)
    window = (0.0, float(dyn[-1]) * 1.05)
    poles = all_poles(cfg, q)
    dyn_kept = drop_near_poles(dyn, poles, cfg.solver.pole_exclusion)
    assert len(dyn_kept) == 7
    for points in (cfg.solver.scan_points, 3000):
        dense = replace(cfg, solver=replace(cfg.solver, scan_points=points))
        sec_kept = drop_near_poles(secular_roots(dense, overlap_K(dense), q, window),
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
# batched, parity-split determinant signs
# ---------------------------------------------------------------------------

def assert_grid_signs_match(cfg, overlaps, q):
    # the product of the batched sector signs against the sign of the
    # scalar determinant on the full 2n - 1 scan grid of every pole-free
    # segment; returns the number of sign changes seen, so a caller can
    # insist the grids are not trivial
    op = SecularOperator(config=cfg, overlaps=overlaps, q=float(q))
    settings = cfg.solver
    segments = pole_free_segments((0.0, settings.omega_max), op.all_poles(),
                                  settings.pole_exclusion)
    assert segments
    changes = 0
    for lo, hi in segments:
        xs = np.linspace(lo, hi, 2 * settings.scan_points - 1)
        expected = np.sign([op.determinant(x) for x in xs])
        signs = [op.sector_signs(k, xs) for k in range(len(op._parity_sectors))]
        np.testing.assert_array_equal(np.prod(signs, axis=0), expected)
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
    assert_grid_signs_match(cfg, overlap_K(cfg), q)


@pytest.mark.parametrize("kwargs,q", [
    (dict(photon=12, exciton=5), 0.0),  # odd Xi: sectors of 3 and 2
    (dict(photon=12, exciton=1), 0.4),  # Xi = 1: the odd sector is empty
    (dict(photon=1, exciton=3), 0.0),  # N = 1: no even-m photon
    (dict(species=((4.0, 1.0), (6.5, 0.0), (8.0, 0.6)), photon=10,
          exciton=4), 0.3),  # G = 0 species mixed with coupled ones
    (dict(L=1.0, l=1.0, photon=10, exciton=6), 0.0),  # l = L
    (dict(L=1.3, l=0.7, c=0.9, photon=14, exciton=4), 1.7),  # q > 0
    # many points per chunk; the exclusion keeps out the cluster of 26
    # roots of both sectors against the resonance, where the scan raises
    (dict(photon=128, exciton=32, pole_exclusion=1e-2), 0.0),
], ids=["odd_xi", "xi_1", "n_1", "mixed_g0", "l_eq_L", "q_positive", "n_128_xi_32"])
def test_determinant_signs_match_scalar(kwargs, q):
    cfg = make_config(**{"omega_max": 12.0, "scan_points": 300, **kwargs})
    assert assert_grid_signs_match(cfg, overlap_K(cfg), q) > 0


def test_determinant_signs_with_cross_parity_overlaps():
    # a hand-built K coupling opposite parities: det(I - M) no longer
    # factors, and the batched signs must still follow the full determinant
    cfg = make_config(L=1.2, l=0.7, photon=9, exciton=4, omega_max=12.0,
                      scan_points=300)
    K = overlap_K(cfg).K.copy()
    K[0, 1] = K[1, 0] = 0.35
    K[4, 3] = -0.2
    hand = OverlapSet(K=K, D=K @ K.T, L=cfg.L, l=cfg.l)
    for q in (0.0, 0.8):
        assert assert_grid_signs_match(cfg, hand, q) > 0


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
    # scanning the sectors one at a time, on batched grids, finds the
    # roots of the scalar determinant's scan bit for bit
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
        batched = secular_roots(cfg, overlaps, q, window)
        assert len(batched) > 0
        assert np.array_equal(batched, scalar)


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


def test_two_exciton_roots_match_dynamical_on_random_draws():
    # single-species Xi = 2 cavities scanned at 30 to 200 points; every
    # root away from the poles is found, however close the two parity
    # factors place their roots
    rng = np.random.default_rng(7)
    for _ in range(30):
        L = rng.uniform(0.8, 3.0)
        cfg = make_config(L=L, l=rng.uniform(0.3, 0.95) * L,
                          species=((rng.uniform(2.0, 12.0), rng.uniform(0.1, 1.0)),),
                          photon=int(rng.integers(2, 13)), exciton=2,
                          scan_points=int(rng.integers(30, 201)), omega_max=15.0,
                          pole_exclusion=5e-3, root_tol=1e-12)
        q = rng.uniform(0.0, 2.0)
        poles, excl = all_poles(cfg, q), cfg.solver.pole_exclusion
        dyn = spectrum(cfg, q)
        dyn = drop_near_poles(dyn[dyn < 15.0], poles, excl)
        two = drop_near_poles(two_exciton_roots(cfg, overlap_K(cfg), q, (0.0, 15.0)),
                              poles, excl)
        assert len(two) == len(dyn), (cfg, q)
        if len(dyn):
            assert np.max(np.abs(two - dyn) / dyn) < 1e-8


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
    cfg = make_config(exciton=2)
    with pytest.raises(ConfigError):
        one_exciton_roots(cfg, overlap_K(cfg), 0.0, (0.5, 10.0))
    cfg1 = make_config(exciton=1)
    with pytest.raises(ConfigError):
        two_exciton_roots(cfg1, overlap_K(cfg1), 0.0, (0.5, 10.0))
    multi = make_config(species=((4.0, 1.0), (6.0, 0.5)), exciton=1)
    with pytest.raises(ConfigError):
        one_exciton_roots(multi, overlap_K(multi), 0.0, (0.5, 10.0))


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


def test_sweep_flat_lines_in_decoupled_limit():
    cfg = make_config(species=((4.0, 0.0),), photon=3, exciton=3,
                      omega_max=14.0)
    curve = sweep(cfg, np.linspace(0.0, 2.0, 9), method="dynamical")
    flat = [b for b in curve.branches
            if np.allclose(b[:, 1], 4.0, rtol=0, atol=1e-10)]
    assert len(flat) == 3


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
