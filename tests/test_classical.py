"""Classical transcendental relation: vacuum reduction and medium oracle.

The two branch functions are validated against the empty cavity (exact
roots, exact branch parity) and, for a nondispersive medium, against an
independent bisection of the textbook tangent matching relation written
directly in the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from polsp import (BracketError, LorentzSet, classical_branch_values,
                   classical_roots)
from conftest import make_config


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_vacuum_roots_and_branch_parity():
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 0.0),), root_tol=1e-12,
                      scan_points=600)
    b1, b2 = classical_roots(cfg, None, 0.0, (0.5, 10.5 * np.pi))
    odd = np.pi * np.arange(1, 11, 2)
    even = np.pi * np.arange(2, 11, 2)
    assert b1 == pytest.approx(odd, rel=1e-11)
    assert b2 == pytest.approx(even, rel=1e-11)


def test_vacuum_roots_do_not_depend_on_slab_position():
    # with chi = 0 the slab boundaries are fictitious; any slab thickness
    # must leave the eigenfrequencies untouched
    for l in (0.2, 0.5, 0.93):
        cfg = make_config(L=1.0, l=l, species=((20.0, 0.0),), root_tol=1e-12)
        b1, b2 = classical_roots(cfg, None, 0.0, (0.5, 13.0))
        merged = np.sort(np.concatenate([b1, b2]))
        assert merged == pytest.approx(np.pi * np.arange(1, 5), rel=1e-10)


def test_vacuum_roots_with_transverse_momentum():
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 0.0),), root_tol=1e-12)
    q = 1.7
    b1, b2 = classical_roots(cfg, None, q, (0.5, 13.0))
    merged = np.sort(np.concatenate([b1, b2]))
    assert merged == pytest.approx(
        np.hypot(np.pi * np.arange(1, 5), q), rel=1e-10)


def test_constant_dielectric_against_inline_bisection():
    # chi = 3 (refractive index 2), L=1, l=1/2, q=0: the even-field
    # matching condition reduces to 2 tan(W/2) tan(W/4) = 1, solved here
    # by plain interval bisection with no shared code
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 0.0),), root_tol=1e-12)
    b1, _ = classical_roots(cfg, lambda w: 3.0, 0.0, (1.0, 2.0))
    oracle = bisect(lambda w: 2.0 * np.tan(w / 2.0) * np.tan(w / 4.0) - 1.0,
                    1.0, 2.0)
    assert len(b1) == 1
    assert b1[0] == pytest.approx(oracle, rel=1e-10)
    assert b1[0] == pytest.approx(1.6821373411358604, rel=1e-10)


def test_denser_medium_lowers_every_root():
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 0.0),), root_tol=1e-12)
    merged = {}
    for chi in (0.0, 1.0, 3.0):
        b1, b2 = classical_roots(cfg, lambda w, chi=chi: chi, 0.0, (0.5, 13.0))
        merged[chi] = np.sort(np.concatenate([b1, b2]))
    n = min(len(merged[0.0]), len(merged[1.0]), len(merged[3.0]))
    assert np.all(merged[1.0][:n] < merged[0.0][:n])
    assert np.all(merged[3.0][:n] < merged[1.0][:n])


def test_lorentz_susceptibility_polaritons_straddle_resonance():
    # dispersive slab with the resonance above the window: roots below
    # resonance are redshifted relative to vacuum, never crossing omega0
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 3.0),), root_tol=1e-12)
    model = LorentzSet.from_config(cfg)
    b1, b2 = classical_roots(cfg, model, 0.0, (0.5, 17.0), poles=model.poles())
    merged = np.sort(np.concatenate([b1, b2]))
    vacuum = np.pi * np.arange(1, 6)
    assert len(merged) == 5
    assert np.all(merged < vacuum)
    assert np.all(merged < 20.0)


def test_root_accumulation_at_resonance_is_reported():
    # lossless Lorentz roots pile up just below omega0; a scan of a
    # caller's susceptibility cannot fully resolve a window that includes
    # the resonance and must say so
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),))
    model = LorentzSet.from_config(cfg)
    with pytest.raises(BracketError):
        classical_roots(cfg, model.chi_prime, 0.0, (0.5, 12.0), poles=model.poles())


def test_count_finds_roots_crowded_under_a_resonance():
    # slab filling the cavity, resonance inside the window: the count finds
    # every root down to pole_exclusion below omega0, each a sign change of
    # its branch; a sign scan of the same window returned 7 + 8 roots at
    # 400 points and 11 + 10 at 2000, without an error
    L = 1.9142472356138878
    cfg = make_config(L=L, l=L, species=((11.699075735821713, 0.415635334246808),),
                      pole_exclusion=1e-3)
    model = LorentzSet.from_config(cfg)
    q = 0.162115439579106
    branches = classical_roots(cfg, model, q, (1e-3, 15.0), poles=model.poles())
    assert [len(b) for b in branches] == [15, 14]
    for which, roots in enumerate(branches):
        assert np.all(np.diff(roots) > 0.0)
        for root in roots:
            below, above = (classical_branch_values(cfg, model, root * (1.0 + d), q)[which]
                            for d in (-1e-9, 1e-9))
            assert below * above < 0.0, (which, root)


def test_branch_values_entire_in_frequency():
    # the product forms have no spatial poles: finite values across a
    # dense frequency grid including every empty-cavity line
    cfg = make_config(L=1.0, l=0.5, species=((20.0, 0.0),))
    for w in np.linspace(0.05, 40.0, 601):
        v1, v2 = classical_branch_values(cfg, None, w, 0.0)
        assert np.isfinite(v1) and np.isfinite(v2)


def test_branch_values_evanescent_guard():
    cfg = make_config(species=((4.0, 1.0),))
    v1, v2 = classical_branch_values(cfg, None, 1.0, 2.0)
    assert np.isfinite(v1) and np.isfinite(v2)


def test_deep_evanescent_values_stay_finite():
    # hyperbolic arguments grow like kappa L; the joint rescaling must
    # keep the branch functions representable far into that regime
    cfg = make_config(L=1.0, l=0.5, species=((4.0, 1.0),))
    v1, v2 = classical_branch_values(cfg, None, 1.0, 2000.0)
    assert np.isfinite(v1) and np.isfinite(v2)
    assert v1 != 0.0 or v2 != 0.0
