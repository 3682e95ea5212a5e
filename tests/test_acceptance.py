"""Acceptance gate: the ten release criteria, one test per criterion.

Each test records a (number, label, passed, detail) row in RESULTS; the
conftest terminal hook prints them as a single pass/fail line each, so a
red criterion is visible at a glance next to the pytest output.  Every
tolerance and runtime budget here is pinned; loosening one is a release
decision, not a test edit.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.integrate import quad_vec

from polsp import (LorentzSet, build_dynamical_matrix, classical_D,
                   classical_roots, diagonalize, green_roots, kk_forward,
                   kk_inverse, one_exciton_roots, overlap_K,
                   photon_frequencies, secular_roots, spectrum,
                   two_exciton_roots)
from polsp.cli import main
from conftest import make_config
from oracles import all_poles, drop_near_poles

RESULTS: list[tuple[int, str, bool, str]] = []


def record(num: int, label: str, ok: bool, detail: str) -> None:
    RESULTS.append((num, label, bool(ok), detail))
    assert ok, f"criterion {num} ({label}): {detail}"


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
    return make_config(
        L=L, l=rng.uniform(0.3, 0.95) * L, c=rng.uniform(0.7, 1.5),
        species=tuple(species),
        photon=int(rng.integers(2, 17)), exciton=int(rng.integers(1, 5)),
        root_tol=1e-12, scan_points=300, pole_exclusion=5e-3)


# ---------------------------------------------------------------------------
# 1. decoupling limit
# ---------------------------------------------------------------------------

def test_criterion_01_decoupling_limit():
    t0 = time.perf_counter()
    cfg = make_config(L=1.3, l=0.7, c=0.9, species=((2.0, 0.0), (3.5, 0.0)),
                      photon=32, exciton=8)
    worst = 0.0
    for q in (0.0, 0.4, 1.1, 2.6, 5.0):
        got = spectrum(cfg, q)
        expected = np.sort(np.concatenate([
            photon_frequencies(cfg, q), np.repeat([2.0, 3.5], 8)]))
        worst = max(worst, float(np.max(np.abs(got - expected) / expected)))
    dt = time.perf_counter() - t0
    record(1, "decoupled spectrum is photon + matter lines",
           worst <= 1e-12 and dt < 1.0,
           f"max rel dev {worst:.2e} (tol 1e-12), {dt:.2f}s (budget 1s)")


# ---------------------------------------------------------------------------
# 2. quartic oracle
# ---------------------------------------------------------------------------

def quartic_roots(omega0: float, photon: float, gk: float):
    b = omega0 ** 2 + photon ** 2 + gk ** 2
    disc = np.sqrt(b ** 2 - 4.0 * (omega0 * photon) ** 2)
    return np.sqrt((b - disc) / 2.0), np.sqrt((b + disc) / 2.0)


def single_mode_config(omega0: float, gk: float):
    # L=1 and c=1/pi put the first photon line exactly at 1, so omega0
    # doubles as the ratio of the two bare frequencies; G is rescaled by
    # the measured overlap so the product G*K is exact
    base = make_config(L=1.0, l=0.5, c=1.0 / np.pi, species=((omega0, 1.0),),
                       photon=1, exciton=1, root_tol=1e-12, scan_points=24,
                       pole_exclusion=1e-9)
    k = float(overlap_K(base).K[0, 0])
    return make_config(L=1.0, l=0.5, c=1.0 / np.pi,
                       species=((omega0, gk / k),),
                       photon=1, exciton=1, root_tol=1e-12, scan_points=24,
                       pole_exclusion=1e-9)


def test_criterion_02_quartic_oracle():
    t0 = time.perf_counter()
    worst_dyn = worst_sec = 0.0
    for ratio in np.linspace(0.35, 2.6, 10):
        for gk in np.linspace(0.02, 0.75, 10):
            cfg = single_mode_config(ratio, gk)
            r_lo, r_hi = quartic_roots(ratio, 1.0, gk)
            exact = np.array([r_lo, r_hi])

            got = spectrum(cfg, 0.0)
            worst_dyn = max(worst_dyn, float(np.max(np.abs(got - exact) / exact)))

            # one tight window per root, strictly between the poles and
            # the window edge, so each scan must find exactly one root
            poles = np.array([ratio, 1.0])
            for root in exact:
                gap = float(np.min(np.abs(poles - root)))
                window = (root - 0.45 * gap, root + 0.45 * gap)
                sec = secular_roots(cfg, overlap_K(cfg), 0.0, window)
                assert len(sec) == 1, (ratio, gk, window)
                worst_sec = max(worst_sec, abs(sec[0] - root) / root)
    dt = time.perf_counter() - t0
    record(2, "quartic closed form vs dynamical and secular",
           worst_dyn <= 1e-10 and worst_sec <= 1e-10 and dt < 1.0,
           f"dyn {worst_dyn:.2e}, sec {worst_sec:.2e} (tol 1e-10), "
           f"{dt:.2f}s (budget 1s)")


# ---------------------------------------------------------------------------
# 3. randomized cross-agreement
# ---------------------------------------------------------------------------

def test_criterion_03_method_cross_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    configs = [random_config(rng) for _ in range(14)]
    # guarantee closed-form coverage: single species, one or two excitons
    for k, xi in enumerate((1, 2, 1, 2, 1, 2)):
        configs.append(make_config(
            L=1.0 + 0.3 * k, l=0.45 * (1.0 + 0.3 * k), c=1.0,
            species=((3.0 + 0.8 * k, 0.6),), photon=10 + k, exciton=xi,
            root_tol=1e-12, scan_points=300, pole_exclusion=5e-3))

    worst_pair = worst_closed = 0.0
    compared = 0
    for cfg in configs:
        q = rng.uniform(0.0, 2.0)
        dyn = spectrum(cfg, q)
        window = (0.0, float(dyn[-1]) * 1.05)
        excl = cfg.solver.pole_exclusion
        poles = all_poles(cfg, q)
        dyn_kept = drop_near_poles(dyn, poles, excl)
        sec_kept = drop_near_poles(secular_roots(cfg, overlap_K(cfg), q, window),
                                   poles, excl)
        assert len(dyn_kept) == len(sec_kept), cfg
        if len(dyn_kept):
            worst_pair = max(worst_pair, float(
                np.max(np.abs(dyn_kept - sec_kept) / dyn_kept)))
            compared += len(dyn_kept)

        if len(cfg.oscillators) == 1 and cfg.exciton_mode_count in (1, 2):
            solver = one_exciton_roots if cfg.exciton_mode_count == 1 \
                else two_exciton_roots
            closed = drop_near_poles(
                solver(cfg, overlap_K(cfg), q, window), poles, excl)
            if len(closed) == len(sec_kept) and len(closed):
                dev = max(float(np.max(np.abs(closed - sec_kept) / closed)),
                          float(np.max(np.abs(closed - dyn_kept) / closed)))
                worst_closed = max(worst_closed, dev)
    dt = time.perf_counter() - t0
    record(3, "dynamical vs secular vs closed forms, 20 configs",
           worst_pair <= 1e-8 and worst_closed <= 1e-10 and dt < 30.0,
           f"dyn/sec {worst_pair:.2e} over {compared} roots (tol 1e-8), "
           f"closed {worst_closed:.2e} (tol 1e-10), {dt:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# 4. classical limit through the converge command
# ---------------------------------------------------------------------------

CONVERGE_YAML = """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators:
  - {omega: 20.0, G: 3.0}
basis: {photon_modes: 512, exciton_modes: 64}
solver: {omega_max: 17.0, scan_points: 800, root_tol: 1.0e-12}
"""


def test_criterion_04_classical_limit_converge(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "converge.yaml"
    cfg_path.write_text(CONVERGE_YAML, encoding="utf-8")
    code = main(["converge", "--config", str(cfg_path), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "converge.csv").read_text().splitlines()[2:]]
    ladder = [int(r[0]) for r in rows]
    devs = [float(r[2]) for r in rows]
    dt = time.perf_counter() - t0
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    record(4, "secular converges to classical as matter basis grows",
           ladder == [4, 8, 16, 32, 64] and monotone and devs[-1] <= 1e-3
           and dt < 300.0,
           f"deviations {', '.join(f'{d:.2e}' for d in devs)} at Xi={ladder}, "
           f"{dt:.1f}s (budget 300s)")


# ---------------------------------------------------------------------------
# 5. overlap oracles at full size
# ---------------------------------------------------------------------------

def test_criterion_05_overlap_quadrature_and_loewner():
    t0 = time.perf_counter()
    cfg = make_config(L=1.9, l=1.3, species=((4.0, 1.0),), photon=64, exciton=64)
    m = np.arange(1, 65)
    x = np.arange(64)

    def photon_vals(z):
        return np.sqrt(2.0 / cfg.L) * np.sin(m * np.pi * (z / cfg.L + 0.5))

    def exciton_vals(z):
        return np.sqrt(2.0 / cfg.l) * np.sin((x + 1) * np.pi * (z / cfg.l + 0.5))

    half = cfg.l / 2.0
    K_quad, _ = quad_vec(lambda z: np.outer(photon_vals(z), exciton_vals(z)),
                         -half, half, epsabs=1e-14, epsrel=1e-13)
    D_quad, _ = quad_vec(lambda z: np.outer(photon_vals(z), photon_vals(z)),
                         -half, half, epsabs=1e-14, epsrel=1e-13)
    D_quad = 0.5 * (D_quad + D_quad.T)

    overlaps = overlap_K(cfg)
    dev_k = float(np.max(np.abs(overlaps.K - K_quad)))
    dev_d = float(np.max(np.abs(classical_D(cfg) - D_quad)))

    # Loewner chain: adding matter modes only ever adds positive weight
    min_eig = np.inf
    for xi in (4, 8, 16, 32):
        d_small = overlaps.K[:, :xi] @ overlaps.K[:, :xi].T
        d_large = overlaps.K[:, :2 * xi] @ overlaps.K[:, :2 * xi].T
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(d_large - d_small))))
    min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(
        classical_D(cfg) - overlaps.K @ overlaps.K.T))))
    dt = time.perf_counter() - t0
    record(5, "overlap matrices vs adaptive quadrature, Loewner chain",
           dev_k <= 1e-12 and dev_d <= 1e-12 and min_eig >= -1e-12 and dt < 10.0,
           f"K dev {dev_k:.2e}, D dev {dev_d:.2e} (tol 1e-12), "
           f"min eig {min_eig:.1e} (floor -1e-12), {dt:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# 6. Green function vs mode sum
# ---------------------------------------------------------------------------

def test_criterion_06_green_vs_one_exciton():
    t0 = time.perf_counter()
    window = (3.0, 5.0)
    lines = np.pi * np.arange(1, 40) / 20.0 * 1.0

    def trim(values):
        values = np.asarray(values)
        dist = np.min(np.abs(values[:, None] - lines[None, :]), axis=1)
        return values[dist > 1e-7]  # uncoupled lines are exact det zeros

    base = make_config(L=20.0, l=0.5, c=1.0, species=((4.0, 1.0),),
                       photon=2000, exciton=1, root_tol=1e-13,
                       scan_points=800, pole_exclusion=1e-5)
    green = trim(green_roots(base, 0.0, window))
    devs = []
    for n in (250, 500, 1000, 2000):
        cfg = base.with_truncation(photon_mode_count=n)
        mode_sum = trim(one_exciton_roots(cfg, overlap_K(cfg), 0.0, window))
        assert len(mode_sum) == len(green), n
        devs.append(float(np.max(np.abs(mode_sum - green) / green)))
    dt = time.perf_counter() - t0
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    record(6, "green matching vs photon mode sum, one exciton",
           monotone and devs[-1] <= 1e-3 and dt < 120.0,
           f"deviations {', '.join(f'{d:.1e}' for d in devs)} "
           f"at N=250..2000 (final tol 1e-3), {dt:.1f}s (budget 120s)")


# ---------------------------------------------------------------------------
# 7. empty-cavity classical reduction
# ---------------------------------------------------------------------------

def test_criterion_07_classical_vacuum_lines():
    t0 = time.perf_counter()
    cfg = make_config(L=1.0, l=0.5, c=1.0, species=((1000.0, 0.0),),
                      photon=2, exciton=1, root_tol=1e-12, scan_points=600)
    model = LorentzSet.from_config(cfg)
    window = (0.45 * np.pi, 10.5 * np.pi)
    branch1, branch2 = classical_roots(cfg, model, 0.0, window,
                                       poles=model.poles())
    odd = np.pi * np.arange(1, 11, 2)
    even = np.pi * np.arange(2, 11, 2)
    ok = len(branch1) == 5 and len(branch2) == 5
    worst = 0.0
    if ok:
        for got, exact in ((branch1, odd), (branch2, even)):
            err = np.abs(got - exact) / np.maximum(1.0, exact)
            worst = max(worst, float(np.max(err)))
        ok = worst <= cfg.solver.root_tol
    dt = time.perf_counter() - t0
    record(7, "vacuum slab reproduces empty-cavity lines by parity",
           ok and dt < 1.0,
           f"max dev {worst:.2e} vs root_tol {cfg.solver.root_tol:.0e} "
           f"for m<=10, {dt:.2f}s (budget 1s)")


# ---------------------------------------------------------------------------
# 8. Kramers-Kronig round trip
# ---------------------------------------------------------------------------

def test_criterion_08_kk_round_trip():
    t0 = time.perf_counter()
    omega0, g, gamma = 4.0, 1.0, 0.4  # gamma = 0.1 omega0

    def imag_part(grid):
        den = (omega0 ** 2 - grid ** 2) ** 2 + (gamma * grid) ** 2
        return g ** 2 * gamma * grid / den

    errs = []
    for n in (4000, 8000):
        grid = np.linspace(0.0, 10.0 * omega0, n)
        imag = imag_part(grid)
        back = kk_inverse(grid, kk_forward(grid, imag).values)
        errs.append(float(np.max(np.abs(back.values - imag))))
    dt = time.perf_counter() - t0
    record(8, "damped-Lorentz pair round-trips through both transforms",
           errs[0] <= 2e-3 and errs[1] < errs[0] and dt < 10.0,
           f"max-norm {errs[0]:.2e} at 4000 pts (tol 2e-3), "
           f"{errs[1]:.2e} after 2x refinement, {dt:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# 9. normalization and pairing
# ---------------------------------------------------------------------------

def test_criterion_09_normalization_and_pairing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    configs = [random_config(rng) for _ in range(5)]
    configs.append(make_config(L=1.3, l=0.7, c=0.9,
                               species=((2.0, 0.0), (3.5, 0.0)),
                               photon=16, exciton=4))
    configs.append(single_mode_config(0.8, 0.4))

    worst_norm = 0.0
    worst_pairing = 0.0
    counts_ok = True
    for cfg in configs:
        q = rng.uniform(0.0, 1.5)
        dyn = build_dynamical_matrix(cfg, overlap_K(cfg), q)
        modes = diagonalize(dyn)
        expected = cfg.photon_mode_count + \
            len(cfg.oscillators) * cfg.exciton_mode_count
        counts_ok = counts_ok and len(modes) == expected
        for mode in modes:
            norm = float(np.sum(np.abs(mode.W) ** 2) + np.sum(np.abs(mode.X) ** 2)
                         - np.sum(np.abs(mode.Y) ** 2) - np.sum(np.abs(mode.Z) ** 2))
            worst_norm = max(worst_norm, abs(norm - 1.0))
        raw = np.sort(np.linalg.eigvals(dyn.matrix).real)
        worst_pairing = max(worst_pairing, float(
            np.max(np.abs(raw + raw[::-1])) / np.max(np.abs(raw))))
    dt = time.perf_counter() - t0
    record(9, "symplectic norms, +/- pairing, mode count",
           worst_norm <= 1e-10 and worst_pairing <= 1e-10 and counts_ok,
           f"norm dev {worst_norm:.2e} (tol 1e-10), pairing "
           f"{worst_pairing:.2e}, counts {'ok' if counts_ok else 'WRONG'}, "
           f"{dt:.1f}s")


# ---------------------------------------------------------------------------
# 10. determinism across thread counts
# ---------------------------------------------------------------------------

SWEEP_CONFIGS = [
    """
geometry: {L: 1.5, l: 0.8, c: 1.0}
oscillators: [{omega: 6.0, G: 0.8}]
basis: {photon_modes: 12, exciton_modes: 2}
sweep: {q_min: 0.0, q_max: 2.0, points: 17}
solver: {method: secular, omega_max: 9.0, scan_points: 400}
""",
    """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators: [{omega: 3.0, G: 0.5}, {omega: 7.0, G: 0.9}]
basis: {photon_modes: 12, exciton_modes: 3}
sweep: {q_min: 0.0, q_max: 2.0, points: 17}
solver: {method: dynamical}
""",
    """
geometry: {L: 2.0, l: 1.1, c: 0.85}
oscillators: [{omega: 5.0, G: 0.001}]
basis: {photon_modes: 10, exciton_modes: 2}
sweep: {q_min: 0.0, q_max: 1.5, points: 9}
solver: {method: dynamical}
""",
]


def test_criterion_10_thread_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    identical = True
    for k, text in enumerate(SWEEP_CONFIGS):
        cfg_path = tmp_path / f"cfg{k}.yaml"
        cfg_path.write_text(text, encoding="utf-8")
        blobs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"cfg{k}_t{threads}"
            code = main(["sweep", "--config", str(cfg_path),
                         "--out", str(out), "--threads", str(threads)])
            capsys.readouterr()
            assert code == 0, (k, threads)
            blobs.append((out / "sweep.csv").read_bytes())
        identical = identical and blobs[0] == blobs[1] == blobs[2]
        digests = {json.loads((tmp_path / f"cfg{k}_t{t}" / "sweep_manifest.json")
                              .read_text())["digest"] for t in (1, 2, 4)}
        identical = identical and len(digests) == 1
    dt = time.perf_counter() - t0
    record(10, "sweep CSVs byte-identical across thread counts",
           identical, f"3 configs x threads 1/2/4, {dt:.1f}s")
