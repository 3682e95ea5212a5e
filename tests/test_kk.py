"""Kramers-Kronig transforms against the damped-oscillator oracle.

The damped Lorentz response 1/(omega0^2 - W^2 - i gamma W) satisfies the
dispersion relations exactly, so its real and imaginary parts provide an
analytic round-trip oracle for the numerical transforms.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from polsp import (GridError, LorentzSet, OscillatorSpecies, ParseError,
                   PoleError, SampledSusceptibility, TruncatedSpectrumWarning,
                   kk_forward, kk_inverse, load_samples, save_samples,
                   species_from_grid)
from polsp.kk import _pv_integral


OMEGA0, G, GAMMA = 4.0, 1.3, 0.4


def damped_pair(grid):
    den = (OMEGA0 ** 2 - grid ** 2) ** 2 + (GAMMA * grid) ** 2
    real = G ** 2 * (OMEGA0 ** 2 - grid ** 2) / den
    imag = G ** 2 * GAMMA * grid / den
    return real, imag


def test_forward_recovers_damped_lorentz_real_part():
    grid = np.linspace(0.0, 10.0 * OMEGA0, 2000)
    real, imag = damped_pair(grid)
    result = kk_forward(grid, imag)
    assert np.max(np.abs(result.values - real)) < 5e-3
    assert result.tail_estimate < 1e-4


def test_inverse_recovers_damped_lorentz_imag_part():
    grid = np.linspace(0.0, 10.0 * OMEGA0, 2000)
    real, imag = damped_pair(grid)
    result = kk_inverse(grid, real)
    assert np.max(np.abs(result.values - imag)) < 5e-3
    assert result.values[0] == 0.0


def test_round_trip_and_refinement():
    errs = []
    for n in (2000, 4000):
        grid = np.linspace(0.0, 10.0 * OMEGA0, n)
        _, imag = damped_pair(grid)
        back = kk_inverse(grid, kk_forward(grid, imag).values)
        errs.append(np.max(np.abs(back.values - imag)))
    assert errs[1] < errs[0]
    assert errs[1] < 2e-3


def transform_per_node(transform, grid, values):
    # the reference: one scalar PV integral per node, as the transforms'
    # definitions read
    with np.errstate(over="ignore"):
        numerator = grid * values if transform is kk_forward else values
    out = []
    for w in grid:
        if transform is kk_inverse and w == 0.0:
            out.append(0.0)
            continue
        pv = _pv_integral(grid, numerator, w, tail_model=True)
        scale = 2.0 / np.pi if transform is kk_forward else -2.0 * w / np.pi
        out.append(scale * pv)
    return np.array(out)


def reference_cases():
    rng = np.random.default_rng(7)
    uneven = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 40.0, 299))])
    return {"uneven": uneven,
            "uneven_from_0.5": np.sort(rng.uniform(0.5, 40.0, 300)),
            "offset": np.linspace(1.5, 40.0, 400),
            "n_2": np.array([0.0, 7.0]),
            "n_2_offset": np.array([3.0, 5.5]),
            "n_3": np.array([0.0, 4.5, 11.0]),
            "n_3_offset": np.array([2.0, 3.9, 6.1])}


@pytest.mark.parametrize("transform", [kk_forward, kk_inverse])
@pytest.mark.parametrize("samples", ["damped", "zero"])
@pytest.mark.parametrize("name", list(reference_cases()))
def test_transforms_match_the_scalar_integral(transform, samples, name):
    # the batched transforms change the order of summation only; zero
    # samples must give exact zeros
    grid = reference_cases()[name]
    real, imag = damped_pair(grid)
    values = imag if transform is kk_forward else real
    if samples == "zero":
        values = np.zeros_like(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedSpectrumWarning)
        got = transform(grid, values).values
        expected = transform_per_node(transform, grid, values)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    if transform is kk_inverse and grid[0] == 0.0:
        assert got[0] == 0.0


@pytest.mark.parametrize("transform", [kk_forward, kk_inverse])
def test_overflowing_integrand_is_a_grid_error(transform):
    # samples near the largest double: the subtracted numerators overflow,
    # node by node and batched alike
    grid = np.linspace(0.0, 3.0, 4)
    values = np.array([0.0, 1e308, -1e308, 0.0])
    with pytest.raises(GridError, match="not finite"):
        transform_per_node(transform, grid, values)
    with pytest.raises(GridError, match="not finite"):
        transform(grid, values)


def test_zero_imag_gives_zero_real():
    grid = np.linspace(0.0, 20.0, 500)
    result = kk_forward(grid, np.zeros_like(grid))
    assert np.all(result.values == 0.0)
    assert result.tail_estimate == 0.0


def test_constant_real_part_warns_about_truncation():
    grid = np.linspace(0.0, 20.0, 400)
    with pytest.warns(TruncatedSpectrumWarning) as record:
        result = kk_inverse(grid, np.ones_like(grid))
    # the warning points at the caller's line, not into polsp
    assert [w.filename for w in record] == [__file__]
    # the finite-support transform of a constant is genuinely nonzero
    assert np.max(np.abs(result.values)) > 0.0


def test_forward_edge_warning_points_at_the_caller():
    grid = np.linspace(0.0, 20.0, 400)
    with pytest.warns(TruncatedSpectrumWarning) as record:
        kk_forward(grid, np.ones_like(grid))
    assert [w.filename for w in record] == [__file__]


def test_decaying_samples_do_not_warn():
    grid = np.linspace(0.0, 10.0 * OMEGA0, 800)
    _, imag = damped_pair(grid)
    with np.errstate(all="raise"):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", TruncatedSpectrumWarning)
            kk_forward(grid, imag)


def test_lorentz_set_closed_form_and_poles():
    model = LorentzSet(species=(OscillatorSpecies(omega=2.0, G=1.5),
                                OscillatorSpecies(omega=5.0, G=0.5)))
    assert model.chi_prime(0.0) == pytest.approx(1.5 ** 2 / 4.0 + 0.5 ** 2 / 25.0)
    assert model.chi_prime(1.0) == pytest.approx(
        2.25 / (4.0 - 1.0) + 0.25 / (25.0 - 1.0))
    with pytest.raises(PoleError):
        model.chi_prime(2.0)
    assert model.poles() == (2.0, 5.0)


def test_lorentz_set_sign_structure():
    model = LorentzSet(species=(OscillatorSpecies(omega=2.0, G=1.0),
                                OscillatorSpecies(omega=5.0, G=1.0)))
    assert model.chi_prime(1.0) > 0.0          # below every resonance
    assert model.chi_prime(50.0) < 0.0         # above every resonance
    # far tail falls like -sum G^2 / W^2
    w = 300.0
    assert model.chi_prime(w) == pytest.approx(-2.0 / w ** 2, rel=1e-2)


def test_sampled_narrow_bump_approaches_lorentz():
    # a normalized bump in the weight density around omega0 converges to
    # the lossless species closed form as it narrows
    target = G ** 2 / (OMEGA0 ** 2 - (OMEGA0 / 2.0) ** 2)
    errors = []
    for sigma in (0.2, 0.05, 0.0125):
        grid = np.linspace(0.0, 3.0 * OMEGA0, 12001)
        bump = np.exp(-0.5 * ((grid - OMEGA0) / sigma) ** 2)
        bump *= G ** 2 / np.trapezoid(bump, grid)
        model = SampledSusceptibility(grid=grid, weight=bump)
        errors.append(abs(model.chi_prime(OMEGA0 / 2.0) - target))
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < 1e-4 * abs(target)


def test_sampled_grid_validation():
    with pytest.raises(GridError):
        SampledSusceptibility(grid=np.array([1.0, 0.5]), weight=np.array([0.0, 0.0]))
    with pytest.raises(GridError):
        SampledSusceptibility(grid=np.array([0.0, 1.0]), weight=np.array([0.0]))
    with pytest.raises(GridError):
        SampledSusceptibility(grid=np.array([0.0, 1.0]), weight=np.array([1.0, -1.0]))
    with pytest.raises(GridError):
        kk_forward(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    # NaN compares false with everything, so it would slip past the
    # ordering and sign checks
    for grid, weight in (([0.0, 1.0, np.nan, 3.0], [1.0, 1.0, 1.0, 1.0]),
                         ([0.0, 1.0, 2.0, np.inf], [1.0, 1.0, 1.0, 1.0]),
                         ([0.0, 1.0, 2.0, 3.0], [1.0, np.nan, 1.0, 1.0]),
                         ([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, np.inf, 1.0])):
        with pytest.raises(GridError):
            SampledSusceptibility(grid=np.array(grid), weight=np.array(weight))
    with pytest.raises(GridError):
        kk_forward(np.array([0.0, np.nan, 2.0]), np.zeros(3))
    # non-finite samples are refused before any PV integral sees them
    for transform in (kk_forward, kk_inverse):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(GridError, match="samples must be finite"):
                transform(np.linspace(0.0, 3.0, 4), np.array([0.0, 1.0, bad, 0.0]))


def test_species_from_grid_conserves_total_strength():
    grid = np.linspace(0.5, 8.0, 401)
    density = np.exp(-0.5 * ((grid - OMEGA0) / 0.3) ** 2)
    model = SampledSusceptibility(grid=grid, weight=density)
    species = species_from_grid(model)
    total = sum(sp.G ** 2 for sp in species)
    assert total == pytest.approx(np.trapezoid(density, grid), rel=1e-12)
    assert all(sp.omega > 0 for sp in species)
    # discrete species reproduce the sampled chi' away from the support
    discrete = LorentzSet(species=species)
    for w in (0.1, 12.0):
        assert discrete.chi_prime(w) == pytest.approx(
            model.chi_prime(w), rel=1e-6)


def test_species_from_grid_drops_zero_node():
    grid = np.array([0.0, 1.0, 2.0])
    model = SampledSusceptibility(grid=grid, weight=np.array([5.0, 1.0, 1.0]))
    species = species_from_grid(model)
    assert [sp.omega for sp in species] == [1.0, 2.0]


def test_save_load_round_trip(tmp_path):
    grid = np.linspace(0.0, 5.0, 40)
    values = np.sin(grid) * np.exp(-grid)
    path = tmp_path / "samples.txt"
    save_samples(path, grid, values, comment="damped sine\nsecond line")
    text = path.read_text()
    assert text.startswith("# damped sine\n# second line\n")
    grid2, values2 = load_samples(path)
    assert grid2 == pytest.approx(grid, rel=1e-10, abs=1e-12)
    assert values2 == pytest.approx(values, rel=1e-10, abs=1e-12)


def test_load_samples_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
    with pytest.raises(ParseError):
        load_samples(bad)
    with pytest.raises(ParseError):
        load_samples(tmp_path / "missing.txt")


@pytest.mark.parametrize("text", ["", "# a comment\n\n   \n# another\n"])
def test_load_samples_without_samples(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="holds no samples"):
            load_samples(path)
