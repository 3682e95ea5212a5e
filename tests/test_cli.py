"""Config ingestion, manifest reproducibility, and the command surface."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polsp import GeometryError, ParseError, cli, modes, overlap_K, secular_roots
from polsp.cli import (main, manifest_digest, parse_config, sweep_grid)

MINIMAL = """
geometry: {L: 1.0, l: 0.5}
oscillators:
  - {omega: 4.0, G: 1.0}
"""

FULL = """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators:
  - {omega: 20.0, G: 3.0}
basis: {photon_modes: 24, exciton_modes: 6}
sweep: {q_min: 0.0, q_max: 4.0, points: 17}
solver: {method: secular, root_tol: 1.0e-10, omega_max: 17.0, scan_points: 400}
"""


def test_minimal_config_defaults():
    config, snapshot = parse_config(MINIMAL)
    assert config.photon_mode_count == 32
    assert config.exciton_mode_count == 4
    assert config.c == 1.0
    assert config.solver.method == "dynamical"
    assert snapshot["sweep"] == {"q_min": 0.0, "q_max": 0.0, "points": 1}


def test_full_config_round_trip():
    config, snapshot = parse_config(FULL)
    assert config.solver.method == "secular"
    assert config.solver.omega_max == 17.0
    assert config.oscillators[0].omega == 20.0
    assert list(sweep_grid(snapshot)) == list(np.linspace(0.0, 4.0, 17))


@pytest.mark.parametrize("text,field", [
    ("geometry: {L: 1, l: 0.5, depth: 2}\noscillators: [{omega: 1, G: 1}]",
     "geometry.depth"),
    (MINIMAL + "basis: {photon_modes: 8, spin: 2}", "basis.spin"),
    (MINIMAL + "solver: {metod: secular}", "solver.metod"),
    (MINIMAL + "extra: {}", "<root>.extra"),
    ("geometry: {L: 1, l: 0.5}\noscillators: [{omega: 1, G: 1, gamma: 0.1}]",
     "oscillators[0].gamma"),
])
def test_unknown_keys_rejected_by_name(text, field):
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.field == field


def test_type_errors():
    with pytest.raises(ParseError):
        parse_config("geometry: {L: yes, l: 0.5}\noscillators: [{omega: 1, G: 1}]")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "basis: {photon_modes: 8.5}")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "solver: {method: magic}")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "sweep: {points: 0}")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "sweep: {q_min: 2.0, q_max: 1.0}")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "sweep: {q_min: -0.5, q_max: 1.0}")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "sweep: {q_max: .inf}")
    with pytest.raises(ParseError):
        # an integer too large for a float is not finite either
        parse_config(MINIMAL + "sweep: {q_max: 1" + "0" * 400 + "}")
    with pytest.raises(ParseError):
        parse_config("not yaml: [unclosed")
    with pytest.raises(ParseError):
        parse_config("")


def test_physics_validation_is_labelled():
    with pytest.raises(GeometryError) as err:
        parse_config("geometry: {L: 0.5, l: 1.0}\noscillators: [{omega: 1, G: 1}]")
    assert "geometry" in str(err.value)


def test_digest_depends_on_inputs_not_time():
    _, snap = parse_config(FULL)
    d1 = manifest_digest(snap, "secular", [0.0, 1.0])
    d2 = manifest_digest(snap, "secular", [0.0, 1.0])
    assert d1 == d2
    assert manifest_digest(snap, "dynamical", [0.0, 1.0]) != d1
    assert manifest_digest(snap, "secular", [0.0, 2.0]) != d1


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_exit_code_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "geometry: {L: 0.5, l: 1.0}\n"
                                  "oscillators: [{omega: 1, G: 1}]")
    code = main(["sweep", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "GeometryError"


@pytest.mark.parametrize("text,argv", [
    ("geometry: {L: .inf, l: 0.5}\noscillators: [{omega: 4.0, G: 1.0}]", ["sweep"]),
    (MINIMAL + "solver: {pole_exclusion: .inf}", ["sweep"]),
    (MINIMAL + "solver: {root_tol: .inf}", ["sweep"]),
    (MINIMAL, ["spectrum", "--q", "-0.5"]),
    (MINIMAL, ["classical", "--q", "-0.5"]),
    (MINIMAL, ["sweep", "--threads", "0"]),
], ids=["L_inf", "pole_exclusion_inf", "root_tol_inf", "spectrum_negative_q",
        "classical_negative_q", "sweep_zero_threads"])
def test_exit_code_out_of_range_value(tmp_path, capsys, text, argv):
    # out-of-range inputs are configuration errors and write no output,
    # not even the output directory
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([*argv, "--config", path, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "classical", "kk", "converge"])
def test_method_is_refused_where_ignored(tmp_path, capsys, command):
    # only sweep reads --method; elsewhere it is a configuration error that
    # writes no output, not even the output directory
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--method", "secular", "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError" and "--method" in record["message"]
    assert not out.exists()


# the flags each command reads; --method is covered above
READS = {"sweep": ("method", "threads"), "spectrum": ("q",), "classical": ("q",),
         "kk": ("input", "direction"), "converge": ()}
FLAG_VALUES = {"threads": "2", "q": "0.5", "input": "samples.txt", "direction": "inverse"}
REFUSED = [(command, flag) for command, reads in READS.items()
           for flag in FLAG_VALUES if flag not in reads]

SMALL = """
geometry: {L: 1.0, l: 0.5}
oscillators: [{omega: 20.0, G: 3.0}]
basis: {photon_modes: 8, exciton_modes: 2}
sweep: {q_min: 0.0, q_max: 1.0, points: 3}
solver: {omega_max: 12.0, scan_points: 60}
"""


@pytest.mark.parametrize("command,flag", REFUSED,
                         ids=[f"{command}_{flag}" for command, flag in REFUSED])
def test_flag_is_refused_where_ignored(tmp_path, capsys, command, flag):
    # a flag the command would ignore is a configuration error naming the
    # flag, and writes no output, not even the output directory
    path = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    argv = [command, "--config", path, f"--{flag}", FLAG_VALUES[flag], "--out", str(out)]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"
    assert record["message"].endswith(f"(field: --{flag})")
    assert not out.exists()


@pytest.mark.parametrize("argv,label", [
    (["sweep", "--method", "secular"], "secular"),
    (["sweep", "--threads", "2"], "dynamical"),
    (["spectrum", "--q", "0.5"], "dynamical"),
    (["classical", "--q", "0.5"], "classical"),
    (["kk", "--input", "{samples}"], "kk_forward"),
    (["kk", "--input", "{samples}", "--direction", "inverse"], "kk_inverse"),
], ids=["sweep_method", "sweep_threads", "spectrum_q", "classical_q", "kk_input",
        "kk_direction"])
def test_flag_is_accepted_where_read(tmp_path, capsys, argv, label):
    samples = tmp_path / "samples.txt"
    grid = np.linspace(0.0, 40.0, 400)
    imag = 0.4 * grid / ((16.0 - grid ** 2) ** 2 + (0.4 * grid) ** 2)
    samples.write_text("".join(f"{w:.12e} {v:.12e}\n" for w, v in zip(grid, imag)))
    path = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    argv = [arg.format(samples=samples) for arg in argv]
    assert main([*argv, "--config", path, "--out", str(out)]) == 0, capsys.readouterr().err
    manifest = json.loads(next(out.glob("*_manifest.json")).read_text())
    assert manifest["method"] == label


def test_exit_code_missing_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.yaml")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_exit_code_solver_error(tmp_path, capsys):
    # omega_max below the first classical root: converge has no reference
    # root to compare with; the failed command writes no output, not even
    # the output directory
    path = write_config(tmp_path, """
geometry: {L: 1.0, l: 0.5}
oscillators: [{omega: 4.0, G: 1.0}]
solver: {omega_max: 1.0}
""")
    out = tmp_path / "newdir"
    code = main(["converge", "--config", path, "--out", str(out)])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SolverError" and "no classical roots" in record["message"]
    assert not out.exists()


OVERFLOW = """
geometry: {{L: 1.0, l: 0.5, c: {c}}}
oscillators: [{species}]
basis: {{photon_modes: 4, exciton_modes: 2}}
sweep: {{q_min: {q}, q_max: {q}}}
solver: {{omega_max: {omega_max}}}
"""

# route -> argv; a trailing --q takes the input's q
OVERFLOW_ROUTES = {"secular": ["sweep", "--method", "secular"],
                   "green": ["sweep", "--method", "green"],
                   "classical": ["sweep", "--method", "classical"],
                   "dynamical": ["sweep", "--method", "dynamical"],
                   "two_exciton": ["sweep", "--method", "two_exciton"],
                   "converge": ["converge"],
                   "classical_q": ["classical", "--q"], "spectrum_q": ["spectrum", "--q"]}
CONFIG_ROUTES = ("classical", "converge", "green", "secular")
# name -> (c, species, omega_max, q, error, field, routes).  window and
# count overflow the count of cavity modes below Omega, through
# (omega_max/c)^2 or past 2^53 with a finite square, which only the Green
# and classical counts take.  q has no finite square; c q has none on the
# routes that build photon frequencies
OVERFLOW_INPUTS = {
    "G": ("1.0", "{omega: 4.0, G: 1.0e+200}", "20.0", "0.0", "SpeciesError",
          "oscillators[0].G", CONFIG_ROUTES),
    "omega": ("1.0", "{omega: 1.0e+200, G: 1.0}", "20.0", "0.0", "SpeciesError",
              "oscillators[0].omega", CONFIG_ROUTES),
    "c": ("1.0e-200", "{omega: 4.0, G: 1.0}", "20.0", "0.0", "GeometryError", "light speed",
          CONFIG_ROUTES),
    "window": ("1.0e-150", "{omega: 4.0, G: 1.0}", "1.0e+10", "0.0", "ConfigError",
               "Omega/c is too large", ("classical", "converge", "green")),
    "count": ("1.0e-20", "{omega: 4.0, G: 1.0}", "20.0", "0.0", "ConfigError",
              "Omega/c is too large", ("classical", "converge", "green")),
    "q": ("1.0", "{omega: 4.0, G: 1.0}", "20.0", "1.0e+160", "ConfigError", "q=1e+160",
          ("classical", "classical_q", "dynamical", "green", "secular", "spectrum_q",
           "two_exciton")),
    "cq": ("1.0e+100", "{omega: 4.0, G: 1.0}", "20.0", "1.0e+100", "ConfigError", "q=1e+100",
           ("dynamical", "secular", "spectrum_q", "two_exciton")),
}


@pytest.mark.parametrize("argv, c, species, omega_max, q, error, field", [
    pytest.param(OVERFLOW_ROUTES[route], *OVERFLOW_INPUTS[name][:-1], id=f"{name}-{route}")
    for name in sorted(OVERFLOW_INPUTS) for route in OVERFLOW_INPUTS[name][-1]])
def test_overflowing_squares_are_configuration_errors(tmp_path, capsys, argv, c, species,
                                                      omega_max, q, error, field):
    # omega, G, 1/c, omega_max/c, q or c q whose square overflows, or a mode
    # count too large to be exact, used to end in a bare OverflowError or
    # ValueError and exit 1, in a ConvergenceError and exit 3, or in a
    # warning and a sweep of wrong or no roots with exit 0; now exit 2,
    # naming the cause
    path = write_config(tmp_path, OVERFLOW.format(c=c, species=species, omega_max=omega_max,
                                                  q=q))
    out = tmp_path / "out"
    argv = [*argv, q] if argv[-1] == "--q" else argv
    assert main([*argv, "--config", path, "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == error and field in record["message"]
    assert not out.exists()


BRANCH_MATCH = """
geometry: {L: 1.0, l: 0.3}
oscillators: [{omega: 3.0, G: 0.5}]
basis: {photon_modes: 16, exciton_modes: 4}
sweep: {q_min: 0.0, q_max: 4.0, points: 9}
solver: {omega_max: 10.0}
"""


def test_crowded_roots_below_a_resonance_sweep_on_every_route(tmp_path, capsys):
    # the top secular root leaves the window at omega_max between two q
    # steps while matter-like roots crowd below omega_j, closer than c dq;
    # the count labels every root, so each route sweeps without refusal
    path = write_config(tmp_path, BRANCH_MATCH)
    for method in ("secular", "dynamical", "green"):
        out = tmp_path / method
        assert main(["sweep", "--method", method, "--config", path, "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
    capsys.readouterr()


def test_green_sweep_far_below_the_light_line_finds_the_guided_modes(tmp_path, capsys):
    # q = 3000, kappa h ~ 750: the matching matrix overflows here, but the
    # green sweep counts its roots from ratios and exits 0 with the guided
    # modes the secular route finds, within 2.2e-7 of the resonance
    text = """
geometry: {L: 1.0, l: 0.5}
oscillators: [{omega: 4.0, G: 1.0}]
sweep: {q_min: 3000.0, q_max: 3000.0, points: 1}
solver: {omega_max: 10.0, pole_exclusion: 1.0e-9}
"""
    path = write_config(tmp_path, text)
    assert main(["sweep", "--config", path, "--method", "green", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    roots = np.sort([float(line.split(",")[2]) for line in lines])
    config, _ = parse_config(text)
    secular = secular_roots(config, overlap_K(config), 3000.0, (0.0, 10.0))
    assert len(roots) == len(secular) > 0
    assert np.max(np.abs(roots - secular) / secular) <= 1e-8
    assert np.all(np.abs(roots - 3.99999978) < 1e-8)


def test_converge_without_secular_roots_is_a_solver_error(tmp_path, capsys):
    # the third thread-determinism config: at G = 0.001 the Xi = 1 step of
    # the ladder finds no secular root, which used to crash with ValueError
    path = write_config(tmp_path, """
geometry: {L: 2.0, l: 1.1, c: 0.85}
oscillators: [{omega: 5.0, G: 0.001}]
basis: {photon_modes: 10, exciton_modes: 2}
solver: {method: dynamical}
""")
    code = main(["converge", "--config", path, "--out", str(tmp_path)])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SolverError"
    assert "exciton_modes=1" in record["message"]


def test_sweep_csv_and_manifest(tmp_path, capsys):
    path = write_config(tmp_path, FULL)
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    csv_path = tmp_path / "sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "q,branch,omega"
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert lines[0].split()[-1] == manifest["digest"]
    assert manifest["method"] == "secular"
    assert manifest["truncation"]["photon_modes"] == 24
    assert "created_utc" in manifest

    # every q of the grid appears, branches are nonempty
    qs = {float(row.split(",")[0]) for row in lines[2:]}
    assert qs == set(np.linspace(0.0, 4.0, 17))


SMALL_GREEN = """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators:
  - {omega: 6.0, G: 0.8}
basis: {photon_modes: 8, exciton_modes: 3}
sweep: {q_min: 0.0, q_max: 2.0, points: 5}
solver: {omega_max: 9.0, scan_points: 200}
"""


def test_sweep_thread_count_does_not_change_bytes(tmp_path, capsys):
    # the secular scanner and the Green evaluator, whose per-scan slab
    # arrays must not leak between the worker threads
    for method, text in (("secular", FULL), ("green", SMALL_GREEN)):
        path = write_config(tmp_path, text, name=f"{method}.yaml")
        blobs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"{method}{threads}"
            assert main(["sweep", "--config", path, "--out", str(out),
                         "--method", method, "--threads", str(threads)]) == 0
            blobs.append((out / "sweep.csv").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1] == blobs[2]
        assert len(blobs[0].splitlines()) > 2


def test_method_override_changes_digest(tmp_path, capsys):
    path = write_config(tmp_path, FULL)
    for method, sub in (("secular", "a"), ("dynamical", "b")):
        assert main(["sweep", "--config", path, "--out", str(tmp_path / sub),
                     "--method", method]) == 0
    capsys.readouterr()
    ma = json.loads((tmp_path / "a" / "sweep_manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "sweep_manifest.json").read_text())
    assert ma["digest"] != mb["digest"]


def test_kk_digest_covers_the_input_samples(tmp_path, capsys):
    # two sample files on one 50-point grid that differ in one value got
    # equal digests and different CSVs; the digest now covers the values,
    # and the grid too, which the manifest no longer repeats as its q grid
    path = write_config(tmp_path, SMALL)
    grid = np.linspace(0.0, 40.0, 50)
    values = 0.4 * grid / ((16.0 - grid ** 2) ** 2 + (0.4 * grid) ** 2)
    changed = values.copy()
    changed[20] *= 1.5
    moved = grid.copy()
    moved[20] += 0.1 * (grid[1] - grid[0])
    digests = {}
    for name, nodes, data, run in (("a", grid, values, 1), ("a", grid, values, 2),
                                   ("b", grid, changed, 1), ("c", moved, values, 1)):
        samples = tmp_path / f"{name}.txt"
        samples.write_text("".join(f"{w:.17e} {v:.17e}\n" for w, v in zip(nodes, data)))
        out = tmp_path / f"{name}{run}"
        assert main(["kk", "--input", str(samples), "--config", path,
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "kk_manifest.json").read_text())
        assert manifest["q_grid"] == []
        assert (out / "kk.csv").read_text().splitlines()[0].split()[-1] == manifest["digest"]
        digests[name, run] = manifest["digest"], (out / "kk.csv").read_text()
    capsys.readouterr()
    assert digests["a", 1] == digests["a", 2]
    for other in ("b", "c"):
        assert digests["a", 1][0] != digests[other, 1][0]
        assert digests["a", 1][1] != digests[other, 1][1]


def test_only_kk_digests_samples(tmp_path, capsys):
    path = write_config(tmp_path, SMALL)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert "samples_sha256" not in json.loads(
        (tmp_path / "spectrum_manifest.json").read_text())


def test_spectrum_norms_sum_to_one(tmp_path, capsys):
    path = write_config(tmp_path, FULL)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path),
                 "--q", "0.5"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[2:]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    # symplectic normalization: |W|^2 + |X|^2 - |Y|^2 - |Z|^2 = 1
    norm = data[:, 1] + data[:, 2] - data[:, 3] - data[:, 4]
    assert np.allclose(norm, 1.0, atol=1e-9)
    assert np.all(np.diff(data[:, 0]) >= 0)


def test_classical_vacuum_gives_photon_lines(tmp_path, capsys):
    path = write_config(tmp_path, """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators: [{omega: 100.0, G: 1.0e-8}]
solver: {omega_max: 12.0, scan_points: 500}
""")
    assert main(["classical", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "classical.csv").read_text().splitlines()[2:]
    omegas = np.array([float(r.split(",")[0]) for r in rows])
    branches = [int(r.split(",")[1]) for r in rows]
    expected = np.pi * np.arange(1, len(omegas) + 1)
    assert len(omegas) >= 3
    assert np.allclose(omegas, expected, rtol=1e-6)
    # odd photon index couples to the even (branch 1) sector
    assert branches == [1 if m % 2 else 2 for m in range(1, len(omegas) + 1)]


def test_kk_command_round_trip(tmp_path, capsys):
    grid = np.linspace(0.0, 40.0, 800)
    den = (16.0 - grid ** 2) ** 2 + (0.4 * grid) ** 2
    imag = 0.4 * grid / den
    samples = tmp_path / "imag.txt"
    samples.write_text("\n".join(f"{w:.12e} {v:.12e}" for w, v in zip(grid, imag)))

    path = write_config(tmp_path, MINIMAL)
    assert main(["kk", "--config", path, "--out", str(tmp_path),
                 "--input", str(samples), "--direction", "forward"]) == 0
    capsys.readouterr()
    out_grid, out_vals = np.loadtxt(tmp_path / "kk.csv", unpack=True)
    real = (16.0 - grid ** 2) / den
    assert np.max(np.abs(out_vals - real)) < 5e-3
    assert np.allclose(out_grid, grid)

    code = main(["kk", "--config", path, "--out", str(tmp_path)])
    assert code == 2  # --input is required
    capsys.readouterr()


def test_converge_command_reports_decreasing_deviation(tmp_path, capsys):
    path = write_config(tmp_path, """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators: [{omega: 20.0, G: 3.0}]
basis: {photon_modes: 96, exciton_modes: 8}
solver: {omega_max: 17.0, scan_points: 600}
""")
    assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "converge.csv").read_text().splitlines()[2:]
    table = [row.split(",") for row in rows]
    xi = [int(r[0]) for r in table]
    dev = [float(r[2]) for r in table]
    assert xi == [1, 2, 4, 8]
    assert dev[-1] < dev[0]


def test_converge_compares_modes_below_the_lowest_resonance(tmp_path, capsys):
    # the CI entry-point cavity, its resonance at 6 inside omega_max: the
    # classical roots crowd below 6 (5.8485, 5.9778, 5.9901, ...), so index
    # pairing over the whole window compared the third to fifth secular
    # roots at Xi = 2 (5.9409, 6.0140, 6.3937) with unrelated modes and
    # reported 6.7e-2.  Below the resonance both lists rise from the lowest
    # mode, and the deviations shrink with Xi from 1.6e-2.  At Xi = 1 the
    # secular route leaves out the photon lines of the sector without matter
    # modes, so index pairing reported 0.43; paired by count rank the row
    # reads 1.6e-2
    path = write_config(tmp_path, """
geometry: {L: 1.5, l: 0.8, c: 1.0}
oscillators: [{omega: 6.0, G: 0.8}]
basis: {photon_modes: 10, exciton_modes: 8}
solver: {omega_max: 9.0}
""")
    assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = [row.split(",") for row in (tmp_path / "converge.csv").read_text().splitlines()[2:]]
    assert [int(r[0]) for r in rows] == [1, 2, 4, 8]
    dev = [float(r[2]) for r in rows]
    assert dev[0] < 2e-2 and dev[1] < 2e-2 and dev[1] > dev[2] > dev[3]


# ---------------------------------------------------------------------------
# start-up: each command, in a fresh interpreter, loads only what it runs
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI the way `python -m polsp.cli` does, then prints the names of
# every loaded module as its last line of output
RUN_AND_LIST_MODULES = """
import json, runpy, sys
sys.argv = ["polsp", *sys.argv[1:]]
try:
    runpy.run_module("polsp.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(sys.modules)))
"""


def fresh_python(cwd, *args) -> str:
    """stdout of a new interpreter that imports polsp from this checkout."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


ROUTE_MODULES = ("polsp.dispersion", "polsp.hopfield", "polsp.kk", "polsp.modes")


@pytest.mark.parametrize("argv,absent,present", [
    (["kk", "--input", "samples.txt"],
     ("polsp.dispersion", "polsp.hopfield", "polsp.modes", "concurrent.futures"),
     ("polsp.kk",)),
    (["spectrum"], ("polsp.dispersion", "polsp.kk"), ("polsp.hopfield", "polsp.modes")),
    (["sweep", "--method", "secular", "--threads", "1"],
     ("polsp.hopfield", "polsp.kk", "concurrent.futures"), ("polsp.dispersion",)),
    (["sweep", "--method", "secular", "--threads", "2"],
     ("polsp.hopfield", "polsp.kk"), ("polsp.dispersion", "concurrent.futures")),
    (["classical"], ("polsp.hopfield",), ("polsp.dispersion", "polsp.kk")),
    (["converge"], ("polsp.hopfield",), ("polsp.dispersion", "polsp.modes")),
], ids=["kk", "spectrum", "sweep_one_thread", "sweep_two_threads", "classical",
        "converge"])
def test_command_loads_only_its_routes(tmp_path, argv, absent, present):
    write_config(tmp_path, SMALL)
    grid = np.linspace(0.0, 40.0, 50)
    (tmp_path / "samples.txt").write_text(
        "".join(f"{w:.17e} {0.4 * w / ((16.0 - w * w) ** 2 + (0.4 * w) ** 2):.17e}\n"
                for w in grid))
    stdout = fresh_python(tmp_path, "-c", RUN_AND_LIST_MODULES, *argv,
                          "--config", "run.yaml", "--out", "out")
    loaded = set(json.loads(stdout.splitlines()[-1]))
    assert (tmp_path / "out").is_dir()
    assert not loaded & set(absent), sorted(loaded & set(absent))
    assert set(present) <= loaded, sorted(set(present) - loaded)


def test_bare_import_loads_no_submodule(tmp_path):
    stdout = fresh_python(tmp_path, "-c", "import json, sys, polsp; "
                          "print(json.dumps(sorted(sys.modules)))")
    loaded = json.loads(stdout)
    assert [m for m in loaded if m.startswith("polsp.")] == []
    assert "concurrent.futures" not in loaded


def test_cli_module_loads_no_route_numpy_or_yaml(tmp_path):
    # main imports the command's routes before numpy or yaml is loaded
    stdout = fresh_python(tmp_path, "-c", "import json, sys, polsp.cli; "
                          "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(stdout))
    assert not loaded & {*ROUTE_MODULES, "numpy", "yaml", "concurrent.futures"}


@pytest.mark.parametrize("size", [0, 55, 56, 64, 10 ** 6])
def test_digest_function_is_sha256(size):
    # 55, 56 and 64 bytes sit at the padding edges of one 64-byte block
    data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="no built-in sha256 module")
def test_digests_load_no_openssl(tmp_path):
    # hashlib maps OpenSSL's libcrypto; the manifests need sha256 alone
    write_config(tmp_path, SMALL)
    grid = np.linspace(0.0, 40.0, 50)
    np.savetxt(tmp_path / "samples.txt", np.column_stack([grid, np.exp(-grid)]))
    stdout = fresh_python(tmp_path, "-c", (
        "import sys; from polsp.cli import main; "
        "codes = [main(['converge', '--config', 'run.yaml', '--out', 'converge']), "
        "main(['kk', '--config', 'run.yaml', '--out', 'kk', '--input', 'samples.txt'])]; "
        "print(codes, '_hashlib' in sys.modules)"))
    assert stdout.splitlines()[-1] == "[0, 0] False"


def test_converge_builds_no_D(tmp_path, capsys, monkeypatch):
    # the secular rungs read K alone, so no overlap set caches its N x N D
    built, make = [], modes.OverlapSet
    monkeypatch.setattr(modes, "OverlapSet", lambda **kw: built.append(make(**kw)) or built[-1])
    path = write_config(tmp_path, SMALL)
    assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # overlap_K's set at the top rung, then one slice of it per rung, Xi = 1 and 2
    assert [overlaps.K.shape for overlaps in built] == [(8, 2), (8, 1), (8, 2)]
    assert all("D" not in vars(overlaps) for overlaps in built)


DYNAMICAL_SMALL = """
geometry: {L: 1.0, l: 0.5}
oscillators: [{omega: 6.0, G: 0.8}, {omega: 9.0, G: 0.5}]
basis: {photon_modes: 12, exciton_modes: 3}
sweep: {q_min: 0.0, q_max: 3.0, points: 12}
solver: {method: dynamical, omega_max: 14.0}
"""


def test_cold_start_thread_pool_gives_the_single_thread_bytes(tmp_path):
    # in a fresh process the dynamical route first imports hopfield inside
    # the pool's workers, where the in-process thread tests never reach it
    write_config(tmp_path, DYNAMICAL_SMALL)
    blobs = []
    for threads in (1, 2):
        fresh_python(tmp_path, "-m", "polsp.cli", "sweep", "--config", "run.yaml",
                     "--out", f"t{threads}", "--threads", str(threads))
        blobs.append((tmp_path / f"t{threads}" / "sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert len(blobs[0].splitlines()) > 2
