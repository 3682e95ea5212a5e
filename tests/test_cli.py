"""Config ingestion, manifest reproducibility, and the command surface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from polsp import GeometryError, ParseError, overlap_K, secular_roots
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
    # resonance inside the scan window: classical roots pile up against it;
    # the failed command writes no output, not even the output directory
    path = write_config(tmp_path, """
geometry: {L: 1.0, l: 0.5}
oscillators: [{omega: 4.0, G: 1.0}]
solver: {omega_max: 12.0}
""")
    out = tmp_path / "newdir"
    code = main(["classical", "--config", path, "--out", str(out)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BracketError"
    assert not out.exists()


def test_green_sweep_far_below_the_light_line_finds_the_guided_modes(tmp_path, capsys):
    # q = 3000, kappa h ~ 750: the matching matrix overflows here, but the
    # green sweep counts its roots from ratios and exits 0 with the guided
    # modes the secular route finds, within 2.2e-7 of the resonance
    text = """
geometry: {L: 1.0, l: 0.5}
oscillators: [{omega: 4.0, G: 1.0}]
sweep: {q_min: 3000.0, q_max: 3000.0, points: 1}
solver: {omega_max: 10.0, allow_evanescent: true, pole_exclusion: 1.0e-9}
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
