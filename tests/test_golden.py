"""Byte-level golden outputs of every CLI command on small fixed configs.

Each case runs one command and compares its CSV byte for byte, and its
manifest with the ``created_utc`` line removed, against the files under
``tests/golden/<case>/``.  Refactors of the solvers or the writer must
leave these bytes unchanged.

To regenerate the golden files after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from polsp.cli import main

GOLDEN = Path(__file__).parent / "golden"
KK_INPUT = GOLDEN / "kk_input.txt"

CONFIGS = {
    # the three configs of acceptance criterion 10
    "c10_secular": """
geometry: {L: 1.5, l: 0.8, c: 1.0}
oscillators: [{omega: 6.0, G: 0.8}]
basis: {photon_modes: 12, exciton_modes: 2}
sweep: {q_min: 0.0, q_max: 2.0, points: 17}
solver: {method: secular, omega_max: 9.0, scan_points: 400}
""",
    "c10_two_species": """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators: [{omega: 3.0, G: 0.5}, {omega: 7.0, G: 0.9}]
basis: {photon_modes: 12, exciton_modes: 3}
sweep: {q_min: 0.0, q_max: 2.0, points: 17}
solver: {method: dynamical}
""",
    "c10_weak": """
geometry: {L: 2.0, l: 1.1, c: 0.85}
oscillators: [{omega: 5.0, G: 0.001}]
basis: {photon_modes: 10, exciton_modes: 2}
sweep: {q_min: 0.0, q_max: 1.5, points: 9}
solver: {method: dynamical}
""",
    "closed_one": """
geometry: {L: 1.2, l: 0.6, c: 1.0}
oscillators: [{omega: 5.0, G: 0.7}]
basis: {photon_modes: 10, exciton_modes: 1}
sweep: {q_min: 0.0, q_max: 1.5, points: 7}
solver: {method: one_exciton, omega_max: 8.0, scan_points: 300}
""",
    "closed_two": """
geometry: {L: 1.5, l: 0.8, c: 1.0}
oscillators: [{omega: 6.0, G: 0.8}]
basis: {photon_modes: 10, exciton_modes: 2}
sweep: {q_min: 0.0, q_max: 1.5, points: 7}
solver: {method: two_exciton, omega_max: 9.0, scan_points: 300}
""",
    "green": """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators: [{omega: 20.0, G: 3.0}]
basis: {photon_modes: 24, exciton_modes: 4}
sweep: {q_min: 0.0, q_max: 2.0, points: 3}
solver: {method: green, omega_max: 12.0, scan_points: 200}
""",
    "converge": """
geometry: {L: 1.0, l: 0.5, c: 1.0}
oscillators: [{omega: 20.0, G: 3.0}]
basis: {photon_modes: 96, exciton_modes: 8}
solver: {omega_max: 17.0, scan_points: 600}
""",
}

# case name -> (config, command-line arguments after --config/--out)
CASES = {
    "sweep_dynamical": ("c10_two_species", ["sweep"]),
    "sweep_secular": ("c10_secular", ["sweep"]),
    "sweep_one_exciton": ("closed_one", ["sweep"]),
    "sweep_two_exciton": ("closed_two", ["sweep"]),
    "sweep_green": ("green", ["sweep"]),
    "sweep_classical": ("green", ["sweep", "--method", "classical"]),
    "sweep_weak_dynamical": ("c10_weak", ["sweep"]),
    "spectrum_two_species": ("c10_two_species", ["spectrum", "--q", "0.5"]),
    "spectrum_secular": ("c10_secular", ["spectrum", "--q", "0.5"]),
    "classical": ("converge", ["classical"]),
    "classical_q": ("green", ["classical", "--q", "0.5"]),
    "converge": ("converge", ["converge"]),
    "kk_forward": ("converge", ["kk", "--input", str(KK_INPUT),
                                "--direction", "forward"]),
    "kk_inverse": ("converge", ["kk", "--input",
                                str(GOLDEN / "kk_forward" / "kk.csv"),
                                "--direction", "inverse"]),
}


def _kk_samples() -> str:
    # chi'' of a damped Lorentz oscillator, omega0 = 4, gamma = 0.4
    grid = np.linspace(0.0, 40.0, 400)
    imag = 0.4 * grid / ((16.0 - grid ** 2) ** 2 + (0.4 * grid) ** 2)
    return "".join(f"{w:.12e} {v:.12e}\n" for w, v in zip(grid, imag))


def _run(case: str, out_dir: Path) -> None:
    config_name, args = CASES[case]
    config_path = out_dir / "config.yaml"
    config_path.write_text(CONFIGS[config_name], encoding="utf-8")
    code = main([*args, "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0, case
    config_path.unlink()


def _strip_timestamp(manifest: str) -> str:
    return "".join(line for line in manifest.splitlines(keepends=True)
                   if '"created_utc"' not in line)


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(case, tmp_path, capsys):
    _run(case, tmp_path)
    capsys.readouterr()
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        got = (tmp_path / name).read_text(encoding="utf-8")
        if name.endswith("_manifest.json"):
            got = _strip_timestamp(got)
        assert got == (GOLDEN / case / name).read_text(encoding="utf-8"), \
            f"{case}/{name} differs from its golden file"


def regenerate() -> None:
    """Rewrite every golden file from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    KK_INPUT.write_text(_kk_samples(), encoding="utf-8")
    for case in CASES:  # kk_forward runs before kk_inverse reads it
        out_dir = GOLDEN / case
        out_dir.mkdir(exist_ok=True)
        for old in out_dir.iterdir():
            old.unlink()
        _run(case, out_dir)
        for manifest in out_dir.glob("*_manifest.json"):
            manifest.write_text(_strip_timestamp(manifest.read_text(encoding="utf-8")),
                                encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
